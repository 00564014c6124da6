"""The benchmark's three workloads: set-up, one unit of measured work, gates.

Every call into the program goes through its public functions, looked up
as module attributes at call time so that the tracer can see them.

- train: one `train.train` call with the default TrainConfig on a corpus
  generated from the workload seed.
- decode / decode_long: the `asr decode` path per utterance
  (load_wav -> extract_features -> acoustic_forward -> beam_decode) over
  held-out utterances generated from the workload seed, decoded with a
  model trained in set-up by `train.train` on a fixed-seed corpus.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from shona_asr import acoustic, audio, checkpoint, corpusgen, decoder, features, manifest, metrics
from shona_asr import lexicon as lexicon_mod
from shona_asr.augment import AugmentPolicy

# `shona_asr.train` is shadowed by the `train` function in the package namespace.
train_mod = importlib.import_module("shona_asr.train")

# The decode model is a fixture: its corpus and training seeds are fixed (the
# criterion-7 seeds), so every workload seed decodes with the same model and
# only the utterances vary with the seed.
MODEL_CORPUS_SEED = 11
MODEL_TRAIN_SEED = 5
QUIET_AUGMENT = AugmentPolicy(speed_factors=[1.0], gain_db_range=(0.0, 0.0),
                              n_freq_masks=0, n_time_masks=0)
EVAL_STREAM = 7  # spawn key separating eval-sentence draws from corpusgen's streams
WER_LIMIT = 0.5  # criterion 7
# Set-up runs before measuring until it has taken SETUP_MIN_S / 2, and as many
# times again after measuring: the sub-second train set-up then gets enough
# samples for a steady median, and a decode set-up (~10 s, it trains the
# model) runs twice, which fits the run budget.
SETUP_MIN_S = 2.0
# Decode passes per run, at least: 2 x 50 latency samples puts 10 beyond p90.
MIN_PASSES = 2
# The tracing-overhead slice: a short fixed piece of each workload's work.
SLICE_UTTS = 3  # decode: utterances decoded
SLICE_TRAIN_UTTS = 10  # train: one epoch of train.train on this many utterances


@dataclass(frozen=True)
class Sizes:
    """Work per run. The defaults are the benchmark; tests shrink them."""

    train_utts: int = 96  # train workload corpus
    train_epochs: int = 6
    model_utts: int = 96  # decode fixture corpus
    model_epochs: int = 2
    eval_utts: int = 50  # distinct utterances per decode pass


@dataclass(frozen=True)
class DecodeSpec:
    beam_width: int
    words_per_sentence: tuple[int, int]


DECODE_SPECS = {
    "decode": DecodeSpec(beam_width=16, words_per_sentence=(2, 6)),
    "decode_long": DecodeSpec(beam_width=64, words_per_sentence=(6, 12)),
}
WORKLOADS = ("train", *DECODE_SPECS)


@dataclass
class Unit:
    """Outcome of one unit of measured work (a train call or a decode pass)."""

    wall_s: float
    nominal_s: float  # wall_s at the machine's nominal speed (speed.ScaledClock)
    audio_s: float
    attempted: int
    failed: int  # operations that raised, or training steps skipped or non-finite
    digest: str
    incomplete: int = 0  # decodes that returned complete=False: no final hypothesis
    latencies_s: list[float] = field(default_factory=list)
    quality: float = math.nan  # val_per (train) or WER (decode)
    detail: dict = field(default_factory=dict)


def _sha256(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()


def _tree_digest(root: Path) -> str:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return _sha256(b for p in files for b in (str(p.relative_to(root)).encode(), p.read_bytes()))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class TrainWorkload:
    def __init__(self, seed: int, sizes: Sizes):
        self.seed, self.sizes = seed, sizes
        self.cfg = train_mod.TrainConfig(seed=seed, epochs_max=sizes.train_epochs,
                                         patience=sizes.train_epochs)

    def setup(self, work_dir: Path, tracer, clock) -> dict:
        corpus_dir = work_dir / "corpus"
        with tracer.span("corpusgen.generate"):
            corpus = corpusgen.generate_corpus(
                corpusgen.GenConfig(seed=self.seed, vocab_size=50,
                                    n_utterances=self.sizes.train_utts), corpus_dir)
        train_split, _, _ = manifest.split_corpus(corpus, self.cfg.split_ratios, self.cfg.seed)
        return {"manifest": corpus, "train_audio_s": train_split.total_duration_s(),
                "n_train": len(train_split), "dir": corpus_dir}

    def fingerprint(self, state: dict) -> str:
        return _tree_digest(state["dir"])

    def run_unit(self, state: dict, tracer, clock) -> Unit:
        clock.start()
        try:
            result = train_mod.train(self.cfg, state["manifest"])
        finally:
            clock.stop()
        log = result.epoch_log
        epochs = len(log)
        skipped = sum(e["skipped"] for e in log)
        nonfinite = sum(state["n_train"] - e["skipped"] for e in log
                        if not (math.isfinite(e["train_ctc"]) and math.isfinite(e["train_lm_ce"])))
        return Unit(
            wall_s=clock.wall_s, nominal_s=clock.nominal_s,
            audio_s=epochs * state["train_audio_s"],
            attempted=epochs * state["n_train"], failed=skipped + nonfinite,
            digest=_sha256([json.dumps(log, sort_keys=True), result.best_hash]),
            quality=log[-1]["val_per"], detail={"result": result, "epoch_log": log})

    def overhead_slice(self, state: dict) -> None:
        """One epoch of train.train on the first few utterances of the corpus."""
        cfg = replace(self.cfg, epochs_max=1, patience=1)
        train_mod.train(cfg, manifest.CorpusManifest(state["manifest"].records[:SLICE_TRAIN_UTTS]))

    def gates(self, state: dict, units: list[Unit], work_dir: Path, tracer) -> dict[str, bool]:
        result = units[0].detail["result"]
        log = result.epoch_log
        loss_keys = ("train_ctc", "train_lm_ce", "val_ctc", "val_lm_ce", "val_per")
        path = work_dir / "roundtrip.ckpt"
        checkpoint.save_checkpoint(result.checkpoint, path)
        with tracer.span("checkpoint.load"):
            loaded = checkpoint.load_checkpoint(path)
        with tracer.span("train.restore_models"):
            restored = train_mod.restore_models(loaded)
        acoustic_params = restored[3]
        want = checkpoint.params_hash(result.checkpoint.tensors)
        return {
            "losses_finite": all(math.isfinite(e[k]) for e in log for k in loss_keys),
            "val_per_improves": log[-1]["val_per"] < log[0]["val_per"],
            "checkpoint_roundtrip": (checkpoint.params_hash(loaded.tensors) == want
                                     and result.best_hash == want
                                     and np.array_equal(acoustic_params["out.W"].data,
                                                        loaded.tensors["acoustic.out.W"])),
        }


# ---------------------------------------------------------------------------
# decode, decode_long
# ---------------------------------------------------------------------------

def model_train_config(lexicon_words: list[str], epochs: int) -> "train_mod.TrainConfig":
    """The fixture's short schedule: per-utterance Adam updates, no augmentation."""
    return train_mod.TrainConfig(
        seed=MODEL_TRAIN_SEED, epochs_max=epochs, patience=epochs, batch_size=1,
        lexicon_words=lexicon_words, augment=QUIET_AUGMENT,
        optimizer=train_mod.OptimizerConfig(learning_rate=2e-3),
        lm_optimizer=train_mod.OptimizerConfig(learning_rate=1e-2))


def train_in_child(cfg: "train_mod.TrainConfig", corpus: "manifest.CorpusManifest",
                   ckpt_path: Path, clock) -> None:
    """Train with `train.train` in a forked child and save the checkpoint.

    The training peak then stays out of this process's ru_maxrss, so the
    decode workloads' peak_rss_mb is that of loading the checkpoint and
    decoding, as in an `asr decode` process. The running `clock` pauses
    while the child runs; a clock of its kind times the child, which sends
    its times back through a pipe.
    """
    clock.stop()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            child_clock = type(clock)()
            child_clock.start()
            checkpoint.save_checkpoint(train_mod.train(cfg, corpus).checkpoint, ckpt_path)
            child_clock.stop()
            os.write(write_fd, f"{child_clock.wall_s!r} {child_clock.nominal_s!r}".encode())
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        timed = pipe.read().split()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"training the decode model failed: wait status {status}")
    clock.add(*map(float, timed))
    clock.start()


def write_eval_set(lexicon, exclude: set[str], n: int, words_per_sentence: tuple[int, int],
                   seed: int, out_dir: Path) -> "manifest.CorpusManifest":
    """Render n seeded sentences over the lexicon that are not in `exclude`.

    Sentence lengths cycle through the range, so a seed changes which words
    are spoken but not how long the sentences are.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(EVAL_STREAM,)))
    gen_cfg = corpusgen.GenConfig()
    words = lexicon.words()
    (out_dir / "wav").mkdir(parents=True, exist_ok=True)
    records, seen = [], set(exclude)
    lo, hi = words_per_sentence
    while len(records) < n:
        length = lo + len(records) % (hi - lo + 1)
        sentence = [words[int(rng.integers(0, len(words)))] for _ in range(length)]
        text = " ".join(sentence)
        if text in seen:
            continue
        seen.add(text)
        phones = [p for w in sentence for p in lexicon.pronunciations[w]]
        wav = corpusgen.synth_utterance(phones, gen_cfg, lexicon.inventory)
        utt_id = f"eval{len(records):04d}"
        audio.save_wav(out_dir / "wav" / f"{utt_id}.wav", wav)
        records.append({"id": utt_id, "audio": f"wav/{utt_id}.wav", "text": text,
                        "duration_s": wav.duration_s})
    manifest.save_manifest(out_dir / "manifest.jsonl", records)
    return manifest.load_manifest(out_dir / "manifest.jsonl")


class DecodeWorkload:
    def __init__(self, name: str, seed: int, sizes: Sizes):
        self.seed, self.sizes = seed, sizes
        self.spec = DECODE_SPECS[name]

    def setup(self, work_dir: Path, tracer, clock) -> dict:
        corpus_dir = work_dir / "model_corpus"
        with tracer.span("corpusgen.generate"):
            corpus = corpusgen.generate_corpus(
                corpusgen.GenConfig(seed=MODEL_CORPUS_SEED, vocab_size=50,
                                    n_utterances=self.sizes.model_utts), corpus_dir)
        lexicon_words = lexicon_mod.Lexicon.load(corpus_dir / "lexicon.txt").words()
        ckpt_path = work_dir / "model.ckpt"
        train_in_child(model_train_config(lexicon_words, self.sizes.model_epochs), corpus,
                       ckpt_path, clock)
        with tracer.span("checkpoint.load"):
            ckpt = checkpoint.load_checkpoint(ckpt_path)
        with tracer.span("train.restore_models"):
            cfg, _, vocab, acoustic_params, lm_params, lexicon = train_mod.restore_models(ckpt)
        eval_set = write_eval_set(lexicon, {r.text for r in corpus}, self.sizes.eval_utts,
                                  self.spec.words_per_sentence, self.seed, work_dir / "eval")
        return {
            "cfg": cfg, "vocab": vocab, "acoustic": acoustic_params, "lm": lm_params,
            "lexicon": lexicon, "eval": eval_set,
            "refs": [metrics.normalize_text(r.text) for r in eval_set],
            "audio_s": eval_set.total_duration_s(),
            "tensors": ckpt.tensors, "dir": work_dir / "eval",
            "model_val_per": ckpt.best_metric,
        }

    def fingerprint(self, state: dict) -> str:
        return _sha256([checkpoint.params_hash(state["tensors"]), _tree_digest(state["dir"])])

    def decode_one(self, state: dict, wav_path) -> "decoder.Transcript":
        """The `asr decode` path for one utterance."""
        cfg = state["cfg"]
        wav = audio.load_wav(wav_path)
        feats = features.extract_features(wav)
        grid = acoustic.PosteriorGrid(
            acoustic.acoustic_forward(state["acoustic"], feats, cfg.acoustic).data)
        return decoder.beam_decode(grid, state["lexicon"], state["lm"], state["vocab"],
                                   lm_weight=cfg.decode.lm_weight,
                                   word_bonus=cfg.decode.word_bonus,
                                   beam_width=self.spec.beam_width)

    def run_unit(self, state: dict, tracer, clock) -> Unit:
        latencies, hyps, lines, failed, incomplete = [], [], [], 0, 0
        for rec in state["eval"]:
            tracer.request = rec.utt_id
            clock.start()
            try:
                hyp, error = self.decode_one(state, rec.audio), None
            except Exception as exc:  # a decode that raises counts as failed; the run goes on
                hyp, error = decoder.Transcript(words=[], complete=False), exc
            finally:
                latencies.append(clock.stop())
            failed += error is not None
            incomplete += error is None and not hyp.complete
            hyps.append(hyp.words)
            lines.append(f"{rec.utt_id}\t!{type(error).__name__}: {error}" if error else
                         f"{rec.utt_id}\t{hyp.text()}\t{hyp.score!r}")
        return Unit(
            wall_s=clock.wall_s, nominal_s=clock.nominal_s, audio_s=state["audio_s"],
            attempted=len(latencies), failed=failed, incomplete=incomplete,
            digest=_sha256(line + "\n" for line in lines),
            latencies_s=latencies,
            quality=metrics.wer(list(zip(state["refs"], hyps))))

    def overhead_slice(self, state: dict) -> None:
        """Decode the first few utterances of the eval set."""
        for rec in state["eval"].records[:SLICE_UTTS]:
            self.decode_one(state, rec.audio)

    def gates(self, state: dict, units: list[Unit], work_dir: Path, tracer) -> dict[str, bool]:
        return {"wer_below_limit": units[0].quality < WER_LIMIT}


def make_workload(name: str, seed: int, sizes: Sizes):
    if name == "train":
        return TrainWorkload(seed, sizes)
    return DecodeWorkload(name, seed, sizes)
