"""End-to-end training, warm starting, and evaluation.

One epoch loop trains the acoustic model (CTC) and the language model
(teacher forcing) with independent optimizers, monitors validation PER
from greedy decoding, and early-stops with patience. The two models share
no tensor, optimizer or input, so they train side by side: a forked LM
process owns the LM's parameters and Adam moments and runs each epoch's
LM pass and LM validation while this process runs the acoustic ones, then
sends the LM's tensors back for the best-epoch copy. Training therefore
needs the `fork` start method (Linux). While a function of the LM's code
is replaced (by a tracer's wrapper, say), the LM trains in this process
after each acoustic pass instead, so that the wrapper sees its calls; the
results are the same. Both models train in float32; the
CTC recursion and the loss totals sum in float64. The best epoch is kept
as a copy of its tensors, which its checkpoint holds.

The whole run is a pure function of (config, manifest), whatever the
host's core count or `OPENBLAS_NUM_THREADS`: OpenBLAS is pinned to one
thread for the duration of `train()` (and so in the forked LM process),
and its previous thread count is restored afterwards. The sums of a
multi-threaded BLAS depend on how it splits them, and one thread per
process is also what two processes on a 2-core host can run without
oversubscription.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import logging
import multiprocessing
import signal
import time
import traceback
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad, lm as lm_module, optim as optim_module
from .acoustic import (AcousticConfig, acoustic_forward, acoustic_layout, build_acoustic_model,
                       output_frames)
from .audio import AudioBuffer, load_wav
from .augment import AugmentPolicy, augment_audio, spec_augment
from .checkpoint import Checkpoint, load_checkpoint, params_hash
from .ctc import ctc_greedy_decode, ctc_loss, min_frames
from .decoder import DecodeStats, beam_decode
from .errors import DataError, VerificationError
from .features import extract_features
from .lexicon import Lexicon, build_lexicon
from .lm import LmConfig, TokenVocab, build_lm, corpus_loss, lm_layout, lm_train, word_tokens
from .manifest import CorpusManifest, split_corpus
from .metrics import MetricsReport, normalize_text, per, report, wer
from .optim import OptimizerConfig, OptimizerState, optimizer_step
from .phones import PhoneInventory, default_inventory

log = logging.getLogger(__name__)


@dataclass
class DecodeConfig:
    lm_weight: float = 1.0
    word_bonus: float = 0.0
    beam_width: int = 16


@dataclass
class TrainConfig:
    seed: int = 0
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    epochs_max: int = 100
    patience: int = 10
    batch_size: int = 4
    granularity: str = "phone"  # LM token granularity: "phone" | "word"
    target_train_per: float | None = None  # optional convergence shortcut
    lexicon_words: list[str] | None = None  # default: all manifest words
    warm_start_path: str | None = None
    freeze: tuple[str, ...] = ()
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    lm_optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    augment: AugmentPolicy = field(default_factory=AugmentPolicy)
    acoustic: AcousticConfig = field(default_factory=AcousticConfig)
    lm: LmConfig = field(default_factory=LmConfig)
    decode: DecodeConfig = field(default_factory=DecodeConfig)

    def __post_init__(self):
        if self.epochs_max < 1:
            raise ValueError("epochs_max must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise ValueError(f"split ratios must sum to 1, got {self.split_ratios}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        return _config_from_dict(cls, obj, path="config")


def _config_from_dict(cls, obj, path: str):
    """Build a config dataclass from JSON, led by its field annotations.

    Every value is checked against its field's annotation (see
    `_decode_value`); a mismatch is a DataError naming the field.
    """
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected an object")
    hints = typing.get_type_hints(cls)
    unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise DataError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {name: _decode_value(hints[name], value, f"{path}.{name}")
              for name, value in obj.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc


_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _decode_value(hint, value, path: str):
    """Check one JSON value against a field annotation and convert it.

    Handles dataclasses (decoded recursively), bool, int, float (an int is
    accepted), str, `X | None`, `list[X]` and `tuple[...]` (a JSON list
    becomes a tuple). A bool is not accepted as an int or a float. An error
    names the field and the value's type, never the value itself, which
    can be arbitrarily long or deep.
    """
    if dataclasses.is_dataclass(hint):
        return _config_from_dict(hint, value, path)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _decode_value(inner, value, path)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise DataError(f"{path}: expected a list, got {_type_name(value)}")
        if origin is list or args[-1:] == (Ellipsis,):
            items = [args[0]] * len(value)
        elif len(value) != len(args):
            raise DataError(f"{path}: expected {len(args)} items, got {len(value)}")
        else:
            items = args
        decoded = [_decode_value(h, v, f"{path}[{i}]")
                   for i, (h, v) in enumerate(zip(items, value))]
        return decoded if origin is list else tuple(decoded)
    kinds = _SCALARS[hint]
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, kinds):
        raise DataError(f"{path}: expected {hint.__name__}, got {_type_name(value)}")
    return value


def _type_name(value) -> str:
    """The type of a JSON value, for an error message that must stay short whatever the value."""
    return "null" if value is None else type(value).__name__


# ---------------------------------------------------------------------------
# warm start
# ---------------------------------------------------------------------------

@dataclass
class WarmStart:
    acoustic: ad.Parameters
    lm: ad.Parameters
    reinitialized: list[str]


def warm_start(ckpt: Checkpoint, n_phones: int, vocab: TokenVocab,
               acoustic_cfg: AcousticConfig, lm_cfg: LmConfig, seed: int = 0) -> WarmStart:
    """Initialize new float32 models, for training, from a checkpoint.

    Tensors whose name and shape match are copied. Output layers may
    legitimately differ (new phone set or vocab) and stay freshly
    initialized; any other shape mismatch is an error.
    """
    new_acoustic = build_acoustic_model(acoustic_cfg, n_phones, seed)
    new_lm = build_lm(vocab, lm_cfg, seed + 1)
    _to_float32(new_acoustic, new_lm)
    reinitialized = []
    for prefix, new_params in (("acoustic.", new_acoustic), ("lm.", new_lm)):
        for name, tensor in new_params.items():
            old = ckpt.tensors.get(prefix + name)
            if old is None:
                reinitialized.append(prefix + name)
            elif old.shape == tensor.data.shape:
                tensor.data[...] = old
            elif name.startswith(("out.", "embed.")):
                reinitialized.append(prefix + name)
            else:
                raise DataError(f"incompatible hidden-layer shape for {prefix}{name}: "
                                f"checkpoint {old.shape} vs model {tensor.data.shape}")
    return WarmStart(new_acoustic, new_lm, reinitialized)


def _to_float32(*models: ad.Parameters) -> None:
    """Cast every tensor of the models to float32, the dtype training runs in."""
    for params in models:
        for _, t in params.items():
            t.data = t.data.astype(np.float32)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class EarlyStopper:
    """Patience counter over a to-be-minimized validation metric.

    An epoch improves only when strictly below the best seen; training
    stops once `patience` consecutive epochs fail to improve.
    """

    def __init__(self, patience: int):
        self.patience = patience
        self.best_value = float("inf")
        self.best_epoch = 0
        self.stale = 0

    def update(self, value: float, epoch: int) -> bool:
        if value < self.best_value:
            self.best_value = value
            self.best_epoch = epoch
            self.stale = 0
            return True
        self.stale += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.stale >= self.patience


@dataclass
class Utterance:
    utt_id: str
    audio: AudioBuffer
    words: list[str]
    phones: list[int]


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    epoch_log: list[dict]
    best_epoch: int
    stopped_early: bool
    best_hash: str


def _prepare_utterances(manifest: CorpusManifest, lexicon: Lexicon) -> tuple[list[Utterance], int]:
    """Load audio and derive phone targets; drop utterances g2p cannot cover."""
    out = []
    skipped = 0
    for rec in manifest:
        words = normalize_text(rec.text)
        if not words or any(w not in lexicon for w in words):
            log.warning("skipping %s: transcript not covered by the lexicon", rec.utt_id)
            skipped += 1
            continue
        phones = [p for w in words for p in lexicon.pronunciations[w]]
        out.append(Utterance(rec.utt_id, load_wav(rec.audio), words, phones))
    return out, skipped


def _lm_sentences(utts: list[Utterance], lexicon: Lexicon, granularity: str) -> list[list[str]]:
    return [[tok for w in utt.words
             for tok in word_tokens(w, lexicon.phone_symbols(w), granularity)]
            for utt in utts]


def _finite_update(opt: OptimizerState, params: ad.Parameters, batch: int) -> int:
    """One optimizer step from the accumulated gradients, unless one is non-finite.

    A non-finite gradient drops the update and clears the gradients.
    Returns the number of utterances whose gradients were dropped: 0, or
    the batch size.
    """
    if all(t.grad is None or np.isfinite(t.grad).all() for _, t in params.items()):
        optimizer_step(opt, params)
        return 0
    params.zero_grad()
    return batch


@functools.lru_cache(maxsize=1)
def _openblas_thread_calls():
    """The loaded OpenBLAS's (get_num_threads, set_num_threads), or None.

    The library is found among the files this process has mapped, and the
    calls under the names numpy's wheels (`scipy_openblas*`) or a system
    OpenBLAS give them. None when numpy runs on another BLAS.
    """
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(dll, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread; restore its thread count after."""
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


def _functions(*modules: types.ModuleType) -> dict:
    return {(mod.__name__, name): value for mod in modules for name, value in vars(mod).items()
            if isinstance(value, types.FunctionType)}


# The functions an LM epoch runs through, as imported. A tracer or profiler
# replaces them with wrappers that record into the memory of the process
# that calls them, which a forked process's records never reach.
_LM_CODE = (lm_module, ad, optim_module)
_LM_FUNCTIONS = _functions(*_LM_CODE)


def _lm_epoch(params: ad.Parameters, opt: OptimizerState, vocab: TokenVocab,
              train_sents: list[list[str]], val_sents: list[list[str]]) -> tuple[float, float]:
    """One LM epoch and its validation loss: (train_lm_ce, val_lm_ce)."""
    return (lm_train(params, train_sents, vocab, epochs=1, optimizer=opt)[0],
            corpus_loss(params, val_sents, vocab))


def _lm_epochs(conn, parent_end, params: ad.Parameters, run_epoch) -> None:
    """The LM process: one `run_epoch()` per request.

    Each request (any message) is answered with (train_lm_ce, val_lm_ce,
    {name: array}), or with the exception the epoch raised; one that cannot
    be pickled ends the process, which the parent reports. A closed pipe
    ends the process. Ctrl-C is left to the parent, which kills the process.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()  # so that a parent that dies closes the pipe
    while True:
        try:
            conn.recv()
        except EOFError:
            return
        try:
            reply = (*run_epoch(), {name: t.data for name, t in params.items()})
        except Exception as exc:
            exc.add_note("in the LM training process:\n" + traceback.format_exc().rstrip())
            reply = exc
        conn.send(reply)


class _LmTrainer:
    """A forked process that trains the LM, one epoch per `start_epoch`.

    The process inherits the parameters, the optimizer and the sentences.
    `finish_epoch` waits for the epoch and copies its tensors into
    `params`; an exception raised in the process is raised again here.
    Leaving the `with` block ends the process: it is closed after a normal
    exit and killed after an exception, and joined either way.

    When a function of the LM's code has been replaced since import (a
    tracer's wrapper, say), no process is forked: `finish_epoch` runs the
    epoch here, so that what the wrappers record stays in this process.
    The epoch's results are the same either way.
    """

    def __init__(self, params: ad.Parameters, opt: OptimizerState, vocab: TokenVocab,
                 train_sents: list[list[str]], val_sents: list[list[str]]):
        self.params = params
        self._run_epoch = functools.partial(_lm_epoch, params, opt, vocab, train_sents, val_sents)
        self._process = None
        if _functions(*_LM_CODE) != _LM_FUNCTIONS:
            return
        context = multiprocessing.get_context("fork")
        self._conn, child_end = context.Pipe()
        self._process = context.Process(target=_lm_epochs, name="lm-train", daemon=True,
                                        args=(child_end, self._conn, params, self._run_epoch))
        self._process.start()
        child_end.close()

    def __enter__(self) -> "_LmTrainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._process is None:
            return
        if exc_type is not None:
            self._process.kill()
        self._conn.close()
        self._process.join()

    def start_epoch(self) -> None:
        if self._process is not None:
            self._conn.send(True)

    def finish_epoch(self) -> tuple[float, float]:
        """Wait for the epoch; returns its (train_lm_ce, val_lm_ce)."""
        if self._process is None:
            return self._run_epoch()
        try:
            reply = self._conn.recv()
        except EOFError:
            self._process.join()
            raise RuntimeError(f"the LM training process exited with code "
                               f"{self._process.exitcode} without answering") from None
        if isinstance(reply, BaseException):
            raise reply
        train_ce, val_ce, tensors = reply
        for name, t in self.params.items():
            t.data[...] = tensors[name]
        return train_ce, val_ce


@_one_blas_thread()
def train(cfg: TrainConfig, manifest: CorpusManifest) -> TrainResult:
    """Joint training run; returns the checkpoint of the best epoch."""
    inventory = default_inventory()
    train_m, val_m, _ = split_corpus(manifest, cfg.split_ratios, cfg.seed)

    words = cfg.lexicon_words
    if words is None:
        words = sorted({w for rec in manifest for w in normalize_text(rec.text)})
    lexicon = build_lexicon(words, inventory)
    for word, reason in lexicon.skipped:
        log.warning("lexicon drops %r: %s", word, reason)

    if cfg.granularity == "word":
        vocab = TokenVocab.build(lexicon.words(), "word")
    else:
        vocab = TokenVocab.build(inventory.symbols(), "phone")

    seed_seq = np.random.SeedSequence(cfg.seed)
    seeds = [int(s.generate_state(1)[0]) for s in seed_seq.spawn(2)]
    if cfg.warm_start_path is not None:
        ws = warm_start(load_checkpoint(cfg.warm_start_path), len(inventory), vocab,
                        cfg.acoustic, cfg.lm, seeds[0])
        acoustic_params, lm_params = ws.acoustic, ws.lm
        if ws.reinitialized:
            log.info("warm start reinitialized: %s", ", ".join(ws.reinitialized))
    else:
        acoustic_params = build_acoustic_model(cfg.acoustic, len(inventory), seeds[0])
        lm_params = build_lm(vocab, cfg.lm, seeds[1])
        _to_float32(acoustic_params, lm_params)

    # both models' tensors under their checkpoint names
    named = [*(("acoustic." + n, t) for n, t in acoustic_params.items()),
             *(("lm." + n, t) for n, t in lm_params.items())]
    # a frozen tensor gets no gradient, so the optimizer leaves it as it is
    for prefix in cfg.freeze:
        frozen = [t for name, t in named if name.startswith(prefix)]
        if not frozen:
            raise DataError(f"config.freeze: {prefix!r} matches no tensor (names look like "
                            f"'acoustic.conv1.kernels' or 'lm.embed.W')")
        for t in frozen:
            t.requires_grad = False
    ac_opt = OptimizerState(cfg.optimizer)
    lm_opt = OptimizerState(cfg.lm_optimizer)

    train_utts, n_skipped = _prepare_utterances(train_m, lexicon)
    val_utts, _ = _prepare_utterances(val_m, lexicon)
    if not train_utts or not val_utts:
        raise DataError("no usable training or validation utterances")
    if n_skipped > len(train_m) / 2:
        raise DataError(f"{n_skipped} of {len(train_m)} training utterances unusable; aborting")

    identity_augment = cfg.augment.is_identity()
    # an augmenting epoch extracts its own training features, so only the
    # identity policy and the train-PER pass read the unaugmented ones
    keep_train = identity_augment or cfg.target_train_per is not None
    base_feats = {u.utt_id: extract_features(u.audio)
                  for u in (train_utts if keep_train else []) + val_utts}
    lm_train_sents = _lm_sentences(train_utts, lexicon, vocab.granularity)
    lm_val_sents = _lm_sentences(val_utts, lexicon, vocab.granularity)

    stopper = EarlyStopper(cfg.patience)
    best_tensors = None
    epoch_log: list[dict] = []
    stopped_early = False

    with _LmTrainer(lm_params, lm_opt, vocab, lm_train_sents, lm_val_sents) as lm:
        for epoch in range(1, cfg.epochs_max + 1):
            lm.start_epoch()  # the LM's pass and validation run beside the acoustic ones
            # -- acoustic pass -------------------------------------------------
            epoch_ctc, n_scored, n_failed, n_nonfinite, pending = 0.0, 0, 0, 0, 0
            for i, utt in enumerate(train_utts):
                if identity_augment:
                    feats = base_feats[utt.utt_id]
                else:
                    rng = np.random.default_rng(
                        np.random.SeedSequence(cfg.seed, spawn_key=(cfg.augment.seed, epoch, i)))
                    audio = augment_audio(utt.audio, cfg.augment, rng)
                    feats = spec_augment(extract_features(audio), cfg.augment, rng)
                if output_frames(feats.shape[0]) < min_frames(utt.phones):
                    n_failed += 1
                    continue
                grid = acoustic_forward(acoustic_params, feats, cfg.acoustic)
                loss = ctc_loss(grid, utt.phones)
                if not np.isfinite(loss.data):
                    n_nonfinite += 1
                    continue
                epoch_ctc += float(loss.data)
                n_scored += 1
                ad.backward(loss)
                pending += 1
                if pending >= cfg.batch_size:
                    n_nonfinite += _finite_update(ac_opt, acoustic_params, pending)
                    pending = 0
            if pending:
                n_nonfinite += _finite_update(ac_opt, acoustic_params, pending)
            n_failed += n_nonfinite
            if n_failed > len(train_utts) / 2:
                message = f"epoch {epoch}: {n_failed}/{len(train_utts)} utterances failed"
                if n_nonfinite:
                    raise VerificationError(f"{message}, {n_nonfinite} of them on a non-finite "
                                            f"loss or gradient")
                raise DataError(message)

            # -- validation ----------------------------------------------------
            val_ctc, n_val = 0.0, 0
            val_pairs = []
            for utt in val_utts:
                feats = base_feats[utt.utt_id]
                grid = acoustic_forward(acoustic_params, feats, cfg.acoustic)
                if output_frames(feats.shape[0]) >= min_frames(utt.phones):
                    val_ctc += float(ctc_loss(grid, utt.phones).data)
                    n_val += 1
                val_pairs.append((utt.phones, ctc_greedy_decode(grid.data)))
            val_per = per(val_pairs)
            train_lm_ce, val_lm = lm.finish_epoch()

            entry = {
                "epoch": epoch,
                "train_ctc": epoch_ctc / max(n_scored, 1),
                "train_lm_ce": train_lm_ce,
                "val_ctc": val_ctc / max(n_val, 1),
                "val_lm_ce": val_lm,
                "val_per": val_per,
                "skipped": n_failed,
            }

            improved = stopper.update(val_per, epoch)
            reached_target = False
            if cfg.target_train_per is not None:
                train_pairs = [(utt.phones, ctc_greedy_decode(
                    acoustic_forward(acoustic_params, base_feats[utt.utt_id], cfg.acoustic).data))
                    for utt in train_utts]
                entry["train_per"] = train_per = per(train_pairs)
                reached_target = train_per <= cfg.target_train_per
                if reached_target:
                    stopper.best_value = val_per
                    stopper.best_epoch = epoch

            if improved or reached_target:
                best_tensors = {name: t.data.copy() for name, t in named}
            epoch_log.append(entry)
            if reached_target:
                log.info("epoch %d: train PER %.4f reached target, stopping", epoch, train_per)
                break
            log.info("epoch %d: train_ctc=%.4f val_ctc=%.4f val_per=%.4f lm_ce=%.4f",
                     epoch, entry["train_ctc"], entry["val_ctc"], val_per, entry["train_lm_ce"])

            if stopper.should_stop:
                stopped_early = True
                log.info("early stopping at epoch %d (best epoch %d)", epoch, stopper.best_epoch)
                break

    config_snapshot = cfg.to_dict()
    config_snapshot["lexicon_words"] = lexicon.words()
    ckpt = Checkpoint(
        config=config_snapshot,
        inventory_lines=inventory.to_lines(),
        vocab=list(vocab.tokens),
        tensors=best_tensors,
        best_metric=stopper.best_value if stopper.best_value != float("inf") else None,
        epoch=stopper.best_epoch,
    )
    return TrainResult(ckpt, epoch_log, stopper.best_epoch, stopped_early,
                       params_hash(best_tensors))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalResult:
    report: MetricsReport
    greedy_per: float
    greedy_wer: float
    transcripts: dict[str, str]
    incomplete: int = 0  # searches that returned complete=False
    search: DecodeStats = field(default_factory=DecodeStats)  # summed over the split

    def to_dict(self) -> dict:
        out = self.report.to_dict()
        out["greedy_per"] = self.greedy_per
        out["greedy_wer"] = self.greedy_wer
        out["incomplete"] = self.incomplete
        out["search"] = dataclasses.asdict(self.search)
        return out


def restore_models(ckpt: Checkpoint) -> tuple[TrainConfig, PhoneInventory, TokenVocab,
                                              ad.Parameters, ad.Parameters, Lexicon]:
    """Rebuild configs, inventory, vocab, parameters and lexicon from a checkpoint.

    Every tensor of the models' layouts must be in the checkpoint with its
    layout shape, and the checkpoint may hold no other tensor; otherwise
    this is a DataError. The parameters hold read-only views of the
    checkpoint's float32 tensors, so decode and eval compute in float32;
    no model is drawn. The views do not require grad, so a forward pass
    over them builds no backward graph: the models are for inference only.
    """
    cfg = TrainConfig.from_dict(ckpt.config)
    inventory = PhoneInventory.from_lines(ckpt.inventory_lines)
    vocab = TokenVocab(list(ckpt.vocab), cfg.granularity)
    acoustic, lm = ad.Parameters(), ad.Parameters()
    mismatched, model_names = [], set()
    for prefix, layout, params in (
            ("acoustic.", acoustic_layout(cfg.acoustic, len(inventory)), acoustic),
            ("lm.", lm_layout(vocab, cfg.lm), lm)):
        for name, shape, _ in layout:
            model_names.add(prefix + name)
            stored = ckpt.tensors.get(prefix + name)
            if stored is None or stored.shape != shape:
                mismatched.append(prefix + name)
                continue
            view = stored.view()
            view.flags.writeable = False
            params.add(name, view).requires_grad = False
    if mismatched:
        raise DataError("checkpoint tensors missing or of the wrong shape for its config: "
                        + ", ".join(mismatched))
    unknown = sorted(set(ckpt.tensors) - model_names)
    if unknown:
        raise DataError("checkpoint holds tensors its config's models lack: " + ", ".join(unknown))
    if not cfg.lexicon_words:
        raise DataError("checkpoint config carries no lexicon_words; cannot decode")
    lexicon = build_lexicon(cfg.lexicon_words, inventory)
    return cfg, inventory, vocab, acoustic, lm, lexicon


def evaluate(ckpt: Checkpoint, split: CorpusManifest,
             lm_weight: float | None = None, beam_width: int | None = None) -> EvalResult:
    """Decode a split and score it; also reports no-LM greedy baselines.

    greedy_per comes from raw best-path CTC decoding; greedy_wer from a
    width-1, zero-LM-weight constrained search.
    """
    if len(split) == 0:
        raise DataError("evaluation split is empty")
    cfg, inventory, vocab, acoustic_params, lm_params, lexicon = restore_models(ckpt)
    lam = cfg.decode.lm_weight if lm_weight is None else lm_weight
    beam = cfg.decode.beam_width if beam_width is None else beam_width

    utts, n_skipped = _prepare_utterances(split, lexicon)
    if not utts:
        raise DataError("no evaluable utterances in the split")
    if n_skipped:
        log.warning("evaluation skipped %d utterances", n_skipped)

    word_pairs, phone_pairs, greedy_phone_pairs, greedy_word_pairs = [], [], [], []
    transcripts = {}
    search, incomplete = DecodeStats(), 0
    started = time.perf_counter()
    for utt in utts:
        feats = extract_features(utt.audio)
        grid = acoustic_forward(acoustic_params, feats, cfg.acoustic).data
        hyp = beam_decode(grid, lexicon, lm_params, vocab,
                          lm_weight=lam, word_bonus=cfg.decode.word_bonus, beam_width=beam)
        search.add(hyp.stats)
        incomplete += not hyp.complete
        greedy_words = beam_decode(grid, lexicon, None, None,
                                   lm_weight=0.0, word_bonus=0.0, beam_width=1)
        greedy_phones = ctc_greedy_decode(grid)
        hyp_phones = [p for w in hyp.words for p in lexicon.pronunciations[w]]
        word_pairs.append((utt.words, hyp.words))
        phone_pairs.append((utt.phones, hyp_phones))
        greedy_phone_pairs.append((utt.phones, greedy_phones))
        greedy_word_pairs.append((utt.words, greedy_words.words))
        transcripts[utt.utt_id] = hyp.text()

    wall_s = time.perf_counter() - started
    audio_s = sum(utt.audio.duration_s for utt in utts)
    log.debug("decoded %d utterances (%.2f s of audio) in %.2f s, real-time factor %.3f; "
              "search: %s", len(utts), audio_s, wall_s, wall_s / audio_s, search)
    if incomplete:
        log.warning("%d of %d searches ended without a complete transcript", incomplete, len(utts))
    rep = report(word_pairs, phone_pairs)
    return EvalResult(
        report=rep,
        greedy_per=per(greedy_phone_pairs),
        greedy_wer=wer(greedy_word_pairs),
        transcripts=transcripts,
        incomplete=incomplete,
        search=search,
    )
