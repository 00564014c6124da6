"""Acceptance suite: every release-gating check, one test per criterion.

Each test prints its own PASS/FAIL line (visible even under capture) so a
plain pytest run doubles as the acceptance report. Heavy fixtures (the
synthetic corpora and trained systems) are module-scoped and shared.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (brute_force_ctc_logprob, exhaustive_decode, naive_mel_energies,
                     recursive_edit_distance)
from shona_asr import features
from shona_asr.audio import AudioBuffer
from shona_asr.augment import AugmentPolicy
from shona_asr.autodiff import Tensor
from shona_asr.checkpoint import load_checkpoint, params_hash, save_checkpoint
from shona_asr.cli import main as cli_main
from shona_asr.corpusgen import GenConfig, generate_corpus
from shona_asr.ctc import ctc_forward_logprob, ctc_loss, min_frames
from shona_asr.decoder import beam_decode
from shona_asr.features import frame_count, mel_spectrogram
from shona_asr.lexicon import build_lexicon
from shona_asr.lm import LmConfig, TokenVocab, build_lm, lm_score, lm_train, perplexity
from shona_asr.manifest import split_corpus
from shona_asr.metrics import align, ser, wer
from shona_asr.optim import OptimizerConfig, OptimizerState
from shona_asr.phones import default_inventory
from shona_asr.train import TrainConfig, evaluate, train
from shona_asr.verify import TOLERANCE, run_gradient_suite

QUIET_AUGMENT = AugmentPolicy(speed_factors=[1.0], gain_db_range=(0.0, 0.0),
                              n_freq_masks=0, n_time_masks=0)


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _criterion(number, name):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\n[acceptance] criterion {number:2d} {name}: FAIL")
            raise
        with capsys.disabled():
            print(f"\n[acceptance] criterion {number:2d} {name}: PASS")

    return _criterion


# -- shared heavy fixtures ----------------------------------------------------

@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    """20-utterance corpus (vocab 10) trained until train PER hits zero."""
    corpus_dir = tmp_path_factory.mktemp("overfit_corpus")
    manifest = generate_corpus(GenConfig(seed=7, vocab_size=10, n_utterances=20), corpus_dir)
    cfg = TrainConfig(seed=3, epochs_max=150, patience=150, batch_size=4,
                      target_train_per=0.0, augment=QUIET_AUGMENT)
    started = time.time()
    result = train(cfg, manifest)
    return {"cfg": cfg, "manifest": manifest, "result": result,
            "elapsed_s": time.time() - started, "dir": corpus_dir}


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    """300-utterance corpus (vocab 50), 0.8/0.1/0.1, trained with patience 3."""
    corpus_dir = tmp_path_factory.mktemp("e2e_corpus")
    manifest = generate_corpus(GenConfig(seed=11, vocab_size=50, n_utterances=300), corpus_dir)
    cfg = TrainConfig(seed=5, epochs_max=25, patience=3, batch_size=4)
    result = train(cfg, manifest)
    return {"cfg": cfg, "manifest": manifest, "result": result, "dir": corpus_dir}


# -- criteria ------------------------------------------------------------------

def test_criterion_1_gradient_suite(announce):
    with announce(1, "gradient suite, 50 seeds per op under 1e-3"):
        started = time.time()
        results = run_gradient_suite(n_seeds=50)
        elapsed = time.time() - started
        for op_name, err in results.items():
            assert err < TOLERANCE, f"{op_name}: {err:.3e}"
        assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s"


def test_criterion_2_ctc_oracle(announce):
    with announce(2, "ctc loss equals exhaustive alignment enumeration"):
        started = time.time()
        rng = np.random.default_rng(2024)
        for n_classes in (2, 3, 4, 5):
            blank = n_classes - 1
            for t_frames in range(1, 7):
                grid = rng.uniform(0.05, 1.0, size=(t_frames, n_classes))
                grid /= grid.sum(axis=1, keepdims=True)
                log_grid = np.log(grid)
                for length in (1, 2, 3):
                    for target in itertools.product(range(blank), repeat=length):
                        want = brute_force_ctc_logprob(grid, target)
                        got = ctc_forward_logprob(log_grid, [list(target)])[0]
                        if want == -math.inf:
                            assert got == -math.inf
                        else:
                            assert abs(got - want) < 1e-6
                        if min_frames(list(target)) <= t_frames:
                            loss = ctc_loss(Tensor(log_grid), list(target))
                            assert abs(float(loss.data) + want) < 1e-6
                        else:
                            with pytest.raises(ValueError):
                                ctc_loss(Tensor(log_grid), list(target))
        assert time.time() - started < 60.0


def test_criterion_3_decoder_oracle(announce):
    with announce(3, "beam search at saturating width equals exhaustive decode"):
        rng = np.random.default_rng(77)
        inventory = default_inventory()
        vocab = TokenVocab.build(inventory.symbols(), "phone")
        pool = ["baba", "bana", "mhoro", "zvino", "pfuma", "dana", "ruva", "gudo", "tswanda"]
        for trial in range(100):
            words = sorted(rng.choice(pool, size=int(rng.integers(2, 6)), replace=False))
            lexicon = build_lexicon(list(words), inventory)
            lm = build_lm(vocab, LmConfig(embed_dim=8, lstm1_units=10, lstm2_units=8),
                          seed=trial % 5)
            t_frames = int(rng.integers(3, 9))
            grid = rng.uniform(0.02, 1.0, size=(t_frames, 55))
            grid /= grid.sum(axis=1, keepdims=True)
            lam = float(rng.choice([0.0, 0.5, 1.0]))
            log_grid = np.log(grid)
            want = exhaustive_decode(log_grid, lexicon, lm, vocab, lm_weight=lam, max_words=3)
            got = beam_decode(log_grid, lexicon, lm, vocab, lm_weight=lam, beam_width=8192)
            assert got.words == want.words, f"trial {trial}: {got.words} != {want.words}"
            assert abs(got.score - want.score) < 1e-6


def test_criterion_4_metric_oracle(announce):
    with announce(4, "alignment matches recursive edit-distance oracle"):
        rng = np.random.default_rng(4242)
        for _ in range(200):
            ref = [int(x) for x in rng.integers(0, 5, size=rng.integers(0, 9))]
            hyp = [int(x) for x in rng.integers(0, 5, size=rng.integers(0, 9))]
            assert align(ref, hyp).cost == recursive_edit_distance(ref, hyp)
        identical = [(["a", "b"], ["a", "b"]), (["c"], ["c"])]
        assert wer(identical) == 0.0
        for _ in range(50):
            pairs = []
            for _ in range(int(rng.integers(1, 8))):
                ref = [int(x) for x in rng.integers(0, 3, size=rng.integers(1, 6))]
                hyp = [int(x) for x in rng.integers(0, 3, size=rng.integers(0, 6))]
                pairs.append((ref, hyp))
            assert 0.0 <= ser(pairs) <= 1.0


def test_criterion_5_mfcc_oracle(announce):
    with announce(5, "mel filterbank matches naive DFT oracle; frame formula exact"):
        rng = np.random.default_rng(55)
        for _ in range(20):
            n = int(rng.integers(450, 1600))
            samples = rng.uniform(-1.0, 1.0, n)
            audio = AudioBuffer(samples, 16000)
            got = mel_spectrogram(audio)
            want = naive_mel_energies(samples, 16000, features.N_FFT, features.N_MELS, 0.0, 8000.0,
                                      400, 160, features.PRE_EMPHASIS)
            rms = float(np.sqrt(np.mean((got - want) ** 2)))
            assert rms < 1e-4, f"RMS {rms:.2e}"
        for _ in range(1000):
            n = int(rng.integers(400, 100000))
            assert frame_count(n, 400, 160) == 1 + (n - 400) // 160


def test_criterion_6_overfit_check(announce, overfit_run):
    with announce(6, "20-utterance overfit reaches train PER < 5% in 150 epochs"):
        result = overfit_run["result"]
        assert len(result.epoch_log) <= 150
        final_train_per = result.epoch_log[-1]["train_per"]
        assert final_train_per < 0.05, f"train PER {final_train_per:.3f}"
        assert overfit_run["elapsed_s"] < 600.0, f"took {overfit_run['elapsed_s']:.0f}s"


def test_fully_overfit_model_scores_zero_wer_on_train_split(overfit_run):
    cfg, result = overfit_run["cfg"], overfit_run["result"]
    train_split, _, _ = split_corpus(overfit_run["manifest"], cfg.split_ratios, cfg.seed)
    outcome = evaluate(result.checkpoint, train_split)
    assert outcome.report.wer == 0.0
    assert outcome.report.per == 0.0


def test_criterion_7_end_to_end_synthetic(announce, e2e_run):
    with announce(7, "end-to-end: LM-fused WER beats greedy and stays under 50%"):
        cfg, result = e2e_run["cfg"], e2e_run["result"]
        manifest = e2e_run["manifest"]
        assert len(manifest) >= 300
        _, _, test_split = split_corpus(manifest, cfg.split_ratios, cfg.seed)
        outcome = evaluate(result.checkpoint, test_split)
        assert outcome.report.wer < outcome.greedy_wer, (
            f"beam WER {outcome.report.wer:.4f} vs greedy {outcome.greedy_wer:.4f}")
        assert outcome.report.wer < 0.50
        assert result.stopped_early or result.best_epoch == len(result.epoch_log)
        assert result.best_hash == params_hash(result.checkpoint.tensors)


def test_criterion_8_determinism(announce, tmp_path, overfit_run):
    with announce(8, "two identical train runs produce bit-identical artifacts"):
        manifest_path = overfit_run["dir"] / "manifest.jsonl"
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({
            "seed": 9, "epochs_max": 3, "patience": 3,
            "augment": {"speed_factors": [0.9, 1.0, 1.1]},
        }))
        artifacts = []
        for tag in ("a", "b"):
            ckpt_path = tmp_path / f"run_{tag}.ckpt"
            report_path = tmp_path / f"report_{tag}.json"
            assert cli_main(["train", "--config", str(cfg_path),
                             "--manifest", str(manifest_path),
                             "--out", str(ckpt_path)]) == 0
            assert cli_main(["eval", "--ckpt", str(ckpt_path),
                             "--manifest", str(manifest_path),
                             "--split", "val", "--report", str(report_path)]) == 0
            artifacts.append((ckpt_path.read_bytes(), report_path.read_bytes()))
        assert artifacts[0][0] == artifacts[1][0], "checkpoints differ"
        assert artifacts[0][1] == artifacts[1][1], "metric reports differ"


def test_criterion_9_persistence(announce, tmp_path, overfit_run):
    with announce(9, "checkpoint round trip bit-exact; corruption exits 3"):
        ckpt = overfit_run["result"].checkpoint
        path_a, path_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, path_a)
        save_checkpoint(load_checkpoint(path_a), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        back = load_checkpoint(path_a)
        for name, arr in ckpt.tensors.items():
            assert np.array_equal(back.tensors[name], arr)
        blob = bytearray(path_a.read_bytes())
        blob[len(blob) // 3] ^= 0x01
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        wav = sorted((overfit_run["dir"] / "wav").glob("*.wav"))[0]
        assert cli_main(["decode", "--ckpt", str(bad), "--wav", str(wav)]) == 3


def test_criterion_10_lm_properties(announce):
    with announce(10, "LM: uniform perplexity, non-positive scores, overfit"):
        vocab = TokenVocab.build(default_inventory().symbols(), "phone")
        assert len(vocab) == 58
        uniform = build_lm(vocab, LmConfig(embed_dim=8, lstm1_units=8, lstm2_units=8), seed=0)
        uniform["out.W"].data[:] = 0.0
        uniform["out.b"].data[:] = 0.0
        corpus = [["b", "a", "<wb>", "mh", "o"], ["zv", "i"]]
        assert abs(perplexity(uniform, corpus, vocab) - 58.0) < 1e-3

        rng = np.random.default_rng(1)
        model = build_lm(vocab, LmConfig(embed_dim=16, lstm1_units=32, lstm2_units=24), seed=2)
        symbols = default_inventory().symbols()
        for _ in range(25):
            tokens = [symbols[int(rng.integers(0, 54))]
                      for _ in range(int(rng.integers(1, 9)))]
            assert lm_score(model, tokens, vocab) <= 0.0

        sentence = ["b", "a", "b", "a", "<wb>", "mh", "o", "r", "o"]
        trace = lm_train(model, [sentence], vocab, epochs=200,
                         optimizer=OptimizerState(OptimizerConfig(kind="adam", learning_rate=1e-2)))
        assert all(math.isfinite(v) for v in trace)
        assert trace[-1] < 0.1, f"final per-token loss {trace[-1]:.3f}"
