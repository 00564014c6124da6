import dataclasses
import functools
import importlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import types
import wave
from pathlib import Path

import numpy as np
import pytest

from conftest import params_as
from oracles import im2col_conv2d, masked_max_pool2d
from shona_asr import autodiff as ad
from shona_asr.acoustic import (AcousticConfig, acoustic_forward, build_acoustic_model,
                                output_frames)
from shona_asr.audio import AudioBuffer, load_wav, resample_linear, save_wav
from shona_asr.augment import AugmentPolicy, augment_audio, spec_augment
from shona_asr.checkpoint import load_checkpoint, params_hash, save_checkpoint
from shona_asr.corpusgen import GenConfig, generate_corpus
from shona_asr.ctc import ctc_forward_logprob, ctc_greedy_decode, ctc_loss, min_frames
from shona_asr.errors import DataError, VerificationError, WorkerError
from shona_asr.features import extract_features
from shona_asr.lm import LmConfig, TokenVocab, build_lm, corpus_loss, lm_train, sentence_loss
from shona_asr.manifest import split_corpus
from shona_asr.metrics import normalize_text, per
from shona_asr.optim import OptimizerConfig, OptimizerState, optimizer_step
from shona_asr.phones import default_inventory
from shona_asr.train import (EarlyStopper, TrainConfig, _config_from_dict, evaluate,
                             restore_models, train, warm_start)

SRC = Path(__file__).resolve().parent.parent / "src"
QUIET_AUGMENT = dict(speed_factors=[1.0], gain_db_range=(0.0, 0.0),
                     n_freq_masks=0, n_time_masks=0)


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_corpus")
    return generate_corpus(GenConfig(seed=7, vocab_size=8, n_utterances=12), out)


@pytest.fixture(scope="module")
def tiny_result(tiny_corpus):
    cfg = TrainConfig(seed=3, epochs_max=4, patience=4, batch_size=4,
                      augment=AugmentPolicy(**QUIET_AUGMENT))
    return cfg, train(cfg, tiny_corpus)


def test_early_stopper_patience_arithmetic():
    # trace 0.9, then 0.5 forever, patience 10: stop after epoch 12, best 2
    stopper = EarlyStopper(patience=10)
    stopped_at = None
    for epoch in range(1, 100):
        value = 0.9 if epoch == 1 else 0.5
        stopper.update(value, epoch)
        if stopper.should_stop:
            stopped_at = epoch
            break
    assert stopped_at == 12
    assert stopper.best_epoch == 2
    assert stopper.best_value == 0.5


def test_early_stopper_never_triggers_on_monotone_improvement():
    stopper = EarlyStopper(patience=10)
    for epoch in range(1, 51):
        stopper.update(1.0 / epoch, epoch)
        assert not stopper.should_stop
    assert stopper.best_epoch == 50


def test_config_json_round_trip():
    cfg = TrainConfig(seed=9, epochs_max=5, patience=2,
                      augment=AugmentPolicy(**QUIET_AUGMENT),
                      acoustic=AcousticConfig(conv1_filters=4))
    back = TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg
    gen = GenConfig(seed=4, words_per_sentence=(3, 5), syllables_per_word=(2, 3))
    back = _config_from_dict(GenConfig, json.loads(json.dumps(dataclasses.asdict(gen))), "config")
    assert back == gen


def test_config_rejects_unknown_keys():
    with pytest.raises(DataError, match="unknown keys"):
        TrainConfig.from_dict({"seed": 1, "bogus": 2})
    with pytest.raises(DataError, match="config.acoustic"):
        TrainConfig.from_dict({"acoustic": {"n_layers": 3}})


@pytest.mark.parametrize("obj, message", [
    ({"x" * 5000: 1}, f"config: unknown keys (1), the first '{'x' * 40}'... (5000 characters)"),
    ({"seed": 1, "zz": 2, "bogus": 3}, "config: unknown keys (2), the first 'bogus'"),
    ({"lm": {"y" * 5000: 1}},
     f"config.lm: unknown keys (1), the first '{'y' * 40}'... (5000 characters)"),
], ids=["one_long_key", "two_keys", "long_nested_key"])
def test_unknown_keys_error_is_short_whatever_the_keys(obj, message):
    # every unknown key used to be printed in full, a 5,025-character line for one long key
    with pytest.raises(DataError) as info:
        TrainConfig.from_dict(obj)
    assert str(info.value) == message
    assert len(str(info.value)) < 200


def test_config_validates_values():
    with pytest.raises(DataError):
        TrainConfig.from_dict({"patience": 0})
    with pytest.raises(DataError):
        TrainConfig.from_dict({"epochs_max": 0})
    with pytest.raises(DataError):
        TrainConfig.from_dict({"split_ratios": [0.5, 0.2, 0.2]})


@pytest.mark.parametrize("obj, message", [
    ({"granularity": "words"}, "config: granularity must be one of ('phone', 'word'), got 'words'"),
    ({"batch_size": 0}, "config: batch_size must be >= 1, got 0"),
    ({"decode": {"beam_width": 0}}, "config.decode: beam_width must be >= 1, got 0"),
    ({"decode": {"lm_weight": math.nan}}, "config.decode: lm_weight must be finite, got nan"),
    ({"decode": {"word_bonus": -math.inf}}, "config.decode: word_bonus must be finite, got -inf"),
    ({"acoustic": {"dense_units": 0}}, "config.acoustic: dense_units must be >= 1, got 0"),
    ({"acoustic": {"kernel_size": 4}}, "config.acoustic: kernel_size must be odd, got 4"),
    ({"acoustic": {"kernel_size": 0}}, "config.acoustic: kernel_size must be >= 1, got 0"),
    ({"acoustic": {"conv1_filters": 0}}, "config.acoustic: conv1_filters must be >= 1, got 0"),
    ({"acoustic": {"conv2_filters": -3}}, "config.acoustic: conv2_filters must be >= 1, got -3"),
    ({"lm": {"embed_dim": 0}}, "config.lm: embed_dim must be >= 1, got 0"),
    ({"lm": {"lstm1_units": 0}}, "config.lm: lstm1_units must be >= 1, got 0"),
    ({"lm": {"lstm2_units": -1}}, "config.lm: lstm2_units must be >= 1, got -1"),
    ({"split_ratios": [1.2, -0.1, -0.1]},
     "config: split ratios must not be negative, got (1.2, -0.1, -0.1)"),
], ids=["unknown_granularity", "batch_size_0", "beam_width_0", "nan_lm_weight",
        "infinite_word_bonus", "dense_units_0", "kernel_size_even", "kernel_size_0",
        "conv1_filters_0", "negative_conv2_filters", "embed_dim_0", "lstm1_units_0",
        "negative_lstm2_units", "negative_split_ratio"])
def test_config_rejects_values_that_load_and_then_fail_late(obj, message):
    # each of these loaded; then decode rejected the granularity, the beam or the NaN
    # (in the checkpoint's JSON), batch 0 failed at the first update, a zero dense
    # width divided by zero in the attention layer, an even or zero kernel and a
    # negative LSTM width failed at the first forward pass, a zero width trained a
    # degenerate model, or a negative split ratio failed in split_corpus
    with pytest.raises(DataError) as info:
        TrainConfig.from_dict(obj)
    assert str(info.value) == message


@pytest.mark.parametrize("obj, message", [
    ({"seed": json.loads("[" * 900 + "]" * 900)}, "config.seed: expected int, got list"),
    ({"lexicon_words": "ku" * 5000}, "config.lexicon_words: expected a list, got str"),
    ({"lexicon_words": list(range(5000))}, "config.lexicon_words[0]: expected str, got int"),
    ({"augment": {"speed_factors": {"x" * 5000: 1}}},
     "config.augment.speed_factors: expected a list, got dict"),
], ids=["nested_900_deep", "long_string_for_a_list", "long_list_of_ints", "long_object_for_a_list"])
def test_config_type_error_names_the_field_and_type_in_a_short_message(obj, message):
    # the whole offending value used to be printed, an 1,800-character line at depth 900
    with pytest.raises(DataError) as info:
        TrainConfig.from_dict(obj)
    assert str(info.value) == message
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("augment", [{"gain_db_range": [-30.0, 30.0]}, {"gain_db_range": [6.0, -6.0]},
                                     {"speed_factors": []}, {"freq_mask_max": -1},
                                     {"n_time_masks": -2}, {"freq_mask_max": 39},
                                     {"n_freq_masks": 0, "freq_mask_max": 39}],
                         ids=["gain_outside_20db", "gain_range_reversed", "no_speed_factors",
                              "negative_freq_mask_max", "negative_time_masks",
                              "freq_mask_as_wide_as_features", "unused_freq_mask_too_wide"])
def test_config_rejects_augment_policy_that_fails_or_misbehaves_in_training(augment):
    # each of these passed at load time and then raised mid-training or was silently ignored
    with pytest.raises(DataError, match="config.augment"):
        TrainConfig.from_dict({"augment": augment})


@pytest.mark.parametrize("field, optimizer", [
    ("optimizer", {"kind": "sgdd"}), ("optimizer", {"learning_rate": -0.1}),
    ("optimizer", {"learning_rate": 0.0}), ("optimizer", {"learning_rate": math.inf}),
    ("lm_optimizer", {"learning_rate": math.nan}), ("lm_optimizer", {"beta1": 1.0}),
    ("optimizer", {"beta2": -0.1}), ("lm_optimizer", {"eps": 0.0})],
    ids=["unknown_kind", "negative_lr", "zero_lr", "infinite_lr", "nan_lr", "beta1_one",
         "negative_beta2", "zero_eps"])
def test_config_rejects_optimizer_settings_that_fail_or_misbehave_in_training(field, optimizer):
    # each of these loaded; then an unknown kind raised inside train(), a negative rate
    # trained uphill and beta1 = 1 divided by 1 - 1**n = 0
    with pytest.raises(DataError, match=f"config.{field}"):
        TrainConfig.from_dict({field: optimizer})


def test_train_produces_checkpoint_and_log(tiny_result):
    cfg, result = tiny_result
    assert len(result.epoch_log) == 4
    for entry in result.epoch_log:
        for key in ("train_ctc", "train_lm_ce", "val_ctc", "val_lm_ce", "val_per"):
            assert np.isfinite(entry[key])
    ckpt = result.checkpoint
    assert ckpt.epoch == result.best_epoch
    assert any(name.startswith("acoustic.") for name in ckpt.tensors)
    assert any(name.startswith("lm.") for name in ckpt.tensors)
    assert ckpt.config["lexicon_words"]
    assert result.best_hash == params_hash(ckpt.tensors)


def test_train_restores_best_epoch_parameters(tiny_result):
    _, result = tiny_result
    best = min(result.epoch_log, key=lambda e: e["val_per"])
    assert result.best_epoch == best["epoch"]


def test_evaluate_round_trips_through_checkpoint_file(tiny_result, tiny_corpus, tmp_path):
    cfg, result = tiny_result
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(result.checkpoint, path)
    _, val, _ = split_corpus(tiny_corpus, cfg.split_ratios, cfg.seed)
    res = evaluate(load_checkpoint(path), val, beam_width=4)
    assert 0.0 <= res.report.ser <= 1.0
    assert res.report.n_utts == len(val)
    assert set(res.to_dict()) >= {"wer", "per", "ser", "word_accuracy",
                                  "sentence_accuracy", "greedy_per", "greedy_wer"}


def test_evaluate_empty_split_rejected(tiny_result):
    _, result = tiny_result
    from shona_asr.manifest import CorpusManifest
    with pytest.raises(DataError):
        evaluate(result.checkpoint, CorpusManifest([]))


def test_train_aborts_when_no_transcript_is_usable(tmp_path):
    import json as _json
    from test_audio import write_pcm
    records = []
    for i in range(10):
        name = f"u{i}.wav"
        write_pcm(tmp_path / name, np.zeros(16000))
        records.append({"id": f"u{i}", "audio": name, "text": "qqx xxq"})
    with open(tmp_path / "manifest.jsonl", "w") as fh:
        for rec in records:
            fh.write(_json.dumps(rec) + "\n")
    from shona_asr.manifest import load_manifest
    manifest = load_manifest(tmp_path / "manifest.jsonl")
    with pytest.raises(DataError):
        train(TrainConfig(seed=0, epochs_max=1, patience=1), manifest)


# -- warm start ---------------------------------------------------------------

def vocab_for(inv):
    return TokenVocab.build(inv.symbols(), "phone")


def test_warm_start_identical_architecture_copies_everything(tiny_result):
    _, result = tiny_result
    ckpt = result.checkpoint
    inv = default_inventory()
    ws = warm_start(ckpt, len(inv), TokenVocab(list(ckpt.vocab), "phone"),
                    AcousticConfig(), LmConfig())
    assert ws.reinitialized == []
    for name, t in ws.acoustic.items():
        assert np.allclose(t.data, ckpt.tensors["acoustic." + name], atol=1e-7)


def test_restore_models_keeps_the_checkpoint_float32_read_only(tiny_result):
    _, result = tiny_result
    ckpt = result.checkpoint
    writeable = {name: arr.flags.writeable for name, arr in ckpt.tensors.items()}
    _, _, _, acoustic, lm, _ = restore_models(ckpt)
    for prefix, params in (("acoustic.", acoustic), ("lm.", lm)):
        for name, t in params.items():
            assert t.data.dtype == np.float32
            assert np.array_equal(t.data, ckpt.tensors[prefix + name])
            assert not t.data.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        acoustic["out.b"].data[0] = 1.0
    assert {name: arr.flags.writeable for name, arr in ckpt.tensors.items()} == writeable


def test_evaluate_of_a_trained_checkpoint_prepares_its_search_lm_once(tiny_result, tiny_corpus,
                                                                      monkeypatch):
    # the best epoch's tensors are read-only, so the split's decodes share one preparation
    from shona_asr import decoder

    cfg, result = tiny_result
    assert not any(arr.flags.writeable for arr in result.checkpoint.tensors.values())
    built = []

    class Counting(decoder._SearchLm):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(decoder, "_SearchLm", Counting)
    train_split, _, _ = split_corpus(tiny_corpus, cfg.split_ratios, cfg.seed)
    res = evaluate(result.checkpoint, train_split, beam_width=4)
    assert res.report.n_utts > 1 and len(built) == 1


def test_restore_models_draws_no_model(tiny_result, monkeypatch):
    ckpt = tiny_result[1].checkpoint
    train_mod = importlib.import_module("shona_asr.train")

    def refuse(*args, **kwargs):
        raise AssertionError("restore_models drew a model")

    for owner, name in ((train_mod, "build_acoustic_model"), (train_mod, "build_lm"),
                        (train_mod, "warm_start"), (ad.Parameters, "draw"),
                        (np.random, "default_rng")):
        monkeypatch.setattr(owner, name, refuse)
    _, _, _, acoustic, lm, _ = restore_models(ckpt)
    restored = {prefix + name: t.data for prefix, params in (("acoustic.", acoustic), ("lm.", lm))
                for name, t in params.items()}
    assert set(restored) == set(ckpt.tensors)
    for name, data in restored.items():
        assert data.dtype == np.float32 and not data.flags.writeable
        assert np.shares_memory(data, ckpt.tensors[name])


def test_warm_start_and_training_run_in_float32(tiny_result, tiny_corpus, tmp_path, monkeypatch):
    cfg, result = tiny_result
    ckpt = result.checkpoint
    ws = warm_start(ckpt, len(default_inventory()), TokenVocab(list(ckpt.vocab), "phone"),
                    AcousticConfig(), LmConfig())
    dtypes = {t.data.dtype for params in (ws.acoustic, ws.lm) for _, t in params.items()}
    assert dtypes == {np.dtype(np.float32)}
    path = tmp_path / "warm.ckpt"
    save_checkpoint(ckpt, path)

    seen = set()

    def recording(opt, params):
        seen.update(a.dtype for _, t in params.items() for a in (t.data, t.grad) if a is not None)
        optimizer_step(opt, params)

    for module in ("shona_asr.train", "shona_asr.lm"):
        monkeypatch.setattr(importlib.import_module(module), "optimizer_step", recording)
    one_epoch = dataclasses.replace(cfg, epochs_max=1, patience=1)
    for run in (one_epoch, dataclasses.replace(one_epoch, warm_start_path=str(path))):
        seen.clear()
        train(run, tiny_corpus)
        assert seen == {np.dtype(np.float32)}


def test_float32_parameters_keep_float32_gradients(rng):
    acoustic = params_as(build_acoustic_model(AcousticConfig(), 54, seed=1), np.float32)
    feats = rng.normal(size=(40, 39))
    ad.backward(ctc_loss(acoustic_forward(acoustic, feats), [3, 7, 7, 12]))
    vocab = TokenVocab.build(default_inventory().symbols(), "phone")
    lm = params_as(build_lm(vocab, LmConfig(), seed=2), np.float32)
    ad.backward(sentence_loss(lm, [5, 9, 2, 14, 5], vocab))
    for params in (acoustic, lm):
        assert {t.grad.dtype for _, t in params.items()} == {np.dtype(np.float32)}
    opt = OptimizerState()
    optimizer_step(opt, acoustic)
    assert opt.scratch.dtype == np.float32
    assert {m.dtype for pair in opt.moments.values() for m in pair} == {np.dtype(np.float32)}
    xs = ad.Tensor(rng.normal(size=(6, 64)).astype(np.float32), requires_grad=True)
    hs = ad.lstm_layer(xs, lm["lstm1.W_ih"], lm["lstm1.W_hh"], lm["lstm1.b"])
    assert hs.data.dtype == np.float32


def test_train_freezes_the_configured_warm_start_tensors(tiny_result, tiny_corpus, tmp_path):
    cfg, result = tiny_result
    path = tmp_path / "warm.ckpt"
    save_checkpoint(result.checkpoint, path)
    warm = load_checkpoint(path)
    frozen = train(dataclasses.replace(cfg, epochs_max=1, patience=1, warm_start_path=str(path),
                                       freeze=("acoustic.conv1",)), tiny_corpus).checkpoint
    conv1 = [name for name in warm.tensors if name.startswith("acoustic.conv1.")]
    assert conv1
    for name in conv1:
        assert np.array_equal(frozen.tensors[name], warm.tensors[name])
    assert not np.array_equal(frozen.tensors["acoustic.out.W"], warm.tensors["acoustic.out.W"])


def test_frozen_tensors_get_no_gradient(tiny_result, tiny_corpus, monkeypatch):
    cfg = dataclasses.replace(tiny_result[0], epochs_max=1, patience=1,
                              freeze=("acoustic.conv1", "lm.embed"))
    train_mod = importlib.import_module("shona_asr.train")
    grads = {}

    def recording_step(state, params):
        for name, t in params.items():
            grads.setdefault(name, set()).add(t.grad is None)
        optimizer_step(state, params)

    monkeypatch.setattr(train_mod, "optimizer_step", recording_step)
    train(cfg, tiny_corpus)
    assert grads["conv1.kernels"] == grads["conv1.bias"] == {True}
    assert grads["conv2.kernels"] == grads["out.W"] == {False}


@pytest.mark.parametrize("freeze", [("conv1",), ("acoustic.conv1", "lm.embedding")])
def test_freeze_entry_that_matches_no_tensor_is_a_data_error(tiny_result, tiny_corpus, freeze):
    # "conv1" lacks its model prefix; before, it trained with nothing frozen
    cfg = dataclasses.replace(tiny_result[0], epochs_max=1, patience=1, freeze=freeze)
    with pytest.raises(DataError, match=f"config.freeze: '{freeze[-1]}' matches no tensor"):
        train(cfg, tiny_corpus)


def count_calls_by_process(monkeypatch, module: str, name: str) -> np.ndarray:
    """Replace `name` of `module` by a wrapper that counts its calls, as bench/tracing.py does.

    The wrapper goes into every loaded `shona_asr` module that binds the
    function. The counts are a shared array, [in this process, in the one
    process it forks that calls the function], so both processes' calls
    are seen.
    """
    original = getattr(importlib.import_module(module), name)
    counts = importlib.import_module("shona_asr.train")._shared_arrays([np.zeros(2, np.int64)])[0]
    owner = os.getpid()

    @functools.wraps(original)
    def counting(*args, **kwargs):
        counts[int(os.getpid() != owner)] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "shona_asr" or mod_name.startswith("shona_asr."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return counts


def test_identity_policy_from_lists_extracts_features_once_per_utterance(tiny_result,
                                                                        tiny_corpus, monkeypatch):
    policy = AugmentPolicy(speed_factors=[1.0], gain_db_range=[0.0, 0.0],
                           n_freq_masks=0, n_time_masks=0)
    assert policy.is_identity()
    cfg = dataclasses.replace(tiny_result[0], epochs_max=2, patience=2, augment=policy)
    train_mod = importlib.import_module("shona_asr.train")
    calls = []
    monkeypatch.setattr(train_mod, "extract_features",
                        lambda audio: calls.append(audio) or extract_features(audio))
    train(cfg, tiny_corpus)
    train_m, val_m, _ = split_corpus(tiny_corpus, cfg.split_ratios, cfg.seed)
    assert len(calls) == len(train_m) + len(val_m)


@pytest.mark.parametrize("target", [None, 0.0], ids=["no-target", "target"])
def test_augmenting_policy_extracts_unaugmented_train_features_only_for_a_target(
        tiny_result, tiny_corpus, monkeypatch, target):
    cfg = dataclasses.replace(tiny_result[0], epochs_max=2, patience=2, augment=AugmentPolicy(),
                              target_train_per=target)
    calls = count_calls_by_process(monkeypatch, "shona_asr.features", "extract_features")
    result = train(cfg, tiny_corpus)
    train_m, val_m, _ = split_corpus(tiny_corpus, cfg.split_ratios, cfg.seed)
    up_front = len(val_m) + (len(train_m) if target is not None else 0)
    assert calls.sum() == up_front + len(result.epoch_log) * len(train_m)
    assert calls[1] > 0  # the acoustic worker extracts its utterances' features


def test_restored_models_build_no_graph(tiny_result, tiny_corpus):
    _, result = tiny_result
    cfg, _, _, acoustic, lm, _ = restore_models(result.checkpoint)
    assert not any(t.requires_grad for params in (acoustic, lm) for _, t in params.items())
    feats = extract_features(load_wav(tiny_corpus.records[0].audio))
    out = acoustic_forward(acoustic, feats, cfg.acoustic)
    assert not out.requires_grad
    assert out._parents == () and out._backward is None


def test_warm_start_mismatched_output_reinitialized(tiny_result):
    _, result = tiny_result
    ckpt = result.checkpoint
    small_vocab = TokenVocab.build(["a", "b", "c"], "phone")  # smaller LM vocab
    ws = warm_start(ckpt, 40, small_vocab, AcousticConfig(), LmConfig())
    assert "acoustic.out.W" in ws.reinitialized
    assert "lm.out.W" in ws.reinitialized
    for name, t in ws.acoustic.items():
        if not name.startswith("out."):
            assert np.allclose(t.data, ckpt.tensors["acoustic." + name], atol=1e-7)


def test_warm_start_incompatible_hidden_shapes_rejected(tiny_result):
    _, result = tiny_result
    with pytest.raises(DataError, match=r"hidden-layer .*; the checkpoint's acoustic config has "
                                        r"conv1_filters=32 \(this model: conv1_filters=16\)"):
        warm_start(result.checkpoint, 54, TokenVocab(list(result.checkpoint.vocab), "phone"),
                   AcousticConfig(conv1_filters=16), LmConfig())


def test_warm_start_lm_widths_must_be_the_checkpoints(tiny_result):
    _, result = tiny_result
    ckpt = result.checkpoint
    vocab = TokenVocab(list(ckpt.vocab), "phone")
    saved = LmConfig(**ckpt.config["lm"])
    wider = dataclasses.replace(saved, lstm1_units=2 * saved.lstm1_units)
    with pytest.raises(DataError, match=rf"lm\.lstm1\.W_ih: .*; the checkpoint's lm config has "
                                        rf"lstm1_units={saved.lstm1_units} "
                                        rf"\(this model: lstm1_units={wider.lstm1_units}\)"):
        warm_start(ckpt, len(default_inventory()), vocab, AcousticConfig(), wider)
    ws = warm_start(ckpt, len(default_inventory()), vocab, AcousticConfig(), saved)
    assert not [name for name in ws.reinitialized if name.startswith("lm.")]
    for name, t in ws.lm.items():
        assert t.data.tobytes() == ckpt.tensors["lm." + name].tobytes(), name


def test_frozen_tensors_unchanged_after_optimizer_steps(tiny_result):
    _, result = tiny_result
    ckpt = result.checkpoint
    inv = default_inventory()
    ws = warm_start(ckpt, len(inv), TokenVocab(list(ckpt.vocab), "phone"),
                    AcousticConfig(), LmConfig())
    for name, t in ws.acoustic.items():
        t.requires_grad = not name.startswith("conv1.")
    opt = OptimizerState(OptimizerConfig(kind="sgd", learning_rate=0.1))
    before = {n: t.data.copy() for n, t in ws.acoustic.items()}
    for _ in range(5):
        for name, t in ws.acoustic.items():
            t.grad = np.ones_like(t.data)
        optimizer_step(opt, ws.acoustic)
    for name, t in ws.acoustic.items():
        if name.startswith("conv1."):
            assert np.array_equal(t.data, before[name])
        else:
            assert not np.array_equal(t.data, before[name])


def poison_first_ctc_loss(monkeypatch, poison):
    """Make train's first ctc_loss call in this process return poison(loss).

    That call scores training utterance 0, which this process always runs;
    every other call, the acoustic worker's included, stays real.
    """
    calls, owner = [], os.getpid()

    def patched(grid, target):
        loss = ctc_loss(grid, target)
        if os.getpid() != owner:
            return loss
        calls.append(target)
        return poison(loss) if len(calls) == 1 else loss

    monkeypatch.setattr(importlib.import_module("shona_asr.train"), "ctc_loss", patched)
    return calls


def test_non_finite_loss_skips_its_backward_pass(tiny_result, tiny_corpus, monkeypatch):
    # a NaN loss whose backward would turn every gradient into NaN
    cfg = dataclasses.replace(tiny_result[0], epochs_max=1, patience=1)
    clean = train(cfg, tiny_corpus)
    calls = poison_first_ctc_loss(monkeypatch, lambda loss: ad.scale(loss, math.nan))
    result = train(cfg, tiny_corpus)
    assert calls
    assert result.epoch_log[0]["skipped"] == clean.epoch_log[0]["skipped"] + 1
    assert math.isfinite(result.epoch_log[0]["train_ctc"])
    assert all(np.isfinite(t).all() for t in result.checkpoint.tensors.values())


def test_non_finite_gradient_drops_the_update_and_clears_the_grads(tiny_result, tiny_corpus,
                                                                  monkeypatch):
    # a finite loss whose backward turns its batch's gradients into NaN
    cfg = dataclasses.replace(tiny_result[0], epochs_max=1, patience=1, batch_size=2)
    clean = train(cfg, tiny_corpus)
    poison_first_ctc_loss(monkeypatch, lambda loss: ad._node(
        loss.data, (loss,), lambda g: ad._accumulate(loss, g * math.nan)))
    result = train(cfg, tiny_corpus)
    # only the first batch's update is lost; a NaN left in the grads would spoil every later one
    assert result.epoch_log[0]["skipped"] == clean.epoch_log[0]["skipped"] + 2
    assert math.isfinite(result.epoch_log[0]["train_ctc"])
    assert all(np.isfinite(t).all() for t in result.checkpoint.tensors.values())
    assert result.best_hash != clean.best_hash


def test_non_finite_losses_in_most_utterances_raise_verification_error(tiny_result, tiny_corpus,
                                                                        monkeypatch):
    monkeypatch.setattr(importlib.import_module("shona_asr.train"), "ctc_loss",
                        lambda grid, target: ad.scale(ctc_loss(grid, target), math.nan))
    with pytest.raises(VerificationError, match="non-finite"):
        train(dataclasses.replace(tiny_result[0], epochs_max=1, patience=1), tiny_corpus)


# -- the LM training process ---------------------------------------------------

def test_lm_epochs_and_tensors_equal_an_in_process_replay(tiny_result, tiny_corpus):
    # the forked LM process runs the same lm_train/corpus_loss calls as one process would
    cfg, result = tiny_result
    train_mod = importlib.import_module("shona_asr.train")
    ckpt = result.checkpoint
    lexicon = train_mod.build_lexicon(ckpt.config["lexicon_words"], default_inventory())
    vocab = TokenVocab(list(ckpt.vocab), "phone")
    train_m, val_m, _ = split_corpus(tiny_corpus, cfg.split_ratios, cfg.seed)
    sentences = [train_mod._lm_sentences(train_mod._prepare_utterances(m, lexicon)[0], lexicon,
                                         "phone") for m in (train_m, val_m)]
    lm_seed = int(np.random.SeedSequence(cfg.seed).spawn(2)[1].generate_state(1)[0])
    lm = build_lm(vocab, cfg.lm, lm_seed)
    train_mod._to_float32(lm)
    opt = OptimizerState(cfg.lm_optimizer)
    for entry in result.epoch_log:
        assert entry["train_lm_ce"] == lm_train(lm, sentences[0], vocab, 1, optimizer=opt)[0]
        assert entry["val_lm_ce"] == corpus_loss(lm, sentences[1], vocab)
        if entry["epoch"] == result.best_epoch:
            best = {"lm." + name: t.data.copy() for name, t in lm.items()}
    assert set(best) == {name for name in ckpt.tensors if name.startswith("lm.")}
    for name, data in best.items():
        assert data.dtype == ckpt.tensors[name].dtype
        assert np.array_equal(data, ckpt.tensors[name])


def test_an_error_in_the_lm_process_is_raised_by_train(tiny_result, tiny_corpus, monkeypatch):
    def failing(*args, **kwargs):
        raise DataError("sentence 3 holds an unknown token")

    monkeypatch.setattr(importlib.import_module("shona_asr.train"), "lm_train", failing)
    with pytest.raises(DataError) as caught:
        train(dataclasses.replace(tiny_result[0], epochs_max=2, patience=2), tiny_corpus)
    assert str(caught.value) == "sentence 3 holds an unknown token"
    assert "in the LM training process" in "\n".join(caught.value.__notes__)
    assert multiprocessing.active_children() == []


def test_an_lm_process_that_dies_without_answering_is_an_error(tiny_result, tiny_corpus,
                                                               monkeypatch):
    monkeypatch.setattr(importlib.import_module("shona_asr.train"), "lm_train",
                        lambda *args, **kwargs: os._exit(7))
    with pytest.raises(WorkerError, match="exited with code 7 without answering"):
        train(dataclasses.replace(tiny_result[0], epochs_max=2, patience=2), tiny_corpus)
    assert multiprocessing.active_children() == []


def test_replaced_lm_code_trains_the_lm_in_this_process(tiny_result, tiny_corpus, monkeypatch):
    # a tracer's wrapper records only the calls made in the process that installed it
    lm_mod = importlib.import_module("shona_asr.lm")
    cfg = dataclasses.replace(tiny_result[0], epochs_max=2, patience=2)
    forked = train(cfg, tiny_corpus)
    callers = []

    def recording(*args, **kwargs):
        callers.append(os.getpid())
        return sentence_loss(*args, **kwargs)

    monkeypatch.setattr(lm_mod, "sentence_loss", recording)
    in_process = train(cfg, tiny_corpus)
    assert callers and set(callers) == {os.getpid()}
    assert in_process.epoch_log == forked.epoch_log
    assert in_process.best_hash == forked.best_hash


def test_training_with_the_reference_kernels_gives_the_same_bits(tmp_path, monkeypatch):
    # conv2d and max_pool2d against their earlier forms, through a default-augmented
    # run, in both acoustic processes; replacing autodiff functions also moves the
    # LM into this process, which gives the same results by design
    corpus = generate_corpus(GenConfig(seed=7, vocab_size=10, n_utterances=12), tmp_path)
    cfg = TrainConfig(seed=3, epochs_max=2, patience=2)
    fast = train(cfg, corpus)
    monkeypatch.setattr(ad, "conv2d", im2col_conv2d)
    monkeypatch.setattr(ad, "max_pool2d", masked_max_pool2d)
    reference = train(cfg, corpus)
    assert reference.epoch_log == fast.epoch_log
    assert reference.best_hash == fast.best_hash


@pytest.fixture
def workers(monkeypatch):
    """The names of the worker processes `train` forks, and of each request sent to one."""
    train_mod = importlib.import_module("shona_asr.train")
    seen = types.SimpleNamespace(forked=[], requests=[])

    class Recording(train_mod._Worker):
        def __init__(self, name, serve, fork=True):
            super().__init__(name, serve, fork)
            self.fork = fork
            if fork:
                seen.forked.append(name)

        def submit(self, *request):
            if self.fork:
                seen.requests.append(self.name)
            super().submit(*request)

    monkeypatch.setattr(train_mod, "_Worker", Recording)
    return seen


@pytest.mark.parametrize("ending", ["epochs_max", "early_stop", "target", "verification_error"])
def test_no_process_outlives_train(tiny_result, tiny_corpus, monkeypatch, workers, ending):
    train_mod = importlib.import_module("shona_asr.train")
    cfg = dataclasses.replace(tiny_result[0], epochs_max=3, patience=3)
    if ending == "early_stop":
        monkeypatch.setattr(train_mod, "per", lambda pairs: 0.5)  # never improves after epoch 1
        cfg = dataclasses.replace(cfg, patience=1)
    elif ending == "target":
        cfg = dataclasses.replace(cfg, target_train_per=100.0)
    elif ending == "verification_error":
        monkeypatch.setattr(train_mod, "ctc_loss",
                            lambda grid, target: ad.scale(ctc_loss(grid, target), math.nan))
    if ending == "verification_error":
        with pytest.raises(VerificationError):
            train(cfg, tiny_corpus)
    else:
        result = train(cfg, tiny_corpus)
        assert len(result.epoch_log) == {"epochs_max": 3, "early_stop": 2, "target": 1}[ending]
        assert result.stopped_early == (ending == "early_stop")
    # a replaced ctc_loss leaves the acoustic worker forked
    assert workers.forked == ["LM training", "acoustic training"]
    assert multiprocessing.active_children() == []


# -- the acoustic worker -------------------------------------------------------

def corpus_with_replaced_audio(tmp_path, cfg, positions, samples, val_positions=()):
    """A corpus whose training utterances at `positions` (in training order) hold `samples`.

    So do its validation utterances at `val_positions`.
    """
    corpus = generate_corpus(GenConfig(seed=7, vocab_size=8, n_utterances=16), tmp_path)
    train_m, val_m, _ = split_corpus(corpus, cfg.split_ratios, cfg.seed)
    for records, at in ((train_m.records, positions), (val_m.records, val_positions)):
        for i in at:
            save_wav(records[i].audio, AudioBuffer(samples(load_wav(records[i].audio)), 16000))
    return corpus


def a_third(audio):
    """The first third of the audio, which leaves too few frames for the utterance's phones."""
    return audio.samples[:len(audio.samples) // 3]


@pytest.mark.parametrize("batch_size", [3, 4])
def test_parallel_and_serial_schedules_give_the_same_bytes(tmp_path, monkeypatch, workers,
                                                           batch_size):
    # the serial schedule runs the acoustic worker's share in this process, after this
    # process's share of the same group, with the pending batch's gradients set aside
    # meanwhile as the forked worker's own are; training positions 2 and 5 keep a third
    # of their audio, so 2 falls to the worker in the first batch and 5 to this process
    cfg = TrainConfig(seed=3, epochs_max=2, patience=2, batch_size=batch_size)
    corpus = corpus_with_replaced_audio(tmp_path, cfg, [2, 5], a_third)
    parallel = train(cfg, corpus)
    assert workers.forked == ["LM training", "acoustic training"]
    assert workers.requests.count("acoustic training") >= 4
    train_mod = importlib.import_module("shona_asr.train")

    class AcousticInThisProcess(train_mod._Worker):  # the workers fixture's recording class
        def __init__(self, name, serve, fork=True):
            super().__init__(name, serve, fork and name != "acoustic training")

        def result(self):
            if self.fork:
                return super().result()
            trainable = self._serve.args[1]  # functools.partial(_worker_outcomes, run, trainable, slots)
            pending = [t.grad for t in trainable]
            for t in trainable:
                t.grad = None
            try:
                return super().result()
            finally:
                for t, grad in zip(trainable, pending):
                    t.grad = grad

    monkeypatch.setattr(train_mod, "_Worker", AcousticInThisProcess)
    serial = train(cfg, corpus)
    assert workers.forked == ["LM training", "acoustic training", "LM training"]
    assert all(entry["skipped"] == 2 for entry in parallel.epoch_log)
    assert parallel.epoch_log == serial.epoch_log
    save_checkpoint(parallel.checkpoint, tmp_path / "parallel.ckpt")
    save_checkpoint(serial.checkpoint, tmp_path / "serial.ckpt")
    assert (tmp_path / "parallel.ckpt").read_bytes() == (tmp_path / "serial.ckpt").read_bytes()


@pytest.mark.parametrize("batch_size", [3, 4])
def test_acoustic_epoch_equals_a_serial_replay(tmp_path, workers, batch_size):
    # one backward pass per utterance accumulating into .grad, an update per batch_size scored;
    # training positions 2 and 5 keep a third of their audio, too short for their phones:
    # 2 falls to the worker in the first batch and 5 to this process in a later one
    cfg = TrainConfig(seed=3, epochs_max=2, patience=2, batch_size=batch_size)
    corpus = corpus_with_replaced_audio(tmp_path, cfg, [2, 5], a_third)
    result = train(cfg, corpus)
    assert workers.forked == ["LM training", "acoustic training"]
    assert workers.requests.count("acoustic training") >= 4
    train_mod = importlib.import_module("shona_asr.train")
    inventory = default_inventory()
    lexicon = train_mod.build_lexicon(result.checkpoint.config["lexicon_words"], inventory)
    utts = train_mod._prepare_utterances(split_corpus(corpus, cfg.split_ratios, cfg.seed)[0],
                                         lexicon)[0]
    seed = int(np.random.SeedSequence(cfg.seed).spawn(2)[0].generate_state(1)[0])
    params = build_acoustic_model(cfg.acoustic, len(inventory), seed)
    train_mod._to_float32(params)
    opt, epochs = OptimizerState(cfg.optimizer), []
    # train() pins OpenBLAS to one thread, whose sums a multi-threaded GEMM need not match
    with train_mod._one_blas_thread():
        for epoch in (1, 2):
            pending, losses = 0, []
            for i, utt in enumerate(utts):
                rng = np.random.default_rng(
                    np.random.SeedSequence(cfg.seed, spawn_key=(cfg.augment.seed, epoch, i)))
                audio = augment_audio(utt.audio, cfg.augment, rng)
                feats = spec_augment(extract_features(audio), cfg.augment, rng)
                if output_frames(len(feats)) < min_frames(utt.phones):
                    continue
                loss = ctc_loss(acoustic_forward(params, feats, cfg.acoustic), utt.phones)
                losses.append(float(loss.data))
                ad.backward(loss)
                pending += 1
                if pending == batch_size:
                    optimizer_step(opt, params)
                    pending = 0
            if pending:
                optimizer_step(opt, params)
            epochs.append((losses, {name: t.data.copy() for name, t in params.items()}))
    for entry, (losses, _) in zip(result.epoch_log, epochs, strict=True):
        assert entry["skipped"] == len(utts) - len(losses) == 2
        assert entry["train_ctc"] == sum(losses) / len(losses)
    assert result.best_epoch == 2  # so the checkpoint holds the second epoch's updates too
    for name, data in epochs[result.best_epoch - 1][1].items():
        assert np.array_equal(data, result.checkpoint.tensors["acoustic." + name]), name


def test_a_replaced_acoustic_function_leaves_the_worker_forked_and_the_bytes_equal(
        tiny_result, tiny_corpus, tmp_path, monkeypatch, workers):
    # a tracer replaces ctc_loss wherever shona_asr binds it; the schedule must not change
    cfg, plain = tiny_result
    calls = count_calls_by_process(monkeypatch, "shona_asr.ctc", "ctc_loss")
    replaced = train(cfg, tiny_corpus)
    assert workers.forked == ["LM training", "acoustic training"]
    assert calls[0] > 0 and calls[1] > 0  # each acoustic process scored its share
    assert replaced.epoch_log == plain.epoch_log
    save_checkpoint(plain.checkpoint, tmp_path / "plain.ckpt")
    save_checkpoint(replaced.checkpoint, tmp_path / "replaced.ckpt")
    assert (tmp_path / "replaced.ckpt").read_bytes() == (tmp_path / "plain.ckpt").read_bytes()


def test_a_batch_of_one_forks_no_acoustic_worker(tiny_corpus, workers):
    train(TrainConfig(seed=3, epochs_max=1, patience=1, batch_size=1,
                      augment=AugmentPolicy(**QUIET_AUGMENT)), tiny_corpus)
    assert workers.forked == ["LM training"]


def test_an_error_in_the_acoustic_worker_is_raised_by_train(tmp_path, workers):
    # training position 2, which the worker runs, holds less audio than one frame
    cfg = TrainConfig(seed=3, epochs_max=1, patience=1, batch_size=4)
    corpus = corpus_with_replaced_audio(tmp_path, cfg, [2], lambda audio: audio.samples[:100])
    with pytest.raises(DataError, match="shorter than one frame") as caught:
        train(cfg, corpus)
    assert workers.forked == ["LM training", "acoustic training"]
    note = "\n".join(caught.value.__notes__)
    assert "in the acoustic training process" in note and "extract_features" in note
    assert multiprocessing.active_children() == []


def test_a_worker_exception_is_raised_with_its_type_message_and_traceback():
    train_mod = importlib.import_module("shona_asr.train")

    def failing(n):
        raise KeyError(f"no utterance {n}")

    with pytest.raises(KeyError, match="no utterance 7") as caught:
        with train_mod._Worker("probe", failing) as worker:
            worker.submit(7)
            worker.result()
    note = "\n".join(caught.value.__notes__)
    assert note.startswith("in the probe process:") and "in failing" in note
    assert multiprocessing.active_children() == []


def test_a_worker_that_exits_without_answering_is_an_error():
    train_mod = importlib.import_module("shona_asr.train")
    with pytest.raises(WorkerError,
                       match="the probe process exited with code 7 without answering"):
        with train_mod._Worker("probe", lambda: os._exit(7)) as worker:
            worker.submit()
            worker.result()
    assert multiprocessing.active_children() == []


def test_blas_runs_on_one_thread_during_train_and_is_restored_after(tiny_result, tiny_corpus,
                                                                    monkeypatch):
    train_mod = importlib.import_module("shona_asr.train")
    calls = train_mod._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, put = calls
    seen = []
    monkeypatch.setattr(train_mod, "extract_features",
                        lambda audio: seen.append(get()) or extract_features(audio))
    previous = get()
    put(2)
    try:
        before = get()  # 2, unless this OpenBLAS cannot grow its pool
        train(dataclasses.replace(tiny_result[0], epochs_max=1, patience=1), tiny_corpus)
        assert get() == before
    finally:
        put(previous)
    assert seen and set(seen) == {1}


def test_best_hash_does_not_depend_on_the_blas_thread_count(tiny_corpus, tmp_path):
    # before the pin, 1 and 2 OpenBLAS threads gave different sums, so different hashes
    script = ("import sys; from shona_asr.manifest import load_manifest; "
              "from shona_asr.train import TrainConfig, train; "
              "print(train(TrainConfig(seed=1, epochs_max=2, patience=2), "
              "load_manifest(sys.argv[1])).best_hash)")
    manifest = tiny_corpus.records[0].audio.parent.parent / "manifest.jsonl"
    hashes = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script, str(manifest)], env=env,
                              capture_output=True, text=True, timeout=300, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        hashes.add(done.stdout.split()[-1])
    assert len(hashes) == 1


# -- the read-only passes ------------------------------------------------------

SPLIT_WITH_4_VAL = (0.6, 0.3, 0.1)  # 16 utterances: 11 training, 4 validation, 1 test


def prepared_splits(corpus, cfg, ckpt):
    """The training and validation utterances of a `train` run, as it prepares them."""
    train_mod = importlib.import_module("shona_asr.train")
    lexicon = train_mod.build_lexicon(ckpt.config["lexicon_words"], default_inventory())
    train_m, val_m, _ = split_corpus(corpus, cfg.split_ratios, cfg.seed)
    return (train_mod._prepare_utterances(train_m, lexicon)[0],
            train_mod._prepare_utterances(val_m, lexicon)[0])


def test_only_training_builds_a_graph(tmp_path, monkeypatch):
    # training position 2 and validation position 1 are too short for their phones
    # at a batch of one, every forward pass runs in this process, where the wrappers record
    cfg = TrainConfig(seed=3, epochs_max=2, patience=2, split_ratios=SPLIT_WITH_4_VAL,
                      batch_size=1, target_train_per=0.0, augment=AugmentPolicy(**QUIET_AUGMENT))
    corpus = corpus_with_replaced_audio(tmp_path, cfg, [2], a_third, val_positions=[1])
    train_mod = importlib.import_module("shona_asr.train")
    forwards, last = [], []  # per forward pass: [grid requires grad, scored by ctc_loss]

    def forward(*args):
        last[:] = [acoustic_forward(*args)]
        forwards.append([last[0].requires_grad, False])
        return last[0]

    def loss(grid, target):
        assert grid is last[0]
        forwards[-1][1] = True
        losses.append(target)
        return ctc_loss(grid, target)

    losses = []
    monkeypatch.setattr(train_mod, "acoustic_forward", forward)
    monkeypatch.setattr(train_mod, "ctc_loss", loss)
    result = train(cfg, corpus)
    epochs = len(result.epoch_log)
    assert epochs == 2 and "train_per" in result.epoch_log[-1]
    train_utts, val_utts = prepared_splits(corpus, cfg, result.checkpoint)
    long_enough = [u.phones for u in train_utts
                   if output_frames(len(extract_features(u.audio))) >= min_frames(u.phones)]
    assert len(long_enough) == len(train_utts) - 1
    assert output_frames(len(extract_features(val_utts[1].audio))) < min_frames(val_utts[1].phones)
    assert losses == long_enough * epochs
    # each epoch: the training utterances long enough, then validation and the train-PER pass
    assert len(forwards) == epochs * (len(long_enough) + len(val_utts) + len(train_utts))
    assert all(grad for grad, scored in forwards if scored)
    assert not any(grad for grad, scored in forwards if not scored)


def test_a_validation_utterance_too_short_for_its_phones_counts_in_val_per_only(tmp_path):
    cfg = TrainConfig(seed=3, epochs_max=1, patience=1, split_ratios=SPLIT_WITH_4_VAL)
    corpus = corpus_with_replaced_audio(tmp_path, cfg, [], a_third, val_positions=[1])
    result = train(cfg, corpus)
    _, val_utts = prepared_splits(corpus, cfg, result.checkpoint)
    # the checkpoint holds the weights after the epoch's updates, which validation must read
    restored_cfg, _, _, acoustic, _, _ = restore_models(result.checkpoint)
    train_mod = importlib.import_module("shona_asr.train")
    with train_mod._one_blas_thread():
        grids = [acoustic_forward(acoustic, extract_features(u.audio), restored_cfg.acoustic).data
                 for u in val_utts]
    scores = [ctc_forward_logprob(grid, [u.phones])[0] for grid, u in zip(grids, val_utts)]
    assert len(val_utts) == 4 and scores.count(-math.inf) == 1 and scores[1] == -math.inf
    loss_sum = 0.0
    for score in scores:
        if score != -math.inf:
            loss_sum -= score
    entry = result.epoch_log[0]
    assert entry["val_ctc"] == loss_sum / 3
    assert entry["val_per"] == per([(u.phones, ctc_greedy_decode(grid))
                                    for grid, u in zip(grids, val_utts)])


# -- the held corpus -------------------------------------------------------------

def test_an_utterance_holds_its_wav_as_int16_and_decodes_it_as_load_wav_does(tmp_path):
    rates = [16000, 8000, 22050]
    corpus = generate_corpus(GenConfig(seed=7, vocab_size=8, n_utterances=3), tmp_path)
    for rec, rate in zip(corpus, rates):
        source = load_wav(rec.audio).samples
        save_wav(rec.audio, AudioBuffer(resample_linear(source, 16000, rate), rate))
    train_mod = importlib.import_module("shona_asr.train")
    words = sorted({w for rec in corpus for w in normalize_text(rec.text)})
    lexicon = train_mod.build_lexicon(words, default_inventory())
    utts, skipped = train_mod._prepare_utterances(corpus, lexicon)
    assert skipped == 0 and len(utts) == len(rates)
    for utt, rec, rate in zip(utts, corpus, rates):
        with wave.open(str(rec.audio), "rb") as wf:
            n_source = wf.getnframes()
            assert wf.getframerate() == rate
        assert utt.pcm.dtype == np.int16 and utt.sample_rate_hz == rate
        held = utt.pcm if utt.pcm.base is None else utt.pcm.base
        assert utt.pcm.nbytes == memoryview(held).nbytes == 2 * n_source
        audio = utt.audio
        assert audio.sample_rate_hz == 16000
        assert np.array_equal(audio.samples, load_wav(rec.audio).samples)


def float64_utterances(manifest, lexicon):
    """`_prepare_utterances` as it was: each utterance holds `load_wav`'s float64 buffer."""
    out, skipped = [], 0
    for rec in manifest:
        words = normalize_text(rec.text)
        if not words or any(w not in lexicon for w in words):
            skipped += 1
            continue
        out.append(types.SimpleNamespace(
            utt_id=rec.utt_id, audio=load_wav(rec.audio), words=words,
            phones=[p for w in words for p in lexicon.pronunciations[w]]))
    return out, skipped


@pytest.mark.parametrize("schedule", [
    dict(batch_size=4, target_train_per=0.0),
    dict(batch_size=1, augment=AugmentPolicy(**QUIET_AUGMENT),
         optimizer=OptimizerConfig(learning_rate=2e-3),
         lm_optimizer=OptimizerConfig(learning_rate=1e-2)),
], ids=["augmenting", "identity_batch_1"])
def test_training_on_held_pcm_equals_training_on_float64_audio(tmp_path, monkeypatch, schedule):
    # the held corpus and the float32 base features must change no value the models see
    cfg = TrainConfig(seed=3, epochs_max=2, patience=2, **schedule)
    corpus = generate_corpus(GenConfig(seed=7, vocab_size=8, n_utterances=16), tmp_path / "c")
    path = split_corpus(corpus, cfg.split_ratios, cfg.seed)[0].records[1].audio
    save_wav(path, AudioBuffer(resample_linear(load_wav(path).samples, 16000, 8000), 8000))
    train_mod = importlib.import_module("shona_asr.train")
    held = train(cfg, corpus)
    base_dtypes = set()

    def float64_features(utts, dtype):
        feats = {u.utt_id: extract_features(u.audio) for u in utts}
        base_dtypes.update(f.dtype for f in feats.values())
        return feats

    monkeypatch.setattr(train_mod, "_prepare_utterances", float64_utterances)
    monkeypatch.setattr(train_mod, "_base_features", float64_features)
    reference = train(cfg, corpus)
    assert base_dtypes == {np.dtype(np.float64)}
    assert held.epoch_log == reference.epoch_log
    assert held.best_hash == reference.best_hash
    save_checkpoint(held.checkpoint, tmp_path / "held.ckpt")
    save_checkpoint(reference.checkpoint, tmp_path / "reference.ckpt")
    assert (tmp_path / "held.ckpt").read_bytes() == (tmp_path / "reference.ckpt").read_bytes()
