import dataclasses
import importlib
import json
import math

import numpy as np
import pytest

from conftest import params_as
from shona_asr import autodiff as ad
from shona_asr.acoustic import AcousticConfig, acoustic_forward, build_acoustic_model
from shona_asr.audio import load_wav
from shona_asr.augment import AugmentPolicy
from shona_asr.checkpoint import load_checkpoint, params_hash, save_checkpoint
from shona_asr.corpusgen import GenConfig, generate_corpus
from shona_asr.ctc import ctc_loss
from shona_asr.errors import DataError, VerificationError
from shona_asr.features import extract_features
from shona_asr.lm import LmConfig, TokenVocab, build_lm, sentence_loss
from shona_asr.manifest import split_corpus
from shona_asr.optim import OptimizerConfig, OptimizerState, optimizer_step
from shona_asr.phones import default_inventory
from shona_asr.train import (EarlyStopper, TrainConfig, _config_from_dict, _config_to_dict,
                             evaluate, restore_models, train, warm_start)

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
    back = _config_from_dict(GenConfig, json.loads(json.dumps(_config_to_dict(gen))), "config")
    assert back == gen


def test_config_rejects_unknown_keys():
    with pytest.raises(DataError, match="unknown keys"):
        TrainConfig.from_dict({"seed": 1, "bogus": 2})
    with pytest.raises(DataError, match="config.acoustic"):
        TrainConfig.from_dict({"acoustic": {"n_layers": 3}})


def test_config_validates_values():
    with pytest.raises(DataError):
        TrainConfig.from_dict({"patience": 0})
    with pytest.raises(DataError):
        TrainConfig.from_dict({"epochs_max": 0})
    with pytest.raises(DataError):
        TrainConfig.from_dict({"split_ratios": [0.5, 0.2, 0.2]})


@pytest.mark.parametrize("augment", [{"gain_db_range": [-30.0, 30.0]}, {"gain_db_range": [6.0, -6.0]},
                                     {"speed_factors": []}, {"freq_mask_max": -1},
                                     {"n_time_masks": -2}],
                         ids=["gain_outside_20db", "gain_range_reversed", "no_speed_factors",
                              "negative_freq_mask_max", "negative_time_masks"])
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
    with pytest.raises(DataError, match="hidden-layer"):
        warm_start(result.checkpoint, 54, TokenVocab(list(result.checkpoint.vocab), "phone"),
                   AcousticConfig(conv1_filters=16), LmConfig())


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
    """Make train's first ctc_loss call return poison(loss); the others stay real."""
    calls = []

    def patched(grid, target):
        loss = ctc_loss(grid, target)
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
