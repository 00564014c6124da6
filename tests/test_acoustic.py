import numpy as np
import pytest

from conftest import params_as
from shona_asr import autodiff as ad
from shona_asr.acoustic import (AcousticConfig, acoustic_forward, build_acoustic_model,
                                output_frames, posteriors)
from shona_asr.autodiff import backward
from shona_asr.ctc import ctc_loss
from shona_asr.optim import OptimizerConfig, OptimizerState, optimizer_step


def test_paper_faithful_output_layer_shape():
    params = build_acoustic_model(AcousticConfig(), n_phones=54, seed=0)
    assert params["out.W"].data.shape == (55, 128)
    assert params["conv1.kernels"].data.shape == (32, 1, 3, 3)
    assert params["conv2.kernels"].data.shape == (64, 32, 3, 3)
    assert params["dense.W"].data.shape == (128, 64 * 9)


def test_same_seed_bit_identical_parameters():
    a = build_acoustic_model(AcousticConfig(), 54, seed=9)
    b = build_acoustic_model(AcousticConfig(), 54, seed=9)
    for name, t in a.items():
        assert np.array_equal(t.data, b[name].data)


def test_degenerate_alphabet_rejected():
    with pytest.raises(ValueError):
        build_acoustic_model(AcousticConfig(), n_phones=1, seed=0)


def test_forward_downsamples_98_to_24_rows(rng):
    params = build_acoustic_model(AcousticConfig(), 54, seed=0)
    out = acoustic_forward(params, rng.normal(size=(98, 39)))
    assert out.data.shape == (24, 55)


def test_rows_sum_to_one(rng):
    params = build_acoustic_model(AcousticConfig(), 10, seed=1)
    out = acoustic_forward(params, rng.normal(size=(40, 39)))
    assert np.all(np.abs(np.exp(out.data).sum(axis=1) - 1.0) < 1e-6)


def test_zero_output_layer_gives_uniform_rows(rng):
    params = build_acoustic_model(AcousticConfig(), 54, seed=2)
    params["out.W"].data[:] = 0.0
    params["out.b"].data[:] = 0.0
    out = acoustic_forward(params, rng.normal(size=(16, 39)))
    assert np.allclose(np.exp(out.data), 1.0 / 55.0)


def test_too_few_frames_rejected(rng):
    params = build_acoustic_model(AcousticConfig(), 10, seed=0)
    with pytest.raises(ValueError, match="frames"):
        acoustic_forward(params, rng.normal(size=(3, 39)))


def test_forward_is_deterministic_and_pure(rng):
    params = build_acoustic_model(AcousticConfig(), 12, seed=3)
    feats = rng.normal(size=(30, 39))
    snapshot = {name: t.data.copy() for name, t in params.items()}
    a = acoustic_forward(params, feats).data
    b = acoustic_forward(params, feats).data
    assert np.array_equal(a, b)
    for name, t in params.items():
        assert np.array_equal(t.data, snapshot[name])


def test_attention_toggle_preserves_shapes(rng):
    feats = rng.normal(size=(50, 39))
    with_attn = build_acoustic_model(AcousticConfig(use_attention=True), 8, seed=4)
    without = build_acoustic_model(AcousticConfig(use_attention=False), 8, seed=4)
    a = acoustic_forward(with_attn, feats, AcousticConfig(use_attention=True))
    b = acoustic_forward(without, feats, AcousticConfig(use_attention=False))
    assert a.data.shape == b.data.shape == (12, 9)
    assert "attn.Wq" not in without


def test_forward_calls_conv_pool_and_relu_through_module_attributes(rng, monkeypatch):
    # Per-layer tracing wraps these module attributes and names its metrics
    # after them, so each must stay a separate op looked up at call time.
    calls = {"conv2d": 0, "max_pool2d": 0, "relu": 0}
    for name in calls:
        original = getattr(ad, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(ad, name, counted)
    params = build_acoustic_model(AcousticConfig(), 10, seed=0)
    acoustic_forward(params, rng.normal(size=(20, 39)))
    assert calls == {"conv2d": 2, "max_pool2d": 2, "relu": 3}


def test_grid_dtype_follows_the_parameters(rng):
    p32 = params_as(build_acoustic_model(AcousticConfig(), 54, seed=6), np.float32)
    p64 = params_as(p32, np.float64)  # the same values, widened
    feats = rng.normal(size=(60, 39))
    narrow = acoustic_forward(p32, feats).data
    wide = acoustic_forward(p64, feats).data
    assert narrow.dtype == np.float32
    assert wide.dtype == np.float64
    np.testing.assert_allclose(narrow, wide, rtol=0, atol=1e-4)
    # float64 parameters widen narrower features before any arithmetic
    feats32 = feats.astype(np.float32)
    assert np.array_equal(acoustic_forward(p64, feats32).data,
                          acoustic_forward(p64, feats32.astype(np.float64)).data)


def test_posterior_grid_wrapper(rng):
    params = build_acoustic_model(AcousticConfig(), 6, seed=5)
    grid = posteriors(params, rng.normal(size=(20, 39)))
    assert grid.n_frames == 5
    assert grid.log_probs.shape[1] == 7  # six phones, then the blank in column 6
    assert grid.n_frames == output_frames(20)


def test_ctc_training_loss_decreases_over_50_steps(rng):
    cfg = AcousticConfig(conv1_filters=8, conv2_filters=12, dense_units=24, use_attention=True)
    params = build_acoustic_model(cfg, 6, seed=7)
    feats = rng.normal(size=(40, 39))
    target = [0, 3, 1, 4]
    opt = OptimizerState(OptimizerConfig(kind="adam", learning_rate=2e-3))
    losses = []
    for _ in range(50):
        loss = ctc_loss(acoustic_forward(params, feats, cfg), target)
        losses.append(float(loss.data))
        params.zero_grad()
        backward(loss)
        optimizer_step(opt, params)
    assert losses[-1] < losses[0]
