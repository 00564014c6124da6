import numpy as np
import pytest

from oracles import naive_dft_magnitude
from shona_asr.audio import AudioBuffer
from shona_asr.augment import AugmentPolicy, spec_augment, speed_perturb, volume_perturb

from conftest import make_tone


def test_speed_factor_one_is_identity(rng):
    a = AudioBuffer(rng.uniform(-1, 1, 1000), 16000)
    out = speed_perturb(a, 1.0)
    assert np.array_equal(out.samples, a.samples)


def test_speed_factor_two_halves_length():
    a = AudioBuffer(np.zeros(16000), 16000)
    assert len(speed_perturb(a, 1.9).samples) == round(16000 / 1.9)


def test_speed_length_formula_random(rng):
    for _ in range(20):
        n = int(rng.integers(100, 5000))
        factor = float(rng.uniform(0.6, 1.9))
        a = AudioBuffer(rng.uniform(-1, 1, n), 16000)
        assert len(speed_perturb(a, factor).samples) == round(n / factor)


def test_speed_perturb_shifts_tone_frequency():
    tone = make_tone(440.0)
    out = speed_perturb(tone, 1.1)
    n_fft = 4096
    mag = naive_dft_magnitude(out.samples[:n_fft], n_fft)
    peak_hz = np.argmax(mag) * 16000 / n_fft
    assert abs(peak_hz - 440.0 * 1.1) < 16000 / n_fft * 2


def test_speed_factor_out_of_range():
    a = AudioBuffer(np.zeros(100), 16000)
    with pytest.raises(ValueError):
        speed_perturb(a, 2.5)


def test_gain_zero_is_identity(rng):
    a = AudioBuffer(rng.uniform(-1, 1, 500), 16000)
    out, clipped = volume_perturb(a, 0.0)
    assert np.array_equal(out.samples, a.samples)
    assert clipped == 0


def test_gain_minus_6db_halves_samples():
    a = AudioBuffer(np.full(100, 0.8), 16000)
    out, _ = volume_perturb(a, -6.020599913279624)
    assert np.max(np.abs(out.samples - 0.4)) < 1e-9


def test_positive_gain_clips_and_counts():
    a = AudioBuffer(np.full(250, 0.9), 16000)
    out, clipped = volume_perturb(a, 6.0)
    assert np.all(out.samples == 1.0)
    assert clipped == 250


def test_volume_round_trip_without_clipping(rng):
    a = AudioBuffer(rng.uniform(-0.4, 0.4, 400), 16000)
    up, clipped = volume_perturb(a, 5.0)
    assert clipped == 0
    down, _ = volume_perturb(up, -5.0)
    assert np.max(np.abs(down.samples - a.samples)) < 1e-6


def test_gain_out_of_range(rng):
    a = AudioBuffer(np.zeros(10), 16000)
    with pytest.raises(ValueError):
        volume_perturb(a, 25.0)


def _feats(rng, t=98, d=39):
    return rng.normal(size=(t, d))


def test_spec_augment_zero_widths_is_identity(rng):
    feats = _feats(rng)
    policy = AugmentPolicy(freq_mask_max=0, time_mask_max_fraction=0.0)
    out = spec_augment(feats, policy, np.random.default_rng(0))
    assert np.array_equal(out, feats)


def test_spec_augment_bounded_change_count(rng):
    feats = _feats(rng)
    policy = AugmentPolicy(n_freq_masks=1, freq_mask_max=8, n_time_masks=0)
    out = spec_augment(feats, policy, np.random.default_rng(3))
    changed = np.count_nonzero(out != feats)
    assert changed <= 98 * 8


def test_spec_augment_deterministic_per_seed(rng):
    feats = _feats(rng)
    policy = AugmentPolicy()
    a = spec_augment(feats, policy, np.random.default_rng(42))
    b = spec_augment(feats, policy, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_spec_augment_only_touches_mask_rectangles(rng):
    feats = _feats(rng)
    policy = AugmentPolicy(n_freq_masks=2, n_time_masks=2)
    out = spec_augment(feats, policy, np.random.default_rng(9))
    diff = out != feats
    changed_rows = np.flatnonzero(diff.all(axis=1))
    changed_cols = np.flatnonzero(diff.all(axis=0))
    # everything outside full-row and full-column bands must be untouched
    residual = diff.copy()
    residual[changed_rows, :] = False
    residual[:, changed_cols] = False
    assert not residual.any()
    fill = feats.mean()
    assert np.all(out[changed_rows, :] == fill)


def test_spec_augment_mask_wider_than_features_rejected(rng):
    feats = rng.normal(size=(10, 8))
    with pytest.raises(ValueError, match="D=8"):
        spec_augment(feats, AugmentPolicy(freq_mask_max=8), np.random.default_rng(0))
