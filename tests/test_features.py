import numpy as np
import pytest

from oracles import clamped_deltas, gather_frames, naive_deltas, naive_mel_energies
from shona_asr import features
from shona_asr.audio import AudioBuffer
from shona_asr.errors import DataError
from shona_asr.features import (compute_deltas, compute_mfcc, dct_matrix, extract_features,
                                frame_count, frame_signal, hamming_window, mel_filterbank,
                                mel_spectrogram, stack_features)

from conftest import make_tone


def test_frame_count_one_second():
    assert frame_count(16000, 400, 160) == 98


def test_frame_count_formula_random_lengths(rng):
    for _ in range(1000):
        n = int(rng.integers(400, 50000))
        assert frame_count(n, 400, 160) == 1 + (n - 400) // 160


def test_too_short_signal_rejected():
    with pytest.raises(DataError, match="shorter than one"):
        compute_mfcc(AudioBuffer(np.zeros(399), 16000))


@pytest.mark.parametrize("n_samples", [0, 1])
def test_empty_or_one_sample_signal_rejected(n_samples):
    # an empty signal raised IndexError from the pre-emphasis filter
    with pytest.raises(DataError, match="shorter than one"):
        extract_features(AudioBuffer(np.zeros(n_samples), 16000))


def test_all_zero_audio_rows_identical():
    feats = compute_mfcc(AudioBuffer(np.zeros(16000), 16000))
    assert feats.shape == (98, 13)
    assert np.allclose(feats, feats[0])


def test_mel_energies_match_naive_dft_oracle_tone(tone_1khz):
    got = mel_spectrogram(tone_1khz)
    want = naive_mel_energies(tone_1khz.samples, 16000, features.N_FFT, features.N_MELS,
                              0.0, 8000.0, 400, 160, features.PRE_EMPHASIS)
    rms = np.sqrt(np.mean((got - want) ** 2))
    assert rms < 1e-4


def test_mel_energies_match_oracle_random_signals(rng):
    for _ in range(5):
        samples = rng.uniform(-1, 1, int(rng.integers(500, 1200)))
        audio = AudioBuffer(samples, 16000)
        got = mel_spectrogram(audio)
        want = naive_mel_energies(samples, 16000, features.N_FFT, features.N_MELS,
                                  0.0, 8000.0, 400, 160, features.PRE_EMPHASIS)
        assert np.sqrt(np.mean((got - want) ** 2)) < 1e-4


def test_mel_filterbank_is_built_once_and_read_only():
    fbank = mel_filterbank(26, 512, 16000, 0.0, 8000.0)
    assert mel_filterbank(26, 512, 16000, 0.0, 8000.0) is fbank
    with pytest.raises(ValueError):
        fbank[0, 0] = 1.0


@pytest.mark.parametrize("build, args", [(dct_matrix, (13, 26)), (hamming_window, (400,))],
                         ids=["dct_matrix", "hamming_window"])
def test_dct_matrix_and_window_are_built_once_and_read_only(build, args):
    table = build(*args)
    assert build(*args) is table
    with pytest.raises(ValueError):
        table.flat[0] = 1.0


def test_hamming_window_is_numpys():
    assert hamming_window(400).tobytes() == np.hamming(400).tobytes()


@pytest.mark.parametrize("n_frames", [1, 2, 3, 5, 200])
def test_frames_are_bit_equal_to_an_index_gather(rng, n_frames):
    for extra in (0, 1, 159):  # samples past the last full frame are left out
        samples = rng.uniform(-1, 1, 400 + 160 * (n_frames - 1) + extra)
        frames = frame_signal(samples, 400, 160)
        assert frames.shape == (n_frames, 400) and not frames.flags.writeable
        assert frames.tobytes() == gather_frames(samples, 400, 160).tobytes()


@pytest.mark.parametrize("n_frames", [0, 1, 2, 3, 5, 200])
def test_deltas_are_bit_equal_to_clamped_index_gathers(rng, n_frames):
    values = rng.normal(size=(n_frames, 13))
    got = compute_deltas(values)
    assert got.tobytes() == clamped_deltas(values, features.DELTA_WINDOW).tobytes()
    assert compute_deltas(got).tobytes() == clamped_deltas(got, features.DELTA_WINDOW).tobytes()


def test_gain_shifts_only_coefficient_zero():
    loud = make_tone(700.0, amplitude=0.5)
    soft = AudioBuffer(loud.samples * (10.0 ** (-6.0 / 20.0)), 16000)
    a = compute_mfcc(loud)
    b = compute_mfcc(soft)
    assert np.max(np.abs(a[:, 1:] - b[:, 1:])) < 1e-6
    assert np.max(np.abs(a[:, 0] - b[:, 0])) > 1e-3


def test_deltas_of_constant_are_zero():
    feats = np.full((20, 13), 3.7)
    assert np.all(compute_deltas(feats) == 0.0)


def test_delta_of_linear_ramp_recovers_slope():
    slope = 0.25
    ramp = slope * np.arange(30)[:, None] * np.ones((1, 13))
    deltas = compute_deltas(ramp)
    assert np.allclose(deltas[2:-2], slope)


def test_deltas_match_direct_formula_oracle(rng):
    values = rng.normal(size=(10, 13))
    got = compute_deltas(values)
    assert np.allclose(got, naive_deltas(values, 2), atol=1e-12)


def test_delta_of_delta_equals_delta2_stream():
    # the third stacked stream is exactly compute_deltas applied twice
    audio = make_tone(500.0, duration_s=0.3)
    mfcc = compute_mfcc(audio)
    delta = compute_deltas(mfcc)
    delta2 = compute_deltas(delta)
    twice = compute_deltas(compute_deltas(mfcc))
    assert np.array_equal(delta2, twice)
    stacked = stack_features(mfcc, delta, delta2)
    assert stacked.shape == (stacked.shape[0], 39)
    full = extract_features(audio)
    assert np.array_equal(full, stacked)


def test_stack_shapes_and_normalization(rng):
    base = rng.normal(size=(98, 13))
    stacked = stack_features(base, compute_deltas(base), compute_deltas(compute_deltas(base)))
    assert stacked.shape == (98, 39)
    assert np.all(np.abs(stacked.mean(axis=0)) < 1e-6)
    assert np.all(np.abs(stacked.var(axis=0) - 1.0) < 1e-4)


def test_stack_constant_column_zeroed_by_variance_floor():
    const = np.full((50, 13), 2.0)
    stacked = stack_features(const, const, const)
    assert np.all(stacked == 0.0)


def test_stack_shape_mismatch_rejected():
    a = np.zeros((10, 13))
    b = np.zeros((11, 13))
    with pytest.raises(ValueError, match="equal"):
        stack_features(a, b, b)


def test_stack_output_always_finite(rng):
    for _ in range(5):
        values = rng.normal(size=(30, 13)) * rng.uniform(0, 100)
        out = stack_features(values, compute_deltas(values), compute_deltas(compute_deltas(values)))
        assert np.all(np.isfinite(out))


def test_extract_features_end_to_end(tone_1khz):
    feats = extract_features(tone_1khz)
    assert feats.shape == (98, 39)


def test_extract_features_rejects_samples_that_overflow():
    # finite samples whose pre-emphasis difference overflows to inf
    audio = AudioBuffer(np.tile([1e308, -1e308], 8000), 16000)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        extract_features(audio)
