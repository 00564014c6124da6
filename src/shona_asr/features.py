"""MFCC feature extraction: framing, mel filterbank, DCT, deltas, stacking.

The acoustic front end produces 13 cepstra per 25 ms frame (10 ms hop),
extends them with first- and second-order regression deltas, and stacks
the three streams into a mean-variance-normalized [T, 39] float64 array.
The settings are the module constants below.
"""

from __future__ import annotations

import functools

import numpy as np

from .audio import AudioBuffer
from .errors import DataError


N_FFT = 512
N_MELS = 26
N_CEPS = 13
PRE_EMPHASIS = 0.97
FRAME_LEN_MS = 25.0
HOP_MS = 10.0
LOG_FLOOR = 1e-10
DELTA_WINDOW = 2
VARIANCE_FLOOR = 1e-8


def frame_count(n_samples: int, frame_len: int, hop: int) -> int:
    """Number of full frames in a signal: 1 + floor((N - frame_len) / hop)."""
    if n_samples < frame_len:
        raise DataError(f"signal of {n_samples} samples is shorter than one {frame_len}-sample frame")
    return 1 + (n_samples - frame_len) // hop


def frame_signal(samples: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Overlapping frames of a signal, shape [T, frame_len].

    The frames are a read-only strided view of `samples`, not a copy.
    """
    frame_count(len(samples), frame_len, hop)  # rejects a signal shorter than one frame
    return np.lib.stride_tricks.sliding_window_view(samples, frame_len)[::hop]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(n_mels: int, n_fft: int, sample_rate_hz: int,
                   fmin_hz: float, fmax_hz: float) -> np.ndarray:
    """Triangular filters on a mel-spaced grid, shape [n_mels, n_fft//2 + 1].

    Triangle corners are kept at their exact (non-integer) frequencies so
    no filter degenerates to an empty bin set. Built once per argument
    tuple and shared, so the returned array is read-only.
    """
    mel_points = np.linspace(hz_to_mel(fmin_hz), hz_to_mel(fmax_hz), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(n_fft // 2 + 1, dtype=np.float64) * sample_rate_hz / n_fft
    fbank = np.zeros((n_mels, len(bin_freqs)))
    for m in range(n_mels):
        lo, center, hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        fbank[m] = np.maximum(0.0, np.minimum(rising, falling))
    fbank.flags.writeable = False
    return fbank


@functools.lru_cache(maxsize=8)
def dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, rows are the first n_out basis vectors.

    Built once per argument pair and shared, so the array is read-only.
    """
    n = np.arange(n_in)
    k = np.arange(n_out)[:, None]
    mat = np.cos(np.pi * k * (2 * n + 1) / (2 * n_in))
    mat *= np.sqrt(2.0 / n_in)
    mat[0] *= np.sqrt(0.5)
    mat.flags.writeable = False
    return mat


@functools.lru_cache(maxsize=8)
def hamming_window(n: int) -> np.ndarray:
    """`np.hamming(n)`, built once per length and shared, so read-only."""
    window = np.hamming(n)
    window.flags.writeable = False
    return window


def mel_spectrogram(audio: AudioBuffer) -> np.ndarray:
    """Per-frame mel filterbank energies (pre-log), shape [T, N_MELS].

    The filters span 0 Hz to the Nyquist frequency.
    """
    samples, rate = audio.samples, audio.sample_rate_hz
    emphasized = np.concatenate((samples[:1], samples[1:] - PRE_EMPHASIS * samples[:-1]))
    frame_len = int(round(FRAME_LEN_MS * rate / 1000.0))
    frames = frame_signal(emphasized, frame_len, int(round(HOP_MS * rate / 1000.0)))
    if frame_len > N_FFT:
        raise ValueError(f"frame length {frame_len} exceeds n_fft {N_FFT}")
    spectrum = np.abs(np.fft.rfft(frames * hamming_window(frame_len), n=N_FFT, axis=1))
    return spectrum @ mel_filterbank(N_MELS, N_FFT, rate, 0.0, rate / 2.0).T


def compute_mfcc(audio: AudioBuffer) -> np.ndarray:
    """[T, 13] mel cepstra: log filterbank energies decorrelated by DCT-II."""
    log_mel = np.log(np.maximum(mel_spectrogram(audio), LOG_FLOOR))
    return log_mel @ dct_matrix(N_CEPS, N_MELS).T


def compute_deltas(c: np.ndarray) -> np.ndarray:
    """Regression deltas d_t = sum_n n*(c_{t+n} - c_{t-n}) / (2 sum_n n^2), n <= DELTA_WINDOW.

    Frames past either edge are replaced by the nearest real frame
    (edge padding).
    """
    t, k = c.shape[0], DELTA_WINDOW
    padded = np.concatenate((np.repeat(c[:1], k, axis=0), c, np.repeat(c[-1:], k, axis=0)))
    out = np.zeros_like(c)
    denom = 2.0 * sum(n * n for n in range(1, k + 1))
    for n in range(1, k + 1):
        out += n * (padded[k + n:k + n + t] - padded[k - n:k - n + t])
    out /= denom
    return out


def stack_features(mfcc: np.ndarray, delta: np.ndarray, delta2: np.ndarray) -> np.ndarray:
    """Concatenate the three [T, 13] streams into [T, 39] and normalize each column.

    Per-utterance mean-variance normalization; columns whose variance falls
    below VARIANCE_FLOOR come out as all zeros.
    """
    parts = (mfcc, delta, delta2)
    shapes = {p.shape for p in parts}
    if len(shapes) != 1 or mfcc.shape[1] != N_CEPS:
        raise ValueError(f"need three equal T x 13 matrices, got {[p.shape for p in parts]}")
    stacked = np.concatenate(parts, axis=1)
    mean = stacked.mean(axis=0)
    var = stacked.var(axis=0)
    return (stacked - mean) / np.sqrt(np.maximum(var, VARIANCE_FLOOR))


def extract_features(audio: AudioBuffer) -> np.ndarray:
    """Full front end: MFCC -> deltas -> delta-deltas -> normalized [T, 39] stack.

    Finite but huge samples can overflow to inf on the way, so the result
    is checked once here.
    """
    mfcc = compute_mfcc(audio)
    delta = compute_deltas(mfcc)
    feats = stack_features(mfcc, delta, compute_deltas(delta))
    if not np.all(np.isfinite(feats)):
        raise ValueError("features contain non-finite values")
    return feats
