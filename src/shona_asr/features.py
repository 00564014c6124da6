"""MFCC feature extraction: framing, mel filterbank, DCT, deltas, stacking.

The acoustic front end produces 13 cepstra per 25 ms frame (10 ms hop),
extends them with first- and second-order regression deltas, and stacks
the three streams into a mean-variance-normalized T x 39 matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .errors import DataError


@dataclass
class MelConfig:
    n_fft: int = 512
    n_mels: int = 26
    n_ceps: int = 13
    fmin_hz: float = 0.0
    fmax_hz: float | None = None  # defaults to sample_rate / 2
    pre_emphasis: float = 0.97
    frame_len_ms: float = 25.0
    hop_ms: float = 10.0
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.n_ceps > self.n_mels:
            raise ValueError("n_ceps must not exceed n_mels")

    def frame_len(self, sample_rate_hz: int) -> int:
        return int(round(self.frame_len_ms * sample_rate_hz / 1000.0))

    def hop(self, sample_rate_hz: int) -> int:
        return int(round(self.hop_ms * sample_rate_hz / 1000.0))

    def fmax(self, sample_rate_hz: int) -> float:
        fmax = self.fmax_hz if self.fmax_hz is not None else sample_rate_hz / 2.0
        if not (self.fmin_hz < fmax <= sample_rate_hz / 2.0):
            raise ValueError(f"need fmin < fmax <= nyquist, got [{self.fmin_hz}, {fmax}]")
        return fmax


@dataclass
class FeatureMatrix:
    """T x D matrix of per-frame acoustic features."""

    values: np.ndarray
    kind: str  # "mfcc13" or "stacked39"
    frame_len_ms: float = 25.0
    hop_ms: float = 10.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise ValueError(f"feature matrix must be T x D with T >= 1, got {self.values.shape}")
        expected = {"mfcc13": 13, "stacked39": 39}.get(self.kind)
        if expected is not None and self.values.shape[1] != expected:
            raise ValueError(f"{self.kind} features must have D={expected}, got {self.values.shape[1]}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature matrix contains non-finite values")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def frame_count(n_samples: int, frame_len: int, hop: int) -> int:
    """Number of full frames in a signal: 1 + floor((N - frame_len) / hop)."""
    if n_samples < frame_len:
        raise DataError(f"signal of {n_samples} samples is shorter than one {frame_len}-sample frame")
    return 1 + (n_samples - frame_len) // hop


def frame_signal(samples: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Slice a signal into overlapping frames, shape [T, frame_len]."""
    t = frame_count(len(samples), frame_len, hop)
    idx = np.arange(frame_len)[None, :] + hop * np.arange(t)[:, None]
    return samples[idx]


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


def dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, rows are the first n_out basis vectors."""
    n = np.arange(n_in)
    k = np.arange(n_out)[:, None]
    mat = np.cos(np.pi * k * (2 * n + 1) / (2 * n_in))
    mat *= np.sqrt(2.0 / n_in)
    mat[0] *= np.sqrt(0.5)
    return mat


def _windowed_frames(audio: AudioBuffer, cfg: MelConfig) -> np.ndarray:
    emphasized = np.concatenate(([audio.samples[0]],
                                 audio.samples[1:] - cfg.pre_emphasis * audio.samples[:-1]))
    frames = frame_signal(emphasized, cfg.frame_len(audio.sample_rate_hz), cfg.hop(audio.sample_rate_hz))
    return frames * np.hamming(frames.shape[1])


def mel_spectrogram(audio: AudioBuffer, cfg: MelConfig | None = None) -> np.ndarray:
    """Per-frame mel filterbank energies (pre-log), shape [T, n_mels]."""
    cfg = cfg or MelConfig()
    windowed = _windowed_frames(audio, cfg)
    if windowed.shape[1] > cfg.n_fft:
        raise ValueError(f"frame length {windowed.shape[1]} exceeds n_fft {cfg.n_fft}")
    spectrum = np.abs(np.fft.rfft(windowed, n=cfg.n_fft, axis=1))
    fbank = mel_filterbank(cfg.n_mels, cfg.n_fft, audio.sample_rate_hz,
                           cfg.fmin_hz, cfg.fmax(audio.sample_rate_hz))
    return spectrum @ fbank.T


def compute_mfcc(audio: AudioBuffer, cfg: MelConfig | None = None) -> FeatureMatrix:
    """13 mel cepstra per frame: log filterbank energies decorrelated by DCT-II."""
    cfg = cfg or MelConfig()
    mel = mel_spectrogram(audio, cfg)
    log_mel = np.log(np.maximum(mel, cfg.log_floor))
    ceps = log_mel @ dct_matrix(cfg.n_ceps, cfg.n_mels).T
    return FeatureMatrix(ceps, "mfcc13", cfg.frame_len_ms, cfg.hop_ms)


def compute_deltas(feats: FeatureMatrix, window: int = 2) -> FeatureMatrix:
    """Regression deltas d_t = sum_n n*(c_{t+n} - c_{t-n}) / (2 sum_n n^2).

    Frames past either edge are replaced by the nearest real frame
    (index clamping).
    """
    if window < 1:
        raise ValueError("delta window must be >= 1")
    c = feats.values
    t = c.shape[0]
    out = np.zeros_like(c)
    denom = 2.0 * sum(n * n for n in range(1, window + 1))
    for n in range(1, window + 1):
        ahead = c[np.minimum(np.arange(t) + n, t - 1)]
        behind = c[np.maximum(np.arange(t) - n, 0)]
        out += n * (ahead - behind)
    out /= denom
    return FeatureMatrix(out, feats.kind, feats.frame_len_ms, feats.hop_ms)


def stack_features(mfcc: FeatureMatrix, delta: FeatureMatrix,
                   delta2: FeatureMatrix, variance_floor: float = 1e-8) -> FeatureMatrix:
    """Concatenate the three 13-dim streams and normalize each column.

    Per-utterance mean-variance normalization; columns whose variance falls
    below the floor come out as all zeros.
    """
    parts = (mfcc, delta, delta2)
    shapes = {p.values.shape for p in parts}
    if len(shapes) != 1 or parts[0].values.shape[1] != 13:
        raise ValueError(f"need three equal T x 13 matrices, got {[p.values.shape for p in parts]}")
    stacked = np.concatenate([p.values for p in parts], axis=1)
    mean = stacked.mean(axis=0)
    var = stacked.var(axis=0)
    normalized = (stacked - mean) / np.sqrt(np.maximum(var, variance_floor))
    return FeatureMatrix(normalized, "stacked39", mfcc.frame_len_ms, mfcc.hop_ms)


def extract_features(audio: AudioBuffer, cfg: MelConfig | None = None) -> FeatureMatrix:
    """Full front end: MFCC -> deltas -> delta-deltas -> normalized stack."""
    mfcc = compute_mfcc(audio, cfg)
    delta = compute_deltas(mfcc)
    delta2 = compute_deltas(delta)
    return stack_features(mfcc, delta, delta2)
