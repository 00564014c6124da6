"""Waveform and feature-space augmentation for low-resource training.

Speed and volume perturbation act on audio; frequency/time masking acts on
the stacked feature matrix. Every transform is a deterministic function of
its inputs and the supplied RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acoustic import FEATURE_DIM
from .audio import AudioBuffer


@dataclass
class AugmentPolicy:
    speed_factors: list[float] = field(default_factory=lambda: [0.9, 1.0, 1.1])
    gain_db_range: tuple[float, float] = (-6.0, 6.0)
    n_freq_masks: int = 1
    freq_mask_max: int = 8
    n_time_masks: int = 1
    time_mask_max_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not self.speed_factors:
            raise ValueError("speed_factors must not be empty")
        for f in self.speed_factors:
            if not 0.5 < f < 2.0:
                raise ValueError(f"speed factor {f} outside (0.5, 2.0)")
        lo, hi = self.gain_db_range
        if not -20.0 <= lo <= hi <= 20.0:
            raise ValueError(f"gain_db_range {self.gain_db_range} needs -20 <= low <= high <= 20")
        if min(self.n_freq_masks, self.freq_mask_max, self.n_time_masks) < 0:
            raise ValueError("n_freq_masks, freq_mask_max and n_time_masks must be >= 0")
        if self.freq_mask_max >= FEATURE_DIM:
            raise ValueError(f"freq_mask_max {self.freq_mask_max} must be < the feature width "
                             f"{FEATURE_DIM}")
        if not 0.0 <= self.time_mask_max_fraction < 1.0:
            raise ValueError("time_mask_max_fraction must be in [0, 1)")

    def is_identity(self) -> bool:
        """True when applying this policy can never change anything."""
        return (
            all(f == 1.0 for f in self.speed_factors)
            and all(g == 0.0 for g in self.gain_db_range)
            and (self.n_freq_masks == 0 or self.freq_mask_max == 0)
            and (self.n_time_masks == 0 or self.time_mask_max_fraction == 0.0)
        )


def speed_perturb(audio: AudioBuffer, factor: float) -> AudioBuffer:
    """Uniformly speed up (factor > 1) or slow down the signal.

    The sample rate is kept, so pitch and duration shift together; output
    length is exactly round(N / factor).
    """
    if not 0.5 < factor < 2.0:
        raise ValueError(f"speed factor {factor} outside (0.5, 2.0)")
    n_out = int(round(len(audio.samples) / factor))
    positions = np.arange(n_out, dtype=np.float64) * factor
    out = np.interp(positions, np.arange(len(audio.samples), dtype=np.float64), audio.samples)
    return AudioBuffer(out, audio.sample_rate_hz)


def volume_perturb(audio: AudioBuffer, gain_db: float) -> tuple[AudioBuffer, int]:
    """Apply gain in dB and hard-clip to [-1, 1].

    Returns the perturbed buffer and the number of clipped samples.
    """
    if not -20.0 <= gain_db <= 20.0:
        raise ValueError(f"gain {gain_db} dB outside [-20, 20]")
    scaled = audio.samples * (10.0 ** (gain_db / 20.0))
    n_clipped = int(np.count_nonzero(np.abs(scaled) > 1.0))
    return AudioBuffer(np.clip(scaled, -1.0, 1.0), audio.sample_rate_hz), n_clipped


def spec_augment(feats: np.ndarray, policy: AugmentPolicy,
                 rng: np.random.Generator) -> np.ndarray:
    """Mask random frequency bands and time spans of a [T, D] array with its global mean.

    Mask widths are drawn uniformly from [0, max]; width-0 masks are no-ops.
    Entries outside the masked rectangles are copied bit-identically.
    """
    values = feats.copy()
    t, d = values.shape
    if policy.freq_mask_max >= d:
        raise ValueError(f"freq_mask_max {policy.freq_mask_max} must be < D={d}")
    fill = float(feats.mean())
    for _ in range(policy.n_freq_masks):
        width = int(rng.integers(0, policy.freq_mask_max + 1))
        start = int(rng.integers(0, d - width + 1))
        values[:, start:start + width] = fill
    time_mask_max = int(t * policy.time_mask_max_fraction)
    for _ in range(policy.n_time_masks):
        width = int(rng.integers(0, time_mask_max + 1))
        start = int(rng.integers(0, t - width + 1))
        values[start:start + width, :] = fill
    return values


def augment_audio(audio: AudioBuffer, policy: AugmentPolicy,
                  rng: np.random.Generator) -> AudioBuffer:
    """Draw one speed factor and one gain from the policy and apply both."""
    factor = policy.speed_factors[int(rng.integers(0, len(policy.speed_factors)))]
    lo, hi = policy.gain_db_range
    gain = float(rng.uniform(lo, hi)) if hi > lo else float(lo)
    out = speed_perturb(audio, factor) if factor != 1.0 else audio
    if gain != 0.0:
        out, _ = volume_perturb(out, gain)
    return out
