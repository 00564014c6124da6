"""WAV input/output and sample-rate conversion.

Audio everywhere in the pipeline is mono float64 in [-1, 1] at 16 kHz.
Files are RIFF/WAVE, PCM signed 16-bit little-endian, one channel.
"""

from __future__ import annotations

import contextlib
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

CANONICAL_RATE = 16000
# Declared WAV rates outside this range are rejected before any sample is read.
MIN_RATE_HZ = 8000
MAX_RATE_HZ = 192000


@dataclass
class AudioBuffer:
    """Mono PCM samples at a known sample rate."""

    samples: np.ndarray  # float64, values in [-1, 1]
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


def resample_linear(samples: np.ndarray, src_rate: int, dst_rate: int) -> np.ndarray:
    """Resample by linear interpolation. No anti-aliasing filter is applied."""
    if src_rate == dst_rate:
        return np.array(samples, dtype=np.float64)
    n_out = int(round(len(samples) * dst_rate / src_rate))
    if n_out <= 0:
        return np.zeros(0, dtype=np.float64)
    # Output sample k sits at source position k * src/dst.
    positions = np.arange(n_out, dtype=np.float64) * (src_rate / dst_rate)
    return np.interp(positions, np.arange(len(samples), dtype=np.float64), samples)


@contextlib.contextmanager
def _open_wav(path: Path):
    """Open a WAV file for reading; any failure to read it is a DataError naming it.

    `wave` reports a malformed header as `wave.Error`, `EOFError` or
    `RuntimeError`, and a path it cannot read (a directory, say) as `OSError`.
    """
    if not path.exists():
        raise DataError(f"audio file not found: {path}")
    try:
        with wave.open(str(path), "rb") as wf:
            yield wf
    except (wave.Error, EOFError, RuntimeError, OSError) as exc:
        raise DataError(f"{path}: not a readable PCM WAV file "
                        f"({exc or type(exc).__name__})") from exc


def _declared_rate(path: Path, wf: wave.Wave_read) -> int:
    rate = wf.getframerate()
    if not MIN_RATE_HZ <= rate <= MAX_RATE_HZ:
        raise DataError(f"{path}: declared sample rate {rate} Hz is outside "
                        f"{MIN_RATE_HZ}-{MAX_RATE_HZ} Hz")
    return rate


def load_wav(path) -> AudioBuffer:
    """Load a mono 16-bit PCM WAV file, rescaled to [-1, 1] at 16 kHz.

    Sources at other rates are linearly resampled to 16 kHz. Multi-channel
    files are rejected rather than downmixed. No more frames are read than
    the file's size can hold, whatever its header declares.
    """
    path = Path(path)
    with _open_wav(path) as wf:
        n_channels = wf.getnchannels()
        if n_channels != 1:
            raise DataError(f"{path}: expected mono audio, got {n_channels} channels")
        sampwidth = wf.getsampwidth()
        if sampwidth != 2:
            raise DataError(f"{path}: expected 16-bit PCM samples, got {8 * sampwidth}-bit")
        rate = _declared_rate(path, wf)
        raw = wf.readframes(min(wf.getnframes(), path.stat().st_size // 2))
    if len(raw) == 0:
        raise DataError(f"{path}: zero-length payload")
    if len(raw) % 2:
        raise DataError(f"{path}: payload of {len(raw)} bytes is not whole 16-bit samples")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if rate != CANONICAL_RATE:
        samples = resample_linear(samples, rate, CANONICAL_RATE)
    return AudioBuffer(samples=samples, sample_rate_hz=CANONICAL_RATE)


def save_wav(path, audio: AudioBuffer) -> None:
    """Write an AudioBuffer as mono 16-bit PCM."""
    clipped = np.clip(audio.samples, -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(audio.sample_rate_hz)
        wf.writeframes(pcm.tobytes())


def wav_duration_s(path) -> float:
    """Read a WAV header and report its duration without loading samples."""
    path = Path(path)
    with _open_wav(path) as wf:
        return wf.getnframes() / _declared_rate(path, wf)
