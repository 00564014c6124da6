"""Synthetic CV-syllable corpus generator.

Words are random consonant-vowel syllable strings, guaranteed parsable by
the g2p rules; audio renders each vowel as a two-formant sinusoid pair and
each consonant as a fixed band-limited noise burst, which is crude but
gives the CNN frame-local, phone-separable evidence. Everything is a pure
function of the seed, including across parallel generation, thanks to
per-utterance derived seeds.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import AudioBuffer, save_wav
from .errors import DataError, VerificationError
from .lexicon import Lexicon
from .manifest import CorpusManifest, load_manifest, save_manifest
from .phones import PhoneInventory, default_inventory, VOWELS

# Two-formant targets per vowel, Hz.
VOWEL_FORMANTS = {
    "a": (720.0, 1240.0),
    "e": (420.0, 2100.0),
    "i": (280.0, 2500.0),
    "o": (480.0, 880.0),
    "u": (320.0, 680.0),
}

EDGE_MS = 5.0


@dataclass
class GenConfig:
    seed: int = 0
    vocab_size: int = 50
    n_utterances: int = 100
    words_per_sentence: tuple[int, int] = (2, 6)
    syllables_per_word: tuple[int, int] = (1, 4)
    phone_duration_ms: float = 80.0
    sample_rate: int = 16000
    noise_band_hz: float = 220.0
    noise_band_start_hz: float = 600.0
    noise_band_step_hz: float = 140.0

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.phone_duration_ms <= 0:
            raise ValueError("phone duration must be positive")

    def phone_samples(self) -> int:
        return int(round(self.phone_duration_ms * self.sample_rate / 1000.0))


def _consonant_band(inventory: PhoneInventory, index: int, cfg: GenConfig) -> tuple[float, float]:
    """Narrow noise band for a consonant, distinct per consonant class."""
    consonants = [p.index for p in inventory.phones if p.symbol not in VOWELS]
    rank = consonants.index(index)
    center = cfg.noise_band_start_hz + rank * cfg.noise_band_step_hz
    half = cfg.noise_band_hz / 2.0
    return center - half, center + half


def _edge_envelope(n: int, sample_rate: int) -> np.ndarray:
    ramp_len = min(int(EDGE_MS * sample_rate / 1000.0), n // 2)
    env = np.ones(n)
    if ramp_len > 0:
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp_len) / ramp_len))
        env[:ramp_len] = ramp
        env[-ramp_len:] = ramp[::-1]
    return env


def render_phone(index: int, inventory: PhoneInventory, cfg: GenConfig) -> np.ndarray:
    """One phone's fixed audio fixture; identical on every call."""
    n = cfg.phone_samples()
    symbol = inventory.phones[index].symbol
    t = np.arange(n) / cfg.sample_rate
    if symbol in VOWELS:
        f1, f2 = VOWEL_FORMANTS[symbol]
        seg = 0.35 * np.sin(2 * np.pi * f1 * t) + 0.35 * np.sin(2 * np.pi * f2 * t)
    else:
        lo, hi = _consonant_band(inventory, index, cfg)
        class_seed = zlib.crc32(symbol.encode("utf-8"))
        noise = np.random.default_rng(class_seed).standard_normal(n)
        spectrum = np.fft.rfft(noise)
        freqs = np.fft.rfftfreq(n, d=1.0 / cfg.sample_rate)
        spectrum[(freqs < lo) | (freqs > hi)] = 0.0
        seg = np.fft.irfft(spectrum, n)
        peak = np.max(np.abs(seg))
        if peak > 0:
            seg = 0.5 * seg / peak
    return seg * _edge_envelope(n, cfg.sample_rate)


def synth_utterance(phone_indices: list[int], cfg: GenConfig,
                    inventory: PhoneInventory | None = None) -> AudioBuffer:
    """Concatenate phone fixtures; length is exactly len(phones) * duration."""
    inventory = inventory or default_inventory()
    if not phone_indices:
        raise ValueError("phone sequence is empty")
    samples = np.concatenate([render_phone(i, inventory, cfg) for i in phone_indices])
    return AudioBuffer(samples, cfg.sample_rate)


def check_phone_separability(inventory: PhoneInventory, cfg: GenConfig) -> None:
    """Every pair of phones must have distinct DFT peak-bin sets."""
    peak_sets = {}
    for p in inventory.phones:
        seg = render_phone(p.index, inventory, cfg)
        mag = np.abs(np.fft.rfft(seg))
        peak_sets[p.symbol] = frozenset(np.flatnonzero(mag >= 0.5 * mag.max()).tolist())
    by_set: dict[frozenset, str] = {}
    for symbol, peaks in peak_sets.items():
        if peaks in by_set:
            raise VerificationError(
                f"phones {by_set[peaks]!r} and {symbol!r} render to identical DFT peak sets")
        by_set[peaks] = symbol


def gen_word(rng: np.random.Generator, inventory: PhoneInventory,
             syllable_range: tuple[int, int]) -> tuple[str, list[int]]:
    """Random CV word: each syllable is an onset spelling plus a vowel."""
    onsets = inventory.onset_spellings()
    n_syllables = int(rng.integers(syllable_range[0], syllable_range[1] + 1))
    spelling = []
    phones = []
    for _ in range(n_syllables):
        onset = onsets[int(rng.integers(0, len(onsets)))]
        vowel = VOWELS[int(rng.integers(0, len(VOWELS)))]
        spelling.append(onset + vowel)
        phones.append(inventory.by_spelling[onset].index)
        phones.append(inventory.by_spelling[vowel].index)
    return "".join(spelling), phones


def _utterance_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, index)))


def generate_corpus(cfg: GenConfig, out_dir) -> CorpusManifest:
    """Write WAVs, manifest, lexicon, and inventory files; return the manifest.

    Deterministic: the same config yields byte-identical output trees.
    """
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)
    inventory = default_inventory()
    check_phone_separability(inventory, cfg)

    vocab_rng = _utterance_rng(cfg.seed, 0, 0)
    vocab: dict[str, list[int]] = {}
    seen_phones: set[tuple[int, ...]] = set()
    attempts = 0
    while len(vocab) < cfg.vocab_size:
        attempts += 1
        if attempts > 1000 * cfg.vocab_size:
            raise DataError("could not draw enough distinct words; widen the syllable range")
        word, phones = gen_word(vocab_rng, inventory, cfg.syllables_per_word)
        if word in vocab or tuple(phones) in seen_phones:
            continue
        vocab[word] = phones
        seen_phones.add(tuple(phones))
    words = list(vocab)

    records = []
    lo, hi = cfg.words_per_sentence
    for i in range(cfg.n_utterances):
        rng = _utterance_rng(cfg.seed, 1, i)
        n_words = int(rng.integers(lo, hi + 1))
        sentence = [words[int(rng.integers(0, len(words)))] for _ in range(n_words)]
        phones = [p for w in sentence for p in vocab[w]]
        audio = synth_utterance(phones, cfg, inventory)
        utt_id = f"utt{i:05d}"
        wav_path = wav_dir / f"{utt_id}.wav"
        save_wav(wav_path, audio)
        records.append({
            "id": utt_id,
            "audio": f"wav/{utt_id}.wav",
            "text": " ".join(sentence),
            "duration_s": len(audio.samples) / cfg.sample_rate,
        })

    manifest_path = out_dir / "manifest.jsonl"
    save_manifest(manifest_path, records)
    lexicon = Lexicon({w: tuple(p) for w, p in vocab.items()}, inventory)
    lexicon.save(out_dir / "lexicon.txt")
    inventory.save(out_dir / "phones.txt")
    return load_manifest(manifest_path)
