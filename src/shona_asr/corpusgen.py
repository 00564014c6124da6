"""Synthetic CV-syllable corpus generator.

Words are random consonant-vowel syllable strings, guaranteed parsable by
the g2p rules; audio renders each vowel as a two-formant sinusoid pair and
each consonant as a fixed band-limited noise burst, which is crude but
gives the CNN frame-local, phone-separable evidence. Everything is a pure
function of the seed, including across parallel generation, thanks to
per-utterance derived seeds.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import CANONICAL_RATE, AudioBuffer, save_wav
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

PHONE_DURATION_MS = 80.0
NOISE_BAND_HZ = 220.0
NOISE_BAND_START_HZ = 600.0
NOISE_BAND_STEP_HZ = 140.0
EDGE_MS = 5.0


@dataclass
class GenConfig:
    seed: int = 0
    vocab_size: int = 50
    n_utterances: int = 100
    words_per_sentence: tuple[int, int] = (2, 6)
    syllables_per_word: tuple[int, int] = (1, 4)

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.n_utterances < 1:
            raise ValueError(f"n_utterances must be >= 1, got {self.n_utterances}")
        for name in ("words_per_sentence", "syllables_per_word"):
            low, high = getattr(self, name)
            if not 1 <= low <= high:
                raise ValueError(f"{name} must satisfy 1 <= low <= high, got {[low, high]}")


@functools.lru_cache(maxsize=8)
def phone_fixtures(inventory: PhoneInventory) -> np.ndarray:
    """Every phone's fixed audio fixture, shape [P, 1280]; row i is phone i.

    Consonant k, in inventory order, is noise in a band centred on
    NOISE_BAND_START_HZ + k * NOISE_BAND_STEP_HZ. Built and checked for
    separability once per inventory, and shared, so the table is read-only.
    """
    n = int(round(PHONE_DURATION_MS * CANONICAL_RATE / 1000.0))
    t = np.arange(n) / CANONICAL_RATE
    freqs = np.fft.rfftfreq(n, d=1.0 / CANONICAL_RATE)
    ramp_len = min(int(EDGE_MS * CANONICAL_RATE / 1000.0), n // 2)
    envelope = np.ones(n)
    if ramp_len > 0:
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp_len) / ramp_len))
        envelope[:ramp_len] = ramp
        envelope[-ramp_len:] = ramp[::-1]
    table = np.empty((len(inventory), n))
    rank = 0
    for p in inventory.phones:
        if p.symbol in VOWELS:
            f1, f2 = VOWEL_FORMANTS[p.symbol]
            seg = 0.35 * np.sin(2 * np.pi * f1 * t) + 0.35 * np.sin(2 * np.pi * f2 * t)
        else:
            center = NOISE_BAND_START_HZ + rank * NOISE_BAND_STEP_HZ
            half = NOISE_BAND_HZ / 2.0
            lo, hi = center - half, center + half
            rank += 1
            noise = np.random.default_rng(zlib.crc32(p.symbol.encode("utf-8"))).standard_normal(n)
            spectrum = np.fft.rfft(noise)
            spectrum[(freqs < lo) | (freqs > hi)] = 0.0
            seg = np.fft.irfft(spectrum, n)
            peak = np.max(np.abs(seg))
            if peak > 0:
                seg = 0.5 * seg / peak
        table[p.index] = seg * envelope
    table.flags.writeable = False
    check_phone_separability(inventory, table)
    return table


def synth_utterance(phone_indices: list[int], cfg: GenConfig,
                    inventory: PhoneInventory | None = None) -> AudioBuffer:
    """Concatenate phone fixtures; length is exactly len(phones) * duration.

    Nothing is read from `cfg`; it stays until the next benchmark change.
    """
    inventory = inventory or default_inventory()
    if not phone_indices:
        raise ValueError("phone sequence is empty")
    return AudioBuffer(phone_fixtures(inventory)[list(phone_indices)].ravel(), CANONICAL_RATE)


def check_phone_separability(inventory: PhoneInventory, table: np.ndarray) -> None:
    """Every pair of phones must have distinct DFT peak-bin sets in the table's rows."""
    by_set: dict[frozenset, str] = {}
    for p in inventory.phones:
        mag = np.abs(np.fft.rfft(table[p.index]))
        peaks = frozenset(np.flatnonzero(mag >= 0.5 * mag.max()).tolist())
        if peaks in by_set:
            raise VerificationError(
                f"phones {by_set[peaks]!r} and {p.symbol!r} render to identical DFT peak sets")
        by_set[peaks] = p.symbol


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
    inventory = default_inventory()
    # distinct pronunciations, (onset phones x vowels) ** syllables, counted
    # over the syllable range until they cover the vocabulary
    onsets = {inventory.by_spelling[o].index for o in inventory.onset_spellings()}
    low, high = cfg.syllables_per_word
    capacity = 0
    for n_syllables in range(low, high + 1):
        capacity += (len(onsets) * len(VOWELS)) ** n_syllables
        if capacity >= cfg.vocab_size:
            break
    if cfg.vocab_size > capacity:
        raise DataError(f"config.vocab_size: {cfg.vocab_size} words exceed the {capacity} "
                        f"distinct pronunciations of {low}-{high} syllables")

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

    out_dir = Path(out_dir)
    wav_dir = out_dir / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)
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
            "duration_s": len(audio.samples) / CANONICAL_RATE,
        })

    manifest_path = out_dir / "manifest.jsonl"
    save_manifest(manifest_path, records)
    lexicon = Lexicon({w: tuple(p) for w, p in vocab.items()}, inventory)
    lexicon.save(out_dir / "lexicon.txt")
    inventory.save(out_dir / "phones.txt")
    return load_manifest(manifest_path)
