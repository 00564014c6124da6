import numpy as np
import pytest

from oracles import naive_dft_magnitude
from shona_asr.corpusgen import (GenConfig, VOWEL_FORMANTS, check_phone_separability,
                                 generate_corpus, render_phone, synth_utterance)
from shona_asr.lexicon import Lexicon
from shona_asr.phones import default_inventory, g2p


def test_four_phones_at_80ms_gives_5120_samples():
    audio = synth_utterance([0, 5, 1, 6], GenConfig())
    assert len(audio.samples) == 4 * 1280
    assert audio.duration_s == pytest.approx(0.32)


def test_vowel_formant_peaks_match_config():
    inv = default_inventory()
    cfg = GenConfig()
    for symbol, (f1, f2) in VOWEL_FORMANTS.items():
        seg = render_phone(inv.by_symbol[symbol].index, inv, cfg)
        mag = naive_dft_magnitude(seg, len(seg))
        resolution = cfg.sample_rate / len(seg)
        top = np.argsort(mag)[-2:] * resolution
        assert sorted(np.round(top / resolution)) == sorted(
            [round(f1 / resolution), round(f2 / resolution)])


def test_same_phones_bit_identical_audio():
    phones = [3, 10, 2, 10]
    a = synth_utterance(phones, GenConfig())
    b = synth_utterance(phones, GenConfig())
    assert np.array_equal(a.samples, b.samples)


def test_phone_fixtures_spectrally_distinct():
    check_phone_separability(default_inventory(), GenConfig())


def test_generate_corpus_counts_and_coverage(tmp_path):
    cfg = GenConfig(seed=7, vocab_size=10, n_utterances=20)
    manifest = generate_corpus(cfg, tmp_path)
    assert len(manifest) == 20
    wavs = sorted((tmp_path / "wav").glob("*.wav"))
    assert len(wavs) == 20
    lex = Lexicon.load(tmp_path / "lexicon.txt")
    assert len(lex) == 10
    inv = default_inventory()
    for rec in manifest:
        for word in rec.text.split():
            assert word in lex
            assert g2p(word, inv) == list(lex.pronunciations[word])


def test_generate_corpus_duration_arithmetic(tmp_path):
    cfg = GenConfig(seed=3, vocab_size=5, n_utterances=8)
    manifest = generate_corpus(cfg, tmp_path)
    lex = Lexicon.load(tmp_path / "lexicon.txt")
    for rec in manifest:
        n_phones = sum(len(lex.pronunciations[w]) for w in rec.text.split())
        expected = n_phones * 1280 / 16000
        assert abs(rec.duration_s - expected) <= 1.0 / 16000


def test_generate_corpus_deterministic(tmp_path):
    cfg = GenConfig(seed=11, vocab_size=6, n_utterances=5)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    generate_corpus(cfg, dir_a)
    generate_corpus(cfg, dir_b)
    for name in ["manifest.jsonl", "lexicon.txt", "phones.txt"]:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    for wav in sorted((dir_a / "wav").glob("*.wav")):
        assert wav.read_bytes() == (dir_b / "wav" / wav.name).read_bytes()


def test_sentence_length_bounds(tmp_path):
    cfg = GenConfig(seed=2, vocab_size=8, n_utterances=30)
    manifest = generate_corpus(cfg, tmp_path)
    lengths = [len(rec.text.split()) for rec in manifest]
    assert min(lengths) >= 2 and max(lengths) <= 6


def test_word_syllable_bounds(tmp_path):
    cfg = GenConfig(seed=2, vocab_size=12, n_utterances=3)
    generate_corpus(cfg, tmp_path)
    lex = Lexicon.load(tmp_path / "lexicon.txt")
    for word, phones in lex.pronunciations.items():
        assert 1 <= len(phones) // 2 <= 4
        assert len(phones) % 2 == 0  # strict CV alternation
