import numpy as np
import pytest

from oracles import naive_dft_magnitude
from shona_asr.audio import CANONICAL_RATE
from shona_asr.corpusgen import (GenConfig, VOWEL_FORMANTS, check_phone_separability,
                                 generate_corpus, phone_fixtures, synth_utterance)
from shona_asr.errors import DataError, VerificationError
from shona_asr.lexicon import Lexicon
from shona_asr.phones import default_inventory, g2p


def test_four_phones_at_80ms_gives_5120_samples():
    audio = synth_utterance([0, 5, 1, 6], GenConfig())
    assert len(audio.samples) == 4 * 1280
    assert audio.duration_s == pytest.approx(0.32)


def test_vowel_formant_peaks_match_config():
    inv = default_inventory()
    for symbol, (f1, f2) in VOWEL_FORMANTS.items():
        seg = phone_fixtures(inv)[inv.by_symbol[symbol].index]
        mag = naive_dft_magnitude(seg, len(seg))
        resolution = CANONICAL_RATE / len(seg)
        top = np.argsort(mag)[-2:] * resolution
        assert sorted(np.round(top / resolution)) == sorted(
            [round(f1 / resolution), round(f2 / resolution)])


def test_same_phones_bit_identical_audio():
    phones = [3, 10, 2, 10]
    a = synth_utterance(phones, GenConfig())
    b = synth_utterance(phones, GenConfig())
    assert np.array_equal(a.samples, b.samples)


def test_phone_fixtures_spectrally_distinct():
    inv = default_inventory()
    check_phone_separability(inv, phone_fixtures(inv))


def test_separability_check_rejects_two_equal_rows():
    inv = default_inventory()
    table = phone_fixtures(inv).copy()
    table[1] = table[0]
    with pytest.raises(VerificationError, match="identical DFT peak sets"):
        check_phone_separability(inv, table)


def test_phone_fixtures_built_once_read_only():
    inv = default_inventory()
    table = phone_fixtures(inv)
    assert phone_fixtures(inv) is table
    assert table.shape == (54, 1280)
    assert not table.flags.writeable


def test_synth_utterance_is_the_concatenated_fixture_rows():
    phones = [3, 10, 2, 10, 53]
    table = phone_fixtures(default_inventory())
    audio = synth_utterance(phones, GenConfig())
    assert np.array_equal(audio.samples, np.concatenate([table[i] for i in phones]))
    # a pronunciation tuple indexes rows too, not one sample
    assert np.array_equal(synth_utterance(tuple(phones[:2]), GenConfig()).samples,
                          audio.samples[:2560])
    assert audio.sample_rate_hz == CANONICAL_RATE


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



def test_vocabulary_size_is_checked_against_the_pronunciations_the_range_allows(tmp_path):
    # one syllable: 49 onset phones x 5 vowels; two syllables add 245 ** 2
    generate_corpus(GenConfig(seed=2, vocab_size=245, n_utterances=1,
                              syllables_per_word=(1, 1)), tmp_path / "full")
    assert len(Lexicon.load(tmp_path / "full" / "lexicon.txt")) == 245
    with pytest.raises(DataError, match="config.vocab_size: 246 words exceed the 245"):
        generate_corpus(GenConfig(vocab_size=246, syllables_per_word=(1, 1)), tmp_path / "over")
    assert not (tmp_path / "over").exists()
    with pytest.raises(DataError, match="exceed the 60270 distinct"):
        generate_corpus(GenConfig(vocab_size=60271, syllables_per_word=(1, 2)), tmp_path / "two")
