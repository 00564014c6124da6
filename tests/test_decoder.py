import numpy as np
import pytest

from conftest import params_as
from oracles import exhaustive_decode, reference_beam_decode
from shona_asr import decoder
from shona_asr.decoder import DecodeStats, Transcript, beam_decode
from shona_asr.lexicon import build_lexicon
from shona_asr.lm import LmConfig, TokenVocab, build_lm
from shona_asr.phones import default_inventory


def make_lm(vocab, seed=0):
    return build_lm(vocab, LmConfig(embed_dim=8, lstm1_units=10, lstm2_units=8), seed)


def phone_vocab():
    return TokenVocab.build(default_inventory().symbols(), "phone")


def rand_grid(rng, t):
    g = rng.uniform(0.02, 1.0, size=(t, 55))
    return np.log(g / g.sum(axis=1, keepdims=True))


def grid_for_phones(phones, peak=0.85, blank_frames=True):
    """Sharply peaked log grid following the phone sequence, one frame each."""
    rows = []
    for p in phones:
        row = np.full(55, (1 - peak) / 54)
        row[p] = peak
        rows.append(row)
        if blank_frames:
            row = np.full(55, (1 - peak) / 54)
            row[54] = peak
            rows.append(row)
    return np.log(np.array(rows))


def test_forced_single_word_path():
    lex = build_lexicon(["baba"])
    grid = grid_for_phones(lex.pronunciations["baba"])
    out = beam_decode(grid, lex, lm_weight=0.0, beam_width=1)
    assert out.words == ["baba"]
    assert out.complete


def test_lexicon_constrained_output_words(rng):
    lex = build_lexicon(["baba", "mhoro", "zvino"])
    for _ in range(10):
        out = beam_decode(rand_grid(rng, 6), lex, lm_weight=0.0, beam_width=8)
        assert all(w in lex for w in out.words)


def test_agrees_with_exhaustive_on_100_random_tiny_instances(rng):
    inv = default_inventory()
    vocab = phone_vocab()
    all_words = ["baba", "bana", "mhoro", "zvino", "pfuma", "dana", "ruva", "gudo"]
    for trial in range(100):
        words = sorted(rng.choice(all_words, size=int(rng.integers(2, 5)), replace=False))
        lex = build_lexicon(list(words), inv)
        lm = make_lm(vocab, seed=trial % 7)
        t = int(rng.integers(3, 9))
        grid = rand_grid(rng, t)
        lam = float(rng.choice([0.0, 0.3, 1.0]))
        beta = float(rng.choice([0.0, 0.5]))
        want = exhaustive_decode(grid, lex, lm, vocab, lm_weight=lam, word_bonus=beta, max_words=2)
        got = beam_decode(grid, lex, lm, vocab, lm_weight=lam, word_bonus=beta, beam_width=4096)
        assert got.words == want.words, f"trial {trial}: {got.words} vs {want.words}"
        assert got.score == pytest.approx(want.score, abs=1e-6)


def test_beam_width_never_decreases_score(rng):
    # On these 6-frame grids it holds from width 8 upward (0 violations in
    # a 1000-seed sweep). Below that, and at any width on longer grids with
    # larger lexicons (see the README), pruned prefix search can genuinely
    # regress: merge mass lost to pruning distorts mid-search ranking (e.g.
    # width 2 beating width 4 on near-uniform grids).
    vocab = phone_vocab()
    lex = build_lexicon(["baba", "mhoro", "dana"])
    lm = make_lm(vocab, seed=1)
    for trial in range(200):
        grid = rand_grid(rng, 6)
        scores = [beam_decode(grid, lex, lm, vocab, beam_width=w).score
                  for w in (8, 32, 256, 1024, 4096)]
        for a, b in zip(scores, scores[1:]):
            assert b >= a - 1e-9


def test_uniform_grid_prefers_lm_choice():
    # acoustics constant across equal-length alignments: LM decides
    vocab = phone_vocab()
    lex = build_lexicon(["baba", "dana"])  # equal-length pronunciations
    lm = make_lm(vocab, seed=3)
    grid = np.log(np.full((6, 55), 1.0 / 55))
    out = beam_decode(grid, lex, lm, vocab, lm_weight=1.0, beam_width=4096)
    want = exhaustive_decode(grid, lex, lm, vocab, lm_weight=1.0, max_words=2)
    assert out.words == want.words


def test_large_lm_weight_drives_toward_lm_argmax(rng):
    vocab = phone_vocab()
    lex = build_lexicon(["baba", "mhoro"])
    lm = make_lm(vocab, seed=5)
    grid = rand_grid(rng, 6)
    want = exhaustive_decode(grid, lex, lm, vocab, lm_weight=100.0, max_words=1)
    got = beam_decode(grid, lex, lm, vocab, lm_weight=100.0, beam_width=4096)
    assert got.words == want.words


def test_lambda_scaling_invariance_of_argmax(rng):
    # argmax(ac + lam*(c*lm)) with lam/c equals argmax(ac + lam*lm):
    # enumerate candidates through the real scoring primitives
    from itertools import product
    from shona_asr.ctc import ctc_forward_logprob
    from shona_asr.lm import lm_score, word_tokens

    vocab = phone_vocab()
    lex = build_lexicon(["baba", "dana", "ruva"])
    lm = make_lm(vocab, seed=2)
    log_grid = rand_grid(rng, 5)
    candidates = [(w,) for w in lex.words()] + list(product(lex.words(), repeat=2))
    scored = []
    for seq in candidates:
        phones = [p for w in seq for p in lex.pronunciations[w]]
        ac = ctc_forward_logprob(log_grid, [phones])[0]
        if ac == float("-inf"):
            continue
        tokens = [t for w in seq for t in word_tokens(w, lex.phone_symbols(w), "phone")]
        scored.append((seq, ac, lm_score(lm, tokens, vocab)))
    for lam, c in ((1.0, 3.0), (0.5, 10.0)):
        base = max(scored, key=lambda x: x[1] + lam * x[2])
        rescaled = max(scored, key=lambda x: x[1] + (lam / c) * (c * x[2]))
        assert base[0] == rescaled[0]


def test_deterministic_given_identical_inputs(rng):
    vocab = phone_vocab()
    lex = build_lexicon(["baba", "mhoro", "zvino"])
    lm = make_lm(vocab, seed=4)
    grid = rand_grid(rng, 7)
    a = beam_decode(grid, lex, lm, vocab, beam_width=8)
    b = beam_decode(grid, lex, lm, vocab, beam_width=8)
    assert a.words == b.words and a.score == b.score


def test_exhaustive_guard_rails(rng):
    lex6 = build_lexicon(["baba", "bana", "dana", "ruva", "gudo", "mhoro"])
    with pytest.raises(ValueError, match="guard rail"):
        exhaustive_decode(rand_grid(rng, 4), lex6)
    lex = build_lexicon(["baba"])
    with pytest.raises(ValueError, match="guard rail"):
        exhaustive_decode(rand_grid(rng, 9), lex)
    with pytest.raises(ValueError, match="guard rail"):
        exhaustive_decode(rand_grid(rng, 4), lex, max_words=4)


def test_exhaustive_single_word_lexicon(rng):
    lex = build_lexicon(["baba"])
    grid = grid_for_phones(lex.pronunciations["baba"])
    out = exhaustive_decode(grid, lex, lm_weight=0.0)
    assert out.words == ["baba"]


def test_empty_transcript_flag_on_impossible_grid():
    # one frame cannot fit any 2+ phone word: only the empty transcript fits
    lex = build_lexicon(["baba"])
    grid = np.log(np.full((1, 55), 1.0 / 55))
    out = exhaustive_decode(grid, lex, lm_weight=0.0)
    assert out.words == []
    out_beam = beam_decode(grid, lex, lm_weight=0.0, beam_width=4)
    assert out_beam.words == []


REFERENCE_POOL = ["baba", "bana", "dana", "gudo", "imba", "mhoro", "moto", "mvura", "pfuma",
                  "ruva", "sadza", "sekuru", "tswanda", "zvino"]


def test_matches_reference_search_on_random_grids(rng):
    # the array search against the dict-of-hypotheses search it replaced
    vocab = phone_vocab()
    for trial in range(50):
        words = sorted(rng.choice(REFERENCE_POOL, size=int(rng.integers(6, 11)), replace=False))
        lex = build_lexicon(list(words))
        lm = make_lm(vocab, seed=trial % 5)
        grid = rand_grid(rng, int(rng.integers(20, 61)))
        beta = float(rng.choice([0.0, 0.5]))
        for lam in (1.0, 0.0):
            for width in (1, 4, 16, 64):
                got = beam_decode(grid, lex, lm, vocab, lm_weight=lam, word_bonus=beta,
                                  beam_width=width)
                want_words, want_score = reference_beam_decode(grid, lex, lm, vocab, lm_weight=lam,
                                                               word_bonus=beta, beam_width=width)
                assert got.words == want_words, f"trial {trial}, lm_weight {lam}, width {width}"
                assert got.score == pytest.approx(want_score, rel=0, abs=1e-9)


def test_float32_grid_and_lm_decode_the_same_words(rng):
    # decode runs a checkpoint's float32 tensors; the search's own sums stay float64
    vocab = phone_vocab()
    for trial in range(30):
        words = sorted(rng.choice(REFERENCE_POOL, size=int(rng.integers(6, 11)), replace=False))
        lex = build_lexicon(list(words))
        lm32 = params_as(make_lm(vocab, seed=trial % 5), np.float32)
        grid32 = rand_grid(rng, int(rng.integers(20, 61))).astype(np.float32)
        for width in (4, 16):
            narrow = beam_decode(grid32, lex, lm32, vocab, beam_width=width)
            wide = beam_decode(grid32.astype(np.float64), lex, params_as(lm32, np.float64), vocab,
                               beam_width=width)
            assert narrow.words == wide.words, f"trial {trial}, width {width}"
            assert narrow.score == pytest.approx(wide.score, rel=0, abs=1e-4)


def test_matches_reference_search_with_ties_at_the_cut():
    # a uniform grid makes many hypotheses score exactly alike, so the
    # (words, phone path) tie-break decides what width 2 keeps
    vocab = phone_vocab()
    lex = build_lexicon(["baba", "bana", "dana", "imba", "moto", "ruva"])
    lm = make_lm(vocab, seed=6)
    grid = np.log(np.full((24, 55), 1.0 / 55))
    for lam in (0.0, 1.0):
        got = beam_decode(grid, lex, lm, vocab, lm_weight=lam, beam_width=2)
        want_words, want_score = reference_beam_decode(grid, lex, lm, vocab, lm_weight=lam,
                                                       beam_width=2)
        assert got.words == want_words
        assert got.score == pytest.approx(want_score, rel=0, abs=1e-9)


def test_search_stats_repeat_and_beam_never_exceeds_width(rng, monkeypatch):
    vocab = phone_vocab()
    lex = build_lexicon(["baba", "bana", "mhoro", "zvino", "pfuma", "dana"])
    lm = make_lm(vocab, seed=8)
    grid = rand_grid(rng, 40)
    kept = []

    def recording_prune(*args):
        keep = prune(*args)
        kept.append(len(keep))
        return keep

    prune = decoder._prune
    monkeypatch.setattr(decoder, "_prune", recording_prune)
    for width in (1, 3, 16):
        kept.clear()
        a = beam_decode(grid, lex, lm, vocab, beam_width=width).stats
        b = beam_decode(grid, lex, lm, vocab, beam_width=width).stats
        assert a == b
        assert len(kept) == 2 * grid.shape[0] and max(kept) <= width
        assert a.frames == grid.shape[0]
        assert a.candidates_generated - a.candidates_pruned == sum(kept) // 2
        assert a.lm_step_calls > 0 and a.lm_rows_stepped >= a.lm_step_calls
    no_lm = beam_decode(grid, lex, lm, vocab, lm_weight=0.0, beam_width=16).stats
    assert no_lm.lm_step_calls == no_lm.lm_rows_stepped == 0
    total = DecodeStats()
    total.add(a)
    total.add(no_lm)
    assert total.frames == 2 * grid.shape[0]


def test_grid_too_short_for_any_word_is_incomplete():
    lex = build_lexicon(["baba", "mhoro"])
    assert lex.min_frames == 4
    short = np.log(np.full((3, 55), 1.0 / 55))
    for out in (beam_decode(short, lex, lm_weight=0.0, beam_width=64),
                exhaustive_decode(short, lex, lm_weight=0.0)):
        assert out.words == [] and not out.complete
        assert out.score == pytest.approx(3 * np.log(1.0 / 55))  # the empty transcript
    assert beam_decode(np.log(np.full((4, 55), 1.0 / 55)), lex, lm_weight=0.0).complete


def test_batched_rescoring_decodes_like_one_recursion_per_finalist(rng, monkeypatch):
    vocab = phone_vocab()
    cases = []
    for trial in range(8):
        words = sorted(rng.choice(REFERENCE_POOL, size=int(rng.integers(6, 11)), replace=False))
        grid = rand_grid(rng, int(rng.integers(20, 61)))
        if trial % 2:
            grid = grid.astype(np.float32)
        for lam in (1.0, 0.0):
            for width in (1, 16, 64):
                cases.append((grid, build_lexicon(list(words)), make_lm(vocab, seed=trial % 5), lam,
                              width))

    def run():
        return [beam_decode(grid, lex, lm, vocab, lm_weight=lam, beam_width=width)
                for grid, lex, lm, lam, width in cases]

    batch_sizes = []

    def recording(log_grid, targets):
        batch_sizes.append(len(targets))
        return batched(log_grid, targets)

    batched = decoder.ctc_forward_logprob
    monkeypatch.setattr(decoder, "ctc_forward_logprob", recording)
    got = run()
    monkeypatch.setattr(decoder, "ctc_forward_logprob", lambda log_grid, targets: [
        batched(log_grid, [target])[0] for target in targets])
    want = run()
    assert got == want  # words, score, complete and stats
    assert [repr(t.score) for t in got] == [repr(t.score) for t in want]
    assert len(batch_sizes) == len(cases) and max(batch_sizes) >= 10


@pytest.mark.parametrize("weights", [dict(lm_weight=float("nan")), dict(lm_weight=float("inf")),
                                     dict(word_bonus=float("nan")), dict(word_bonus=float("-inf"))])
def test_non_finite_weights_raise(rng, weights):
    vocab = phone_vocab()
    with pytest.raises(ValueError, match="finite"):
        beam_decode(rand_grid(rng, 10), build_lexicon(["baba", "mhoro"]), make_lm(vocab), vocab,
                    **weights)


def test_transcript_text():
    assert Transcript(["baba", "mhoro"], -1.0).text() == "baba mhoro"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cached_rows_give_the_reference_totals_bit_for_bit(rng, monkeypatch, dtype):
    # each history's total is the chain of one-row score_tokens runs over its
    # words, and its final total adds sequence_logprob_end of that chain's state
    from oracles import _ReferenceLm

    vocab = phone_vocab()
    calls = []  # (fusion, finalists, final totals) per decode

    def recording(self, hists):
        totals = final_totals(self, hists)
        calls.append((self, list(hists), totals))
        return totals

    final_totals = decoder._LmFusion.final_totals
    monkeypatch.setattr(decoder._LmFusion, "final_totals", recording)
    checked = 0
    for trial in range(3):
        words = sorted(rng.choice(REFERENCE_POOL, size=int(rng.integers(6, 11)), replace=False))
        lex = build_lexicon(list(words))
        lm = params_as(build_lm(vocab, LmConfig(), seed=trial), dtype)
        grid = rand_grid(rng, int(rng.integers(30, 61))).astype(dtype)
        calls.clear()
        beam_decode(grid, lex, lm, vocab, beam_width=16)
        (fusion, finalists, totals), = calls
        reference = _ReferenceLm(lm, vocab, lex)
        for h, words_h in enumerate(fusion.words):
            key = ()
            for word in words_h:
                key = reference.extend(key, word)
            assert fusion.lm_total[h] == reference.total(key), (trial, words_h)
        for h, total in zip(finalists, totals.tolist()):
            assert total == reference.final_total(fusion.words[h]), (trial, fusion.words[h])
        checked += len(finalists)
    assert checked >= 10


def test_word_lm_matches_reference_search_on_random_grids(rng):
    # every word is one token, so each increment comes wholly from a cached row
    for trial in range(12):
        words = sorted(rng.choice(REFERENCE_POOL, size=int(rng.integers(6, 11)), replace=False))
        lex = build_lexicon(list(words))
        vocab = TokenVocab.build(REFERENCE_POOL[trial % 3:], "word")  # some words are <unk>
        lm = make_lm(vocab, seed=trial % 5)
        grid = rand_grid(rng, int(rng.integers(20, 61)))
        beta = float(rng.choice([0.0, 0.5]))
        for width in (1, 16, 64):
            got = beam_decode(grid, lex, lm, vocab, word_bonus=beta, beam_width=width)
            want_words, want_score = reference_beam_decode(grid, lex, lm, vocab, word_bonus=beta,
                                                           beam_width=width)
            assert got.words == want_words, f"trial {trial}, width {width}"
            assert got.score == pytest.approx(want_score, rel=0, abs=1e-9)


@pytest.mark.parametrize("granularity", ["phone", "word"])
def test_token_table_follows_word_tokens(granularity):
    from shona_asr.lm import word_tokens

    lex = build_lexicon(REFERENCE_POOL)
    units = default_inventory().symbols() if granularity == "phone" else REFERENCE_POOL[2:]
    vocab = TokenVocab.build(units, granularity)
    fusion = decoder._LmFusion(lex, make_lm(vocab), vocab, DecodeStats())
    for w, word in enumerate(fusion.names):
        want = [vocab.index(t) for t in word_tokens(word, lex.phone_symbols(word), granularity)]
        rest = fusion.rest_tokens[w, :fusion.rest_length[w]].tolist()
        assert [fusion.first_token[w]] + rest == want


def test_search_stats_of_a_fixed_decode_are_pinned():
    # the exact counts of one search; a change that moves the LM's work
    # (or the beam's) updates these on purpose
    vocab = phone_vocab()
    lex = build_lexicon(["baba", "bana", "dana", "imba", "mhoro", "moto", "ruva", "sadza"])
    grid = rand_grid(np.random.default_rng(2026), 48)
    got = beam_decode(grid, lex, make_lm(vocab, seed=3), vocab, beam_width=16).stats
    assert got == DecodeStats(frames=48, candidates_generated=2606, candidates_pruned=1847,
                              lm_step_calls=22, lm_rows_stepped=35, lm_cache_hits=261)
