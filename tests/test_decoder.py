import numpy as np
import pytest

from conftest import params_as
from oracles import exhaustive_decode, reference_beam_decode
from shona_asr import decoder
from shona_asr.corpusgen import gen_word
from shona_asr.ctc import ctc_forward_logprob
from shona_asr.decoder import DecodeStats, Transcript, beam_decode
from shona_asr.lexicon import Lexicon, build_lexicon
from shona_asr.lm import LmConfig, TokenVocab, build_lm, lm_score, word_tokens
from shona_asr.phones import default_inventory


SMALL_LM = LmConfig(embed_dim=8, lstm1_units=10, lstm2_units=8)


def make_lm(vocab, seed=0):
    return build_lm(vocab, SMALL_LM, seed)


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
    for width in (1, 3, 16, 64):
        kept.clear()
        a = beam_decode(grid, lex, lm, vocab, beam_width=width).stats
        b = beam_decode(grid, lex, lm, vocab, beam_width=width).stats
        assert a == b
        assert len(kept) == 2 * grid.shape[0] and max(kept) <= width
        assert a.frames == grid.shape[0]
        assert a.candidates_generated - a.candidates_pruned == sum(kept) // 2
        assert a.lm_rows_stepped >= a.lm_step_calls
        # below width 64 this search makes one-word histories only, whose
        # LM rows all come from the prepared first-word table
        assert a.lm_step_calls > 0 or width < 64
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


@pytest.mark.parametrize("granularity", ["phone", "word"])
def test_last_frame_keeps_the_best_word_boundary_hypothesis(granularity):
    # the grid spells b a n: at beam 1 the last frame's best hypothesis is
    # inside "bana", which used to leave no finalist (an incomplete, empty
    # decode); the best one at a word boundary is "ba" then, kept beside it
    lex = build_lexicon(["ba", "bana"])
    units = default_inventory().symbols() if granularity == "phone" else lex.words()
    vocab = TokenVocab.build(units, granularity)
    lm = make_lm(vocab, seed=1)
    grid = grid_for_phones(lex.pronunciations["bana"][:3], blank_frames=False)
    for lam in (0.0, 1.0):
        out = beam_decode(grid, lex, lm, vocab, lm_weight=lam, beam_width=1)
        objective = (ctc_forward_logprob(grid, [list(lex.pronunciations["ba"])])[0]
                     + lam * lm_score(lm, word_tokens("ba", lex.phone_symbols("ba"), granularity),
                                      vocab))
        assert out.words == ["ba"] and out.complete
        assert out.score == pytest.approx(objective, rel=0, abs=1e-9)
        assert (out.words, out.score) == reference_beam_decode(grid, lex, lm, vocab,
                                                               lm_weight=lam, beam_width=1)
        assert beam_decode(grid, lex, lm, vocab, lm_weight=lam, beam_width=2).words == ["ba"]


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


def generated_lexicon(n):
    """A lexicon of n distinct generated words of one to four syllables."""
    inventory, rng = default_inventory(), np.random.default_rng(12345)
    prons = {}
    while len(prons) < n:
        word, phones = gen_word(rng, inventory, (1, 4))
        prons.setdefault(word, tuple(phones))
    return Lexicon(prons, inventory)


@pytest.mark.parametrize("granularity", ["phone", "word"])
def test_token_table_follows_word_tokens(granularity):
    for lex in (build_lexicon(REFERENCE_POOL), generated_lexicon(2000)):
        units = default_inventory().symbols() if granularity == "phone" else lex.words()[2::2]
        vocab = TokenVocab.build(units, granularity)  # in word mode, some words are <unk>
        search_lm = decoder._SearchLm(make_lm(vocab), lex, vocab)
        for w, word in enumerate(lex.flat.words):
            want = [vocab.index(t) for t in word_tokens(word, lex.phone_symbols(word), granularity)]
            rest = search_lm.rest_tokens[w, :search_lm.rest_length[w]].tolist()
            assert [search_lm.first_token[w]] + rest == want, word


def test_search_stats_of_a_fixed_decode_are_pinned():
    # the exact counts of one search; a change that moves the LM's work
    # (or the beam's) updates these on purpose
    vocab = phone_vocab()
    lex = build_lexicon(["baba", "bana", "dana", "imba", "mhoro", "moto", "ruva", "sadza"])
    grid = rand_grid(np.random.default_rng(2026), 48)
    got = beam_decode(grid, lex, make_lm(vocab, seed=3), vocab, beam_width=16).stats
    assert got == DecodeStats(frames=48, candidates_generated=2606, candidates_pruned=1847,
                              lm_step_calls=5, lm_rows_stepped=5, lm_cache_hits=261)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("granularity", ["phone", "word"])
def test_first_word_table_equals_one_row_runs_from_bos(granularity, dtype):
    # searches fill the table's rows (over 400) in batches of whatever words
    # they reach, stepped in one run with their deeper histories' words; each
    # row must be that of the word's own one-row run, which is what a search
    # stepped before
    from shona_asr.lm import (LmWeights, lm_initial_state, lm_step, pad_runs, score_tokens,
                              word_tokens)
    from shona_asr.phones import VOWELS

    inventory = default_inventory()
    syllables = [onset + vowel for onset in inventory.onset_spellings() for vowel in VOWELS]
    lex = build_lexicon([a + b for a in syllables[:30] for b in syllables[:15]])
    assert len(lex) > 400
    units = inventory.symbols() if granularity == "phone" else lex.words()[::2]  # some <unk>
    vocab = TokenVocab.build(units, granularity)
    lm = params_as(build_lm(vocab, LmConfig(), seed=1), dtype)
    table = decoder._SearchLm(lm, lex, vocab)
    some = np.arange(0, len(lex), 7)
    decoder._LmFusion(lex, table, DecodeStats()).extend(np.zeros(len(some), dtype=np.int64), some)
    assert np.flatnonzero(table.filled).tolist() == some.tolist()
    # a second search copies three of those rows, then reaches every word
    # in a frame that also extends its three one-word histories
    fusion = decoder._LmFusion(lex, table, DecodeStats())
    copied = fusion.extend(np.zeros(3, dtype=np.int64), some[:3])
    assert fusion.stats == DecodeStats()
    assert fusion.state[copied].tobytes() == table.first_state[some[:3]].tobytes()
    hists = np.concatenate((np.zeros(len(lex), dtype=np.int64), np.repeat(copied, 5)))
    deeper = np.arange(15) * 29
    fusion.extend(hists, np.concatenate((np.arange(len(lex)), deeper)))
    assert table.filled.all()
    # the search counts the two-word histories' rows only (see `DecodeStats`)
    assert fusion.stats.lm_rows_stepped == table.rest_length[deeper].sum()
    weights = LmWeights.from_params(lm)
    for w, word in enumerate(lex.flat.words):
        run = [vocab.index(t) for t in word_tokens(word, lex.phone_symbols(word), granularity)]
        state, last, total = score_tokens(weights, lm_initial_state(weights),
                                          np.array([vocab.bos]), *pad_runs([run]))
        state, next_logp = lm_step(weights, state, last)
        assert table.first_total[w] == total[0], word
        assert table.first_state[w].tobytes() == state[0].tobytes(), word
        assert table.first_next_logp[w].tobytes() == next_logp[0].tobytes(), word
    assert table.first_state.dtype == table.first_next_logp.dtype == dtype


def restored_model(path):
    """(lexicon, vocab, LM) of a small model written to path and restored from it."""
    from shona_asr.acoustic import build_acoustic_model
    from shona_asr.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
    from shona_asr.train import TrainConfig, restore_models

    inventory, vocab = default_inventory(), phone_vocab()
    cfg = TrainConfig(lexicon_words=REFERENCE_POOL, lm=SMALL_LM)
    tensors = {}
    for prefix, params in (("acoustic.", build_acoustic_model(cfg.acoustic, len(inventory), 0)),
                           ("lm.", make_lm(vocab))):
        tensors.update((prefix + name, t.data) for name, t in params.items())
    save_checkpoint(Checkpoint(cfg.to_dict(), inventory.to_lines(), vocab.tokens, tensors), path)
    _, _, vocab, _, lm, lex = restore_models(load_checkpoint(path))
    return lex, vocab, lm


def test_a_restored_lm_is_prepared_once_across_decodes(rng, tmp_path, monkeypatch):
    built = []

    class Counting(decoder._SearchLm):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(decoder, "_SearchLm", Counting)
    lex, vocab, lm = restored_model(tmp_path / "model.ckpt")
    grids = [rand_grid(rng, 40).astype(np.float32) for _ in range(3)]
    outs = [beam_decode(grid, lex, lm, vocab) for grid in grids]
    assert len(built) == 1 and built[0][0] is lm
    # the last model's preparation alone is kept: A, B, A, A prepares three times
    other = restored_model(tmp_path / "other.ckpt")
    for model_lex, model_vocab, model in (other, (lex, vocab, lm), (lex, vocab, lm)):
        beam_decode(grids[0], model_lex, model, model_vocab)
    assert len(built) == 3 and built[1][0] is other[2] and built[2][0] is lm
    # a newly built lexicon over the same words prepares again, its token runs with it
    fresh = build_lexicon(lex.words())
    assert beam_decode(grids[0], fresh, lm, vocab) == outs[0]
    assert len(built) == 4 and built[3][1] is fresh
    # other LM code, as a tracer's wrapper, prepares again and sees that work
    calls = []
    score_tokens = decoder.score_tokens
    monkeypatch.setattr(decoder, "score_tokens",
                        lambda *args: calls.append(len(args[1])) or score_tokens(*args))
    assert beam_decode(grids[0], fresh, lm, vocab) == outs[0]
    assert len(built) == 5 and calls


def test_a_writeable_lm_edited_in_place_decodes_as_edited(rng):
    vocab = phone_vocab()
    lex = build_lexicon(REFERENCE_POOL)
    grid = rand_grid(rng, 40)
    lm = make_lm(vocab, seed=3)
    view = lm.read_only()  # read-only, but its arrays are written through lm
    before = beam_decode(grid, lex, lm, vocab), beam_decode(grid, lex, view, vocab)
    lm["embed.W"].data *= 3.0
    lm["out.b"].data[vocab.eos] += 2.0
    want = beam_decode(grid, lex, params_as(lm, np.float64), vocab)  # a fresh copy
    for old, model in zip(before, (lm, view)):
        got = beam_decode(grid, lex, model, vocab)
        assert got == want and repr(got.score) == repr(want.score)
        assert got.score != old.score


def test_a_decode_is_the_same_first_or_after_other_decodes(rng, tmp_path):
    grids = [rand_grid(rng, int(rng.integers(30, 61))).astype(np.float32) for _ in range(4)]
    lex, vocab, lm = restored_model(tmp_path / "first.ckpt")
    first = beam_decode(grids[0], lex, lm, vocab)
    lex, vocab, lm = restored_model(tmp_path / "later.ckpt")
    for grid in grids[1:]:
        beam_decode(grid, lex, lm, vocab)
    later = beam_decode(grids[0], lex, lm, vocab)
    assert later == first  # words, score, complete and stats
    assert repr(later.score) == repr(first.score) and first.stats.lm_cache_hits > 0


def test_a_search_fills_the_first_word_rows_it_reaches_and_no_others(rng, monkeypatch):
    # a search that shares no preparation steps only its own first words
    vocab = phone_vocab()
    lex = build_lexicon(REFERENCE_POOL)
    built, fusions = [], []

    class Recording(decoder._SearchLm):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    def recording(self, hists):
        fusions.append(self)
        return final_totals(self, hists)

    final_totals = decoder._LmFusion.final_totals
    monkeypatch.setattr(decoder, "_SearchLm", Recording)
    monkeypatch.setattr(decoder._LmFusion, "final_totals", recording)
    lm = make_lm(vocab, seed=3)  # writeable, so each search prepares its own
    for width in (1, 16):
        beam_decode(rand_grid(rng, 40), lex, lm, vocab, beam_width=width)
        reached = {words[0] for words in fusions[-1].words if len(words) == 1}
        filled = {lex.flat.words[w] for w in np.flatnonzero(built[-1].filled)}
        assert filled == reached and 0 < len(reached) < len(lex)
