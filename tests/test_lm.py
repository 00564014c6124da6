import dataclasses
import math

import numpy as np
import pytest

from conftest import params_as
from shona_asr.lm import (LmConfig, LmWeights, TokenVocab, build_lm, corpus_loss,
                          lm_initial_state, lm_score, lm_step, lm_train, perplexity,
                          pad_runs, score_tokens, sentence_loss, word_tokens)
from shona_asr.optim import OptimizerConfig, OptimizerState


def phone_vocab(n=54):
    return TokenVocab.build([f"p{i}" for i in range(n)], "phone")


def zero_output_layer(params):
    params["out.W"].data[:] = 0.0
    params["out.b"].data[:] = 0.0


def test_vocab_requires_special_tokens():
    with pytest.raises(ValueError, match="special token"):
        TokenVocab(["a", "b", "c"])


def test_vocab_indices_dense_and_unk_fallback():
    vocab = TokenVocab.build(["x", "y"])
    assert len(vocab) == 6
    assert [vocab.index(t) for t in vocab.tokens] == list(range(6))
    assert vocab.index("zzz") == vocab.index("<unk>")


def test_build_lm_shapes_for_58_token_vocab():
    vocab = phone_vocab(54)
    assert len(vocab) == 58
    params = build_lm(vocab, LmConfig(), seed=0)
    assert params["out.W"].data.shape == (58, 64)
    assert params["lstm1.W_ih"].data.shape == (256, 64)
    assert params["lstm2.W_ih"].data.shape == (256, 64)


def test_build_lm_deterministic():
    vocab = phone_vocab(5)
    a = build_lm(vocab, LmConfig(), seed=3)
    b = build_lm(vocab, LmConfig(), seed=3)
    for name, t in a.items():
        assert np.array_equal(t.data, b[name].data)


def test_tiny_vocab_rejected():
    class TwoTokenStub:
        def __len__(self):
            return 2

    with pytest.raises(ValueError, match="too small"):
        build_lm(TwoTokenStub(), LmConfig(), 0)


def test_uniform_model_scores_length_one_sequence():
    vocab = phone_vocab(10)
    params = build_lm(vocab, LmConfig(embed_dim=8, lstm1_units=8, lstm2_units=8), seed=0)
    zero_output_layer(params)
    score = lm_score(params, ["p3"], vocab)
    assert score == pytest.approx(2 * math.log(1.0 / len(vocab)), abs=1e-9)


def test_scores_are_never_positive(rng):
    vocab = phone_vocab(6)
    params = build_lm(vocab, LmConfig(embed_dim=8, lstm1_units=8, lstm2_units=8), seed=1)
    for _ in range(10):
        n = int(rng.integers(1, 8))
        tokens = [f"p{int(rng.integers(0, 6))}" for _ in range(n)]
        assert lm_score(params, tokens, vocab) <= 0.0


def test_next_token_distribution_sums_to_one(rng):
    vocab = phone_vocab(7)
    params = build_lm(vocab, LmConfig(embed_dim=8, lstm1_units=10, lstm2_units=6), seed=2)
    weights = LmWeights.from_params(params)
    state = lm_initial_state(weights)
    last = vocab.bos
    for tok in ["p1", "p5", "<wb>"]:
        state, log_probs = lm_step(weights, state, last)
        assert abs(np.exp(log_probs).sum() - 1.0) < 1e-6
        last = vocab.index(tok)


def test_stacked_rows_score_like_single_rows(rng):
    # rows of different run lengths (one empty) step together and drop out as they end
    vocab = phone_vocab(6)
    weights = LmWeights.from_params(
        build_lm(vocab, LmConfig(embed_dim=8, lstm1_units=10, lstm2_units=6), seed=9))
    five = np.repeat(lm_initial_state(weights), 5, axis=0)
    state, last, _ = score_tokens(weights, five, np.full(5, vocab.bos),
                                  *pad_runs([[4], [5], [6], [7], [8]]))
    runs = [[int(v) for v in rng.integers(2, len(vocab), size=n)] for n in (3, 0, 5, 1, 5)]
    got_state, got_last, got_totals = score_tokens(weights, state, last, *pad_runs(runs))
    assert got_totals[1] == 0.0 and got_last[1] == last[1]
    for i, run in enumerate(runs):
        one_state, one_last, one_total = score_tokens(weights, state[i:i + 1], last[i:i + 1],
                                                     *pad_runs([run]))
        assert one_total[0] == pytest.approx(got_totals[i], abs=1e-12)
        assert one_last[0] == got_last[i]
        np.testing.assert_allclose(one_state[0], got_state[i], rtol=0, atol=1e-12)


def test_float32_weights_step_float32_states_and_sum_float64_totals(rng):
    vocab = phone_vocab(7)
    p32 = params_as(build_lm(vocab, LmConfig(embed_dim=8, lstm1_units=10, lstm2_units=6), seed=4),
                    np.float32)
    runs = [[int(v) for v in rng.integers(2, len(vocab), size=n)] for n in (4, 1, 6)]
    totals = []
    for dtype in (np.dtype(np.float32), np.dtype(np.float64)):
        weights = LmWeights.from_params(params_as(p32, dtype))
        assert {getattr(weights, f.name).dtype for f in dataclasses.fields(weights)} == {dtype}
        init = lm_initial_state(weights)
        state, _, total = score_tokens(weights, np.repeat(init, 3, axis=0), np.full(3, vocab.bos),
                                       *pad_runs(runs))
        assert init.shape == (1, 2 * 10 + 2 * 6) and state.shape == (3, init.shape[1])
        assert {init.dtype, state.dtype} == {dtype}
        assert total.dtype == np.float64
        totals.append(total)
    np.testing.assert_allclose(totals[0], totals[1], rtol=0, atol=1e-4)


def test_score_matches_teacher_forced_graph_path(rng):
    # the numpy fast path and the autodiff path must agree exactly
    vocab = phone_vocab(5)
    params = build_lm(vocab, LmConfig(embed_dim=6, lstm1_units=7, lstm2_units=5), seed=4)
    tokens = ["p0", "p3", "<wb>", "p2"]
    indices = [vocab.index(t) for t in tokens]
    fast = lm_score(params, tokens, vocab)
    loss = sentence_loss(params, indices, vocab)  # mean NLL per predicted token
    graph = -float(loss.data) * (len(indices) + 1)
    assert fast == pytest.approx(graph, abs=1e-10)


def test_scoring_and_training_paths_agree_on_default_model(rng):
    # lm_score steps lm_step token by token; sentence_loss runs lstm_layer over the sentence
    vocab = phone_vocab(54)
    params = build_lm(vocab, LmConfig(), seed=13)
    for n in [1, 2, 40] + [int(v) for v in rng.integers(1, 41, size=9)]:
        indices = [int(v) for v in rng.integers(2, len(vocab), size=n)]  # <wb>, <unk> and phones
        tokens = [vocab.tokens[i] for i in indices]
        graph = -float(sentence_loss(params, indices, vocab).data) * (n + 1)
        assert abs(lm_score(params, tokens, vocab) - graph) < 1e-9


def test_training_on_an_empty_sentence_takes_one_step():
    vocab = phone_vocab(4)
    params = build_lm(vocab, LmConfig(embed_dim=6, lstm1_units=6, lstm2_units=6), seed=14)
    before = {name: t.data.copy() for name, t in params.items()}
    trace = lm_train(params, [[]], vocab, epochs=1)
    assert len(trace) == 1 and math.isfinite(trace[0])
    assert not np.array_equal(params["out.b"].data, before["out.b"])
    # one input step: the recurrent weights get a zero gradient, so Adam leaves them alone
    assert np.array_equal(params["lstm1.W_hh"].data, before["lstm1.W_hh"])


def test_uniform_perplexity_equals_vocab_size():
    vocab = phone_vocab(54)
    params = build_lm(vocab, LmConfig(embed_dim=8, lstm1_units=8, lstm2_units=8), seed=5)
    zero_output_layer(params)
    ppl = perplexity(params, [["p0", "p1"], ["p9"]], vocab)
    assert ppl == pytest.approx(len(vocab), abs=1e-3)


def test_perplexity_at_least_one(rng):
    vocab = phone_vocab(4)
    params = build_lm(vocab, LmConfig(embed_dim=6, lstm1_units=6, lstm2_units=6), seed=6)
    corpus = [["p0", "p1", "p2"], ["p3"]]
    assert perplexity(params, corpus, vocab) >= 1.0


def test_zero_epochs_leaves_parameters_unchanged():
    vocab = phone_vocab(4)
    params = build_lm(vocab, LmConfig(embed_dim=6, lstm1_units=6, lstm2_units=6), seed=7)
    before = {name: t.data.copy() for name, t in params.items()}
    trace = lm_train(params, [["p0", "p1"]], vocab, epochs=0)
    assert trace == []
    for name, t in params.items():
        assert np.array_equal(t.data, before[name])


def test_single_sentence_overfit_drives_loss_below_0_1():
    vocab = phone_vocab(8)
    params = build_lm(vocab, LmConfig(embed_dim=16, lstm1_units=24, lstm2_units=16), seed=8)
    sentence = ["p0", "p3", "<wb>", "p5", "p1"]
    trace = lm_train(params, [sentence], vocab, epochs=200,
                     optimizer=OptimizerState(OptimizerConfig(kind="adam", learning_rate=5e-3)))
    assert all(math.isfinite(v) for v in trace)
    assert trace[-1] < 0.1


def test_perplexity_decreases_over_first_epochs():
    vocab = phone_vocab(6)
    params = build_lm(vocab, LmConfig(embed_dim=12, lstm1_units=16, lstm2_units=12), seed=9)
    sentence = ["p2", "p4", "<wb>", "p1"]
    ppls = []
    opt = OptimizerState(OptimizerConfig(kind="adam", learning_rate=5e-3))
    for _ in range(10):
        ppls.append(perplexity(params, [sentence], vocab))
        lm_train(params, [sentence], vocab, epochs=1, optimizer=opt)
    ppls.append(perplexity(params, [sentence], vocab))
    assert all(b < a for a, b in zip(ppls, ppls[1:]))


def test_overfit_sentence_beats_single_edit_variants():
    vocab = phone_vocab(6)
    params = build_lm(vocab, LmConfig(embed_dim=16, lstm1_units=16, lstm2_units=12), seed=10)
    sentence = ["p0", "p1", "<wb>", "p2", "p3"]
    lm_train(params, [sentence], vocab, epochs=150,
             optimizer=OptimizerState(OptimizerConfig(kind="adam", learning_rate=5e-3)))
    base = lm_score(params, sentence, vocab)
    for pos in range(len(sentence)):
        for repl in ["p4", "p5"]:
            variant = list(sentence)
            if variant[pos] == repl:
                continue
            variant[pos] = repl
            assert lm_score(params, variant, vocab) < base


def test_training_deterministic_given_seed_and_order():
    vocab = phone_vocab(5)
    corpus = [["p0", "p1"], ["p2", "p3", "p4"]]

    def run():
        params = build_lm(vocab, LmConfig(embed_dim=8, lstm1_units=8, lstm2_units=8), seed=11)
        lm_train(params, corpus, vocab, epochs=3)
        return {name: t.data.copy() for name, t in params.items()}

    a, b = run(), run()
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_word_tokens_conventions():
    assert word_tokens("baba", ["b", "a", "b", "a"], "phone") == ["b", "a", "b", "a", "<wb>"]
    assert word_tokens("baba", ["b", "a", "b", "a"], "word") == ["baba"]


def test_empty_corpus_rejected():
    vocab = phone_vocab(4)
    params = build_lm(vocab, LmConfig(embed_dim=6, lstm1_units=6, lstm2_units=6), seed=12)
    with pytest.raises(ValueError):
        lm_train(params, [], vocab, epochs=1)
    with pytest.raises(ValueError):
        perplexity(params, [], vocab)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_corpus_loss_equals_the_per_sentence_lm_score_sum_bit_for_bit(rng, dtype):
    # corpus_loss scores every sentence as one row of a single batched run
    vocab = phone_vocab(54)
    params = params_as(build_lm(vocab, LmConfig(), seed=8), dtype)
    corpus = [[vocab.tokens[int(i)] for i in rng.integers(2, len(vocab), size=n)]
              for n in (5, 1, 23, 5, 40, 2, 11, 17, 3)]
    total, count = 0.0, 0
    for sent in corpus:
        total += -lm_score(params, sent, vocab)
        count += len(sent) + 1
    assert corpus_loss(params, corpus, vocab) == total / count
    assert corpus_loss(params, corpus[2:3], vocab) == -lm_score(params, corpus[2], vocab) / 24
    with pytest.raises(ValueError, match="token sequence must be non-empty"):
        corpus_loss(params, [corpus[0], []], vocab)
    with pytest.raises(ValueError, match="corpus has no tokens"):
        corpus_loss(params, [], vocab)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_units, cfg", [
    (50, LmConfig()), (54, LmConfig()), (9, LmConfig(embed_dim=8, lstm1_units=5, lstm2_units=7)),
], ids=["vocab_54", "vocab_58", "odd_widths"])
def test_a_row_steps_alike_whatever_rows_step_with_it(dtype, n_units, cfg):
    # one row went through GEMV and several through GEMM, and a ragged last block
    # of output columns rounded differently as the row count changed
    vocab = TokenVocab.build([f"p{i}" for i in range(n_units)])
    weights = LmWeights.from_params(params_as(build_lm(vocab, cfg, seed=3), dtype))
    rng = np.random.default_rng(0)
    states = (0.5 * rng.standard_normal((17, lm_initial_state(weights).shape[1]))).astype(dtype)
    tokens = rng.integers(0, len(vocab), 17)
    alone = [lm_step(weights, states[i:i + 1], tokens[i:i + 1]) for i in range(17)]
    for n in (1, 2, 3, 17):
        rows, log_probs = lm_step(weights, states[:n], tokens[:n])
        assert rows.dtype == log_probs.dtype == dtype
        for i in range(n):
            assert np.array_equal(rows[i], alone[i][0][0]), (n, i)
            assert np.array_equal(log_probs[i], alone[i][1][0]), (n, i)


def test_empty_runs_return_state_last_and_initial_totals_unchanged(rng):
    vocab = phone_vocab(6)
    weights = LmWeights.from_params(
        build_lm(vocab, LmConfig(embed_dim=8, lstm1_units=10, lstm2_units=6), seed=2))
    state = rng.standard_normal((3, lm_initial_state(weights).shape[1]))
    last, totals = np.array([4, 0, 7]), np.array([-1.5, 0.0, -0.25])
    got_state, got_last, got_totals = score_tokens(weights, state, last, np.zeros((3, 0)),
                                                   np.zeros(3, dtype=np.int64), totals)
    assert np.array_equal(got_state, state)
    assert got_last.tolist() == last.tolist() and got_totals.tolist() == totals.tolist()
    # a row with a run adds its log-probs onto its initial total; an empty one beside it is kept
    runs = [[3, 5], []]
    one_state, one_last, one_total = score_tokens(weights, state[:1], last[:1], *pad_runs(runs[:1]))
    got_state, got_last, got_totals = score_tokens(weights, state[:2], last[:2], *pad_runs(runs),
                                                   totals[:2])
    assert np.array_equal(got_state[0], one_state[0]) and got_last[0] == one_last[0] == 5
    assert got_totals[0] == pytest.approx(totals[0] + one_total[0], abs=1e-12)
    assert np.array_equal(got_state[1], state[1]) and got_last[1] == 0 and got_totals[1] == 0.0
