import itertools
import math

import numpy as np
import pytest

from oracles import brute_force_ctc_logprob, collapse_path, slice_ctc_loss
from shona_asr import autodiff as ad
from shona_asr.autodiff import Parameters, Tensor, backward
from shona_asr.ctc import ctc_forward_logprob, ctc_greedy_decode, ctc_loss, min_frames


def random_grid(rng, t, k):
    g = rng.uniform(0.05, 1.0, size=(t, k))
    return g / g.sum(axis=1, keepdims=True)


def test_single_frame_single_phone():
    grid = Tensor(np.log(np.array([[0.2, 0.3, 0.5]])))  # blank is index 2
    loss = ctc_loss(grid, [1])
    assert float(loss.data) == pytest.approx(-math.log(0.3), abs=1e-12)


def test_matches_brute_force_small_instance(rng):
    grid = random_grid(rng, 3, 4)
    loss = ctc_loss(Tensor(np.log(grid)), [0, 1])
    want = -brute_force_ctc_logprob(grid, [0, 1])
    assert float(loss.data) == pytest.approx(want, abs=1e-6)


def test_matches_brute_force_exhaustive_small_space(rng):
    # all targets of length <= 3 over alphabets of 1..3 phones, frames 1..5
    for n_classes in (2, 3, 4):
        blank = n_classes - 1
        for t in range(1, 6):
            grid = random_grid(rng, t, n_classes)
            log_grid = np.log(grid)
            for length in range(1, 4):
                for target in itertools.product(range(blank), repeat=length):
                    want = brute_force_ctc_logprob(grid, target)
                    got = ctc_forward_logprob(log_grid, [list(target)])[0]
                    if want == -math.inf:
                        assert got == -math.inf
                    else:
                        assert got == pytest.approx(want, abs=1e-6)


def test_infeasible_target_rejected(rng):
    grid = Tensor(np.log(random_grid(rng, 2, 4)))
    with pytest.raises(ValueError, match="frames"):
        ctc_loss(grid, [0, 1, 2])
    with pytest.raises(ValueError, match="frames"):
        ctc_loss(Tensor(np.log(random_grid(rng, 2, 4))), [0, 0])  # repeat needs 3 frames


def test_min_frames_counts_adjacent_repeats():
    assert min_frames([1, 2, 3]) == 3
    assert min_frames([1, 1, 2]) == 4
    assert min_frames([1, 1, 1]) == 5


def test_loss_is_positive_probability(rng):
    checked = 0
    while checked < 20:
        t = int(rng.integers(2, 7))
        grid = random_grid(rng, t, 5)
        target = [int(v) for v in rng.integers(0, 4, size=min(t, 2))]
        if min_frames(target) > t:
            continue
        loss = float(ctc_loss(Tensor(np.log(grid)), target).data)
        assert 0.0 < math.exp(-loss) <= 1.0
        checked += 1


def test_gradient_matches_finite_differences(rng):
    t, k = 5, 4
    p = Parameters()
    logits = p.add("logits", rng.uniform(-1, 1, (t, k)))
    from shona_asr.gradcheck import grad_check
    err = grad_check(lambda: ctc_loss(ad.log_softmax(logits), [0, 2, 1]), p, eps=1e-5)
    assert err < 1e-3


def test_saturated_logits_give_finite_loss_and_gradient_toward_target():
    # blank logit 800 above the rest: the target's probabilities underflow
    # to 0 in a softmax, but stay finite (-800) as log-probabilities
    t, target = 8, [0, 1]
    p = Parameters()
    z = np.zeros((t, 3))
    z[:, 2] = 800.0
    logits = p.add("logits", z)
    loss = ctc_loss(ad.log_softmax(logits), target)
    backward(loss)
    # 28 equally likely alignments, each emitting both labels once at -800
    assert float(loss.data) == pytest.approx(1600.0 - math.log(28.0), abs=1e-9)
    assert np.all(np.isfinite(logits.grad))
    for label in target:
        assert logits.grad[:, label].sum() < 0.0


def test_log_grid_gradient_is_minus_occupancy(rng):
    # repeated labels share a column: [a, a, b, a] puts three label states on a
    a, b, t, k = 1, 3, 10, 6
    leaf = Tensor(np.log(random_grid(rng, t, k)), requires_grad=True)
    backward(ctc_loss(leaf, [a, a, b, a]))
    assert np.all(np.abs(-leaf.grad.sum(axis=1) - 1.0) < 1e-9)
    assert np.all(leaf.grad[:, [0, 2, 4]] == 0.0)


def test_loss_decreases_when_overfitting_single_grid(rng):
    # seeded smoke property: 50 gradient steps on one tiny instance
    from shona_asr.optim import OptimizerConfig, OptimizerState, optimizer_step
    p = Parameters()
    logits = p.add("logits", rng.normal(size=(6, 5)) * 0.1)
    target = [0, 2]
    opt = OptimizerState(OptimizerConfig(kind="adam", learning_rate=5e-2))
    losses = []
    for _ in range(50):
        loss = ctc_loss(ad.log_softmax(logits), target)
        losses.append(float(loss.data))
        p.zero_grad()
        backward(loss)
        optimizer_step(opt, p)
    assert losses[-1] < losses[0]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:])) or losses[-1] < 0.2 * losses[0]


def test_empty_target_sums_a_long_float32_grid_in_float64(rng):
    # a float32 grid (decode on checkpoint tensors) must not round the blank-path sum
    grid = np.log(random_grid(rng, 3000, 5)).astype(np.float32)
    want = math.fsum(float(v) for v in grid[:, 4])
    assert abs(ctc_forward_logprob(grid, [[]])[0] - want) < 1e-9


def test_float32_grid_loss_equals_the_widened_grid_loss_bit_for_bit(rng):
    # training's float32 grid: the recursion widens each emission and sums in float64
    for trial in range(30):
        t, k = int(rng.integers(2, 200)), int(rng.integers(2, 9))
        target = [int(v) for v in rng.integers(0, k - 1, size=int(rng.integers(1, 30)))]
        if t < min_frames(target):
            continue
        grid32 = np.log(random_grid(rng, t, k)).astype(np.float32)
        narrow = ctc_loss(Tensor(grid32), target).data
        wide = ctc_loss(Tensor(grid32.astype(np.float64)), target).data
        assert narrow.dtype == np.float64
        assert narrow.tobytes() == wide.tobytes(), f"trial {trial}"


def test_chain_loss_and_gradient_equal_the_slice_recursion(rng):
    for trial in range(60):
        t, k = int(rng.integers(1, 40)), int(rng.integers(2, 7))
        target = [int(v) for v in rng.integers(0, k - 1, size=int(rng.integers(1, 15)))]
        if t < min_frames(target):
            continue
        log_grid = np.log(random_grid(rng, t, k))
        leaf = Tensor(log_grid, requires_grad=True)
        loss = ctc_loss(leaf, target)
        backward(loss)
        want_loss, want_grad = slice_ctc_loss(log_grid, target)
        assert float(loss.data) == want_loss, f"trial {trial}"
        assert np.array_equal(leaf.grad, want_grad), f"trial {trial}"


def prefix_family(rng, n_phones):
    """Targets that share prefixes: cuts of one stem with random tails, and edge cases."""
    stem = [int(v) for v in rng.integers(0, n_phones, size=12)]
    targets = [stem[:int(cut)] + [int(v) for v in rng.integers(0, n_phones, size=int(tail))]
               for cut, tail in zip(rng.integers(0, 13, size=8), rng.integers(0, 5, size=8))]
    targets += [
        stem[:5], stem[:3],  # one target a prefix of another
        list(stem), list(stem),  # duplicates
        [stem[0], stem[0], stem[1]], [stem[0], stem[0]],  # adjacent repeats block the skip
        [],  # the all-blank path
        [stem[0]] * 40,  # infeasible on every grid here: needs 79 frames
    ]
    return targets


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batched_scores_equal_one_recursion_per_target(rng, dtype):
    for trial in range(40):
        t = 1 if trial < 4 else int(rng.integers(2, 60))
        k = int(rng.integers(2, 7))
        blank = int(rng.integers(0, k))  # drawn anywhere, then moved to the last column
        log_grid = np.log(random_grid(rng, t, k)).astype(dtype)
        log_grid = log_grid[:, [c for c in range(k) if c != blank] + [blank]]
        targets = prefix_family(rng, k - 1)
        got = ctc_forward_logprob(log_grid, targets)
        want = [ctc_forward_logprob(log_grid, [target])[0] for target in targets]
        assert got == want, f"trial {trial}"
        assert all(type(score) is float for score in got)
        assert got[-1] == -math.inf and got[-2] == want[-2] != -math.inf


def test_batched_scores_match_brute_force(rng):
    for t in range(1, 5):
        grid = random_grid(rng, t, 3)
        targets = [list(tg) for length in range(4)
                   for tg in itertools.product(range(2), repeat=length)]
        got = ctc_forward_logprob(np.log(grid), targets)
        for target, score in zip(targets, got):
            want = brute_force_ctc_logprob(grid, target)
            if want == -math.inf:
                assert score == -math.inf
            else:
                assert score == pytest.approx(want, abs=1e-9)


def test_batched_scores_of_no_targets_are_empty(rng):
    assert ctc_forward_logprob(np.log(random_grid(rng, 4, 3)), []) == []


def test_greedy_decode_blank_only():
    grid = np.array([[0.1, 0.9], [0.2, 0.8]])  # blank = 1
    assert ctc_greedy_decode(np.log(grid)) == []


def test_greedy_decode_collapse_semantics():
    # path a a blank a b  ->  a a b
    a, b, blank = 0, 1, 2
    rows = {a: [0.8, 0.1, 0.1], b: [0.1, 0.8, 0.1], blank: [0.1, 0.1, 0.8]}
    grid = np.array([rows[a], rows[a], rows[blank], rows[a], rows[b]])
    assert ctc_greedy_decode(np.log(grid)) == [a, a, b]


def test_greedy_decode_matches_argmax_collapse_oracle(rng):
    for _ in range(30):
        grid = random_grid(rng, 6, 4)
        want = list(collapse_path(grid.argmax(axis=1), blank=3))
        assert ctc_greedy_decode(np.log(grid)) == want
