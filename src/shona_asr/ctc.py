"""Alignment-free sequence loss and greedy decoding over log-posterior grids.

A grid is a [T, K] array of per-frame log-probabilities whose last column,
K - 1, is the blank; the other columns are the phones.

The loss sums, over every blank-augmented monotonic alignment of the
target, the product of per-frame probabilities, in log space. Its gradient
comes from the standard forward-backward recursion and plugs into the
autodiff graph as a single primitive.

There is one forward recursion, `_alpha`, and it runs over a state graph:
each state emits one label and is entered from itself, from its one-back
predecessor and, where its skip flag allows, from its two-back
predecessor. One target is the chain [b, t1, b, t2, ..., b]; the backward
variables are the same recursion over the chain of the reversed target on
the reversed grid. Several targets (a beam search's finalists) share one
prefix tree (`_prefix_graph`), so `ctc_forward_logprob` scores them in a
single recursion that computes each shared phone prefix once.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _accumulate, _node

NEG_INF = -np.inf


def min_frames(target: list[int]) -> int:
    """Shortest grid that can emit the target: length plus adjacent repeats."""
    dups = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + dups


def _prefix_graph(targets: list[list[int]], blank: int) -> tuple[np.ndarray, ...]:
    """The blank-augmented state graph of the targets' prefix tree.

    The targets are inserted in sorted order, each sharing its longest
    common prefix with the one before, so every distinct phone prefix is
    one tree node. State 0 is the root blank; the node made i-th gets the
    phone state 2i + 1 and, after it, the blank state 2i + 2. A single
    target gives the chain [b, t1, b, t2, ..., b]. Returns the per-state
    arrays (label, one, two, skip) and, per target, the phone state of its
    last phone (0 for an empty target). `one` and `two` are the one-back
    and two-back predecessors, -1 for none; `skip` marks the phone states
    whose two-back transition is allowed (their phone differs from the
    parent's).
    """
    label, one, two, skip = [blank], [-1], [-1], [False]
    ends = [0] * len(targets)
    path: list[int] = []  # phone state at each depth of the previous target
    previous: list[int] = []
    for i in sorted(range(len(targets)), key=targets.__getitem__):
        target = targets[i]
        shared = 0
        while (shared < min(len(target), len(previous))
               and target[shared] == previous[shared]):
            shared += 1
        del path[shared:]
        for depth in range(shared, len(target)):
            state, parent = len(label), (path[-1] if path else -1)
            label += [target[depth], blank]
            one += [parent + 1, state]  # the blank after the parent, or the root blank
            two += [parent, -1]
            skip += [depth > 0 and target[depth] != target[depth - 1], False]
            path.append(state)
        ends[i] = path[-1] if path else 0
        previous = target
    return (np.array(label, dtype=np.int64), np.array(one, dtype=np.int64),
            np.array(two, dtype=np.int64), np.array(skip), np.array(ends, dtype=np.int64))


def _alpha(log_grid: np.ndarray, label: np.ndarray, one: np.ndarray, two: np.ndarray,
           skip: np.ndarray) -> np.ndarray:
    """Forward log-probabilities [T, S] of a state graph's states, with the frame emission.

    State s emits log_grid[:, label[s]] and is entered from itself, from
    one[s], and from two[s] where skip[s]; a trailing -inf column stands
    for "none", so a predecessor of -1 reads it. Row 0 seeds the root blank
    and every first-phone state (those entered from the root). Run on the
    time-reversed grid and the chain of the reversed target, it yields the
    reversed backward variables.
    """
    t_frames, n_states = log_grid.shape[0], len(label)
    emit = log_grid[:, label]
    alpha = np.full((t_frames, n_states + 1), NEG_INF)
    seed = np.flatnonzero(one <= 0)  # the root blank (-1) and the states entered from it (0)
    alpha[0, seed] = emit[0, seed]
    jump = np.flatnonzero(skip)
    jump_from = two[jump]
    for t in range(1, t_frames):
        prev, new = alpha[t - 1], alpha[t, :-1]
        np.logaddexp(prev[:-1], prev[one], out=new)
        new[jump] = np.logaddexp(new[jump], prev[jump_from])
        new += emit[t]
    return alpha[:, :-1]


def ctc_forward_logprob(log_grid: np.ndarray, targets: list[list[int]]) -> list[float]:
    """Log-probability of each target, from one forward recursion over their prefix tree.

    log_grid: [T, K] log-probabilities. Returns one float per target, in input
    order: -inf when the alignment is infeasible. A state's value depends
    only on the states of its own prefix, so a target scores the same,
    bit for bit, alone or among others.
    """
    blank = log_grid.shape[1] - 1
    scores = [NEG_INF] * len(targets)
    tree = []
    for i, target in enumerate(targets):
        if len(target) == 0:
            scores[i] = float(log_grid[:, blank].sum(dtype=np.float64))
        elif log_grid.shape[0] >= min_frames(target):
            tree.append(i)
    if tree:
        label, one, two, skip, ends = _prefix_graph([targets[i] for i in tree], blank)
        last = _alpha(log_grid, label, one, two, skip)[-1]
        for i, score in zip(tree, np.logaddexp(last[ends + 1], last[ends]).tolist()):
            scores[i] = score
    return scores


def ctc_loss(log_grid: Tensor, target: list[int]) -> Tensor:
    """Negative log-likelihood of the target under a [T, K] log-posterior grid.

    The grid rows are finite log-probabilities, as a log-softmax emits.
    Raises when the target cannot be aligned within T frames. The gradient
    with respect to log_grid[t, c] is minus the posterior occupancy of
    class c at frame t, so chained through log_softmax it is softmax -
    occupancy with respect to logits. The recursions, the loss and the
    occupancy are float64 whatever the grid's dtype; the gradient lands in
    the grid's dtype.
    """
    t_frames, k = log_grid.data.shape
    blank = k - 1
    target = [int(p) for p in target]
    if len(target) < 1:
        raise ValueError("target must contain at least one label")
    for p in target:
        if not 0 <= p < blank:
            raise ValueError(f"target label {p} invalid for {k} classes with blank={blank}")
    needed = min_frames(target)
    if t_frames < needed:
        raise ValueError(f"target needs at least {needed} frames, grid has {t_frames}")

    lg = log_grid.data
    ext, one, two, skip, _ = _prefix_graph([target], blank)
    alpha = _alpha(lg, ext, one, two, skip)
    beta = _alpha(lg[::-1], *_prefix_graph([target[::-1]], blank)[:4])[::-1, ::-1]
    log_p = np.logaddexp(alpha[-1, -1], alpha[-1, -2])

    def bwd(g):
        if not log_grid.requires_grad:
            return
        # alpha and beta both include the frame-t emission, so one is divided out
        occupancy = np.exp(alpha + beta - lg[:, ext] - log_p)
        grad = np.zeros((t_frames, k))
        np.add.at(grad, (slice(None), ext), occupancy)
        _accumulate(log_grid, -float(g) * grad)

    return _node(np.array(-log_p), (log_grid,), bwd)


def ctc_greedy_decode(log_grid: np.ndarray) -> list[int]:
    """Best-path decode: per-frame argmax, collapse repeats, drop blanks."""
    blank = log_grid.shape[1] - 1
    path = log_grid.argmax(axis=1)
    out: list[int] = []
    prev = -1
    for p in path:
        if p != prev and p != blank:
            out.append(int(p))
        prev = p
    return out
