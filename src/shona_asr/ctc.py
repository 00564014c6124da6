"""Alignment-free sequence loss and greedy decoding over log-posterior grids.

The loss sums, over every blank-augmented monotonic alignment of the
target, the product of per-frame posteriors, in log space. Its gradient
comes from the standard forward-backward recursion (one forward
recursion, run a second time on the reversed grid for the backward
variables) and plugs into the autodiff graph as a single primitive.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _accumulate, _node

NEG_INF = -np.inf


def extended_targets(target: list[int], blank: int) -> np.ndarray:
    """Interleave blanks: [b, t1, b, t2, ..., b]."""
    ext = np.full(2 * len(target) + 1, blank, dtype=np.int64)
    ext[1::2] = target
    return ext


def min_frames(target: list[int]) -> int:
    """Shortest grid that can emit the target: length plus adjacent repeats."""
    dups = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + dups


def _skip_mask(ext: np.ndarray, blank: int) -> np.ndarray:
    """States reachable by the two-step transition s-2 -> s."""
    mask = np.zeros(len(ext), dtype=bool)
    mask[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])
    return mask


def _alpha(log_grid: np.ndarray, ext: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Forward state log-probabilities [T, S], each including the frame emission.

    Run on the time- and state-reversed grid and target (with the skip mask
    of the reversed target), it yields the reversed backward variables.
    """
    t_frames = log_grid.shape[0]
    s = len(ext)
    alpha = np.full((t_frames, s), NEG_INF)
    alpha[0, :2] = log_grid[0, ext[:2]]
    for t in range(1, t_frames):
        prev = alpha[t - 1]
        new = np.logaddexp(prev, np.concatenate(([NEG_INF], prev[:-1])))
        jump = np.concatenate(([NEG_INF, NEG_INF], prev[:-2]))
        new[skip] = np.logaddexp(new[skip], jump[skip])
        alpha[t] = new + log_grid[t, ext]
    return alpha


def ctc_forward_logprob(log_grid: np.ndarray, target: list[int], blank: int) -> float:
    """Total log-probability of the target via the forward recursion.

    log_grid: [T, K] log posteriors. Returns -inf when the alignment is
    infeasible.
    """
    if len(target) == 0:
        return float(log_grid[:, blank].sum())
    if log_grid.shape[0] < min_frames(target):
        return NEG_INF
    ext = extended_targets(target, blank)
    alpha = _alpha(log_grid, ext, _skip_mask(ext, blank))
    return float(np.logaddexp(alpha[-1, -1], alpha[-1, -2]))


def ctc_loss(log_grid: Tensor, target: list[int], blank: int | None = None) -> Tensor:
    """Negative log-likelihood of the target under a [T, K] log-posterior grid.

    The grid rows are finite log-probabilities, as a log-softmax emits;
    blank defaults to the last column. Raises when the target cannot be
    aligned within T frames. The gradient with respect to log_grid[t, c]
    is minus the posterior occupancy of class c at frame t, so chained
    through log_softmax it is softmax - occupancy with respect to logits.
    """
    t_frames, k = log_grid.data.shape
    blank = k - 1 if blank is None else blank
    target = [int(p) for p in target]
    if len(target) < 1:
        raise ValueError("target must contain at least one label")
    for p in target:
        if not 0 <= p < k or p == blank:
            raise ValueError(f"target label {p} invalid for {k} classes with blank={blank}")
    needed = min_frames(target)
    if t_frames < needed:
        raise ValueError(f"target needs at least {needed} frames, grid has {t_frames}")

    lg = log_grid.data
    ext = extended_targets(target, blank)
    alpha = _alpha(lg, ext, _skip_mask(ext, blank))
    rev = ext[::-1]
    beta = _alpha(lg[::-1], rev, _skip_mask(rev, blank))[::-1, ::-1]
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


def ctc_greedy_decode(grid, blank: int | None = None) -> list[int]:
    """Best-path decode: per-frame argmax, collapse repeats, drop blanks."""
    grid = np.asarray(getattr(grid, "log_probs", grid))
    blank = grid.shape[1] - 1 if blank is None else blank
    path = grid.argmax(axis=1)
    out: list[int] = []
    prev = -1
    for p in path:
        if p != prev and p != blank:
            out.append(int(p))
        prev = p
    return out
