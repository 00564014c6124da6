"""Finite-difference verification suite covering every differentiable op.

Each check builds a small random instance from a numbered seed, runs
grad_check against central differences, and must land under a 1e-3
relative error. Linear ops are exact at any step size; smooth ops use a
moderate step; the composite ReLU networks use a small step so the
two-sided evaluation cannot straddle an activation kink.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .acoustic import AcousticConfig, acoustic_forward, build_acoustic_model
from .autodiff import Parameters, Tensor
from .ctc import ctc_loss
from .gradcheck import grad_check
from .lm import LmConfig, TokenVocab, build_lm, sentence_loss

TOLERANCE = 1e-3


def _param(params: Parameters, name: str, data) -> Tensor:
    return params.add(name, np.asarray(data, dtype=np.float64))


def _spread_values(rng: np.random.Generator, shape) -> np.ndarray:
    """Random values with pairwise gaps, so pooling argmaxes cannot flip."""
    n = int(np.prod(shape))
    return rng.permutation(np.linspace(-1.0, 1.0, n)).reshape(shape)


def check_conv2d(seed: int) -> float:
    rng = np.random.default_rng(seed)
    p = Parameters()
    x = _param(p, "x", rng.uniform(-1, 1, (2, 5, 4)))
    k = _param(p, "k", rng.uniform(-1, 1, (3, 2, 3, 3)))
    b = _param(p, "b", rng.uniform(-1, 1, 3))
    return grad_check(lambda: ad.tsum(ad.conv2d(x, k, b)), p, eps=1e-4)


def check_max_pool2d(seed: int) -> float:
    rng = np.random.default_rng(seed)
    p = Parameters()
    x = _param(p, "x", _spread_values(rng, (2, 5, 6)))
    return grad_check(lambda: ad.tsum(ad.max_pool2d(x)), p, eps=1e-4)


def check_dense(seed: int) -> float:
    rng = np.random.default_rng(seed)
    p = Parameters()
    x = _param(p, "x", rng.uniform(-1, 1, (3, 4)))
    w = _param(p, "w", rng.uniform(-1, 1, (5, 4)))
    b = _param(p, "b", rng.uniform(-1, 1, 5))
    return grad_check(lambda: ad.tsum(ad.dense(x, w, b)), p, eps=1e-4)


def check_lstm_cell(seed: int) -> float:
    """Three chained steps, so the check exercises backprop through time."""
    rng = np.random.default_rng(seed)
    d, k = 3, 4
    p = Parameters()
    xs = [_param(p, f"x{t}", rng.uniform(-1, 1, d)) for t in range(3)]
    w_ih = _param(p, "w_ih", rng.uniform(-0.5, 0.5, (4 * k, d)))
    w_hh = _param(p, "w_hh", rng.uniform(-0.5, 0.5, (4 * k, k)))
    b = _param(p, "b", rng.uniform(-0.5, 0.5, 4 * k))

    def forward():
        h = Tensor(np.zeros(k))
        c = Tensor(np.zeros(k))
        for x in xs:
            h, c = ad.lstm_cell(x, h, c, w_ih, w_hh, b)
        return ad.tsum(ad.add(h, c))

    return grad_check(forward, p, eps=1e-5)


def check_lstm_layer(seed: int) -> float:
    """A whole sequence of T = 1..5 steps (T cycles with the seed).

    Random weights on the hidden states give each timestep its own
    upstream gradient; at T = 1 the recurrent weights get a zero gradient.
    """
    rng = np.random.default_rng(seed)
    n_steps, d, k = 1 + seed % 5, 3, 4
    p = Parameters()
    xs = _param(p, "xs", rng.uniform(-1, 1, (n_steps, d)))
    w_ih = _param(p, "w_ih", rng.uniform(-0.5, 0.5, (4 * k, d)))
    w_hh = _param(p, "w_hh", rng.uniform(-0.5, 0.5, (4 * k, k)))
    b = _param(p, "b", rng.uniform(-0.5, 0.5, 4 * k))
    weights = Tensor(rng.uniform(-1, 1, (n_steps, k)))

    def forward():
        return ad.tsum(ad.mul(ad.lstm_layer(xs, w_ih, w_hh, b), weights))

    return grad_check(forward, p, eps=1e-5)


def check_attention(seed: int) -> float:
    rng = np.random.default_rng(seed)
    t, d = 3, 4
    p = Parameters()
    seq = _param(p, "seq", rng.uniform(-1, 1, (t, d)))
    wq = _param(p, "wq", rng.uniform(-0.7, 0.7, (d, d)))
    wk = _param(p, "wk", rng.uniform(-0.7, 0.7, (d, d)))
    wv = _param(p, "wv", rng.uniform(-0.7, 0.7, (d, d)))
    return grad_check(lambda: ad.tsum(ad.attention_layer(seq, wq, wk, wv)), p, eps=1e-5)


def check_softmax_cross_entropy(seed: int) -> float:
    rng = np.random.default_rng(seed)
    p = Parameters()
    logits = _param(p, "logits", rng.uniform(-2, 2, 6))
    target = int(rng.integers(0, 6))
    return grad_check(lambda: ad.cross_entropy(logits, target), p, eps=1e-5)


def check_ctc_loss(seed: int) -> float:
    """Differentiates through log-softmax rows into the CTC recursion."""
    rng = np.random.default_rng(seed)
    t, k = 6, 4
    p = Parameters()
    logits = _param(p, "logits", rng.uniform(-1, 1, (t, k)))
    target = [int(v) for v in rng.integers(0, k - 1, size=2)]
    return grad_check(lambda: ctc_loss(ad.log_softmax(logits), target), p, eps=1e-5)


def check_full_acoustic(seed: int) -> float:
    rng = np.random.default_rng(seed)
    cfg = AcousticConfig(conv1_filters=4, conv2_filters=6, dense_units=8, use_attention=True)
    params = build_acoustic_model(cfg, n_phones=5, seed=seed)
    feats = rng.uniform(-1, 1, (20, 39))
    target = [int(v) for v in rng.integers(0, 5, size=3)]

    def forward():
        return ctc_loss(acoustic_forward(params, feats, cfg), target)

    return grad_check(forward, params, eps=1e-6, max_samples=60, rng=np.random.default_rng(seed))


def check_full_lm_step(seed: int) -> float:
    rng = np.random.default_rng(seed)
    vocab = TokenVocab.build(["p1", "p2", "p3"], "phone")
    params = build_lm(vocab, LmConfig(embed_dim=5, lstm1_units=6, lstm2_units=4), seed)
    sent = [int(v) for v in rng.integers(4, len(vocab), size=4)]
    return grad_check(lambda: sentence_loss(params, sent, vocab), params,
                      eps=1e-5, max_samples=80, rng=np.random.default_rng(seed))


CHECKS = {
    "conv2d": check_conv2d,
    "max_pool2d": check_max_pool2d,
    "dense": check_dense,
    "lstm_cell": check_lstm_cell,
    "lstm_layer": check_lstm_layer,
    "attention_layer": check_attention,
    "softmax_cross_entropy": check_softmax_cross_entropy,
    "ctc_loss": check_ctc_loss,
    "full_acoustic_model": check_full_acoustic,
    "full_lm_step": check_full_lm_step,
}


def run_gradient_suite(n_seeds: int = 50, verbose: bool = False) -> dict[str, float]:
    """Worst relative error per op over n_seeds seeded instances."""
    results = {}
    for name, check in CHECKS.items():
        worst = 0.0
        for seed in range(n_seeds):
            worst = max(worst, check(seed))
        results[name] = worst
        if verbose:
            status = "ok" if worst < TOLERANCE else "FAIL"
            print(f"{name:<24} max relative error {worst:.3e}  [{status}]")
    return results


def gradient_suite_passes(results: dict[str, float]) -> bool:
    return all(err < TOLERANCE for err in results.values())
