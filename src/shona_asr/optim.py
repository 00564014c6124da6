"""SGD and Adam parameter updates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameters


@dataclass
class OptimizerConfig:
    kind: str = "adam"  # "sgd" | "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError(f"beta1 and beta2 must be in [0, 1), got {self.beta1}, {self.beta2}")
        if not self.eps > 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")


@dataclass
class OptimizerState:
    config: OptimizerConfig = field(default_factory=OptimizerConfig)
    step_count: int = 0
    moments: dict = field(default_factory=dict)  # name -> (m, v), updated in place
    # two flat work buffers, as long as the largest parameter and in the widest
    # parameter dtype (float32 at least), reused by every update
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, 0)), repr=False)


def optimizer_step(state: OptimizerState, params: Parameters) -> None:
    """Apply one update from accumulated gradients, then zero all grads.

    A tensor whose `requires_grad` is false keeps its value but still gets
    its grad cleared. The update runs in place through `state.scratch`, in
    the operation order of the expressions m = b1*m + (1-b1)*g,
    v = b2*v + ((1-b2)*g)*g and w -= (lr*m_hat) / (sqrt(v_hat) + eps), so it
    is bit-identical to evaluating them directly.
    """
    missing = [name for name, t in params.items() if t.grad is None and t.requires_grad]
    if missing:
        raise ValueError(f"missing gradients for {missing}")
    state.step_count += 1
    largest = max((t.data.size for _, t in params.items()), default=0)
    dtype = np.result_type(np.float32, *(t.data.dtype for _, t in params.items()))
    if state.scratch.shape[1] < largest or state.scratch.dtype != dtype:
        state.scratch = np.empty((2, largest), dtype=dtype)
    cfg = state.config
    b1, b2, lr = cfg.beta1, cfg.beta2, cfg.learning_rate
    bias1 = 1.0 - b1 ** state.step_count
    bias2 = 1.0 - b2 ** state.step_count
    for name, t in params.items():
        if not t.requires_grad:
            t.grad = None
            continue
        g = t.grad
        step, denom = (buf[:g.size].reshape(g.shape) for buf in state.scratch)
        if cfg.kind == "sgd":
            np.multiply(g, lr, out=step)
        else:
            if name not in state.moments:
                state.moments[name] = (np.zeros_like(t.data), np.zeros_like(t.data))
            m, v = state.moments[name]
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=step)
            v *= b2
            np.multiply(g, 1.0 - b2, out=step)
            v += np.multiply(step, g, out=step)
            np.multiply(np.divide(m, bias1, out=step), lr, out=step)
            np.sqrt(np.divide(v, bias2, out=denom), out=denom)
            denom += cfg.eps
            step /= denom
        t.data -= step
        t.grad = None
