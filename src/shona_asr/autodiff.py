"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus an optional gradient; ops build a
graph of backward closures and backward() replays them in reverse
topological order. The op set is exactly what the two models here need:
2-D convolution, max pooling, dense layers, a fused LSTM cell and a
sequence-level LSTM layer, softmax family, and single-head scaled
dot-product attention.

A Tensor keeps a float32 array as it is and stores anything else as
float64. The ops compute in their inputs' dtype, and a gradient lands in
its tensor's dtype, so one code path serves both widths: training casts
freshly drawn parameters to float32 and decode and eval run the
checkpoint's float32 tensors, while the finite-difference gradient checks
build float64 parameters, which they need. A graph must stay on one thread
from forward through backward, but separate graphs are independent.
"""

from __future__ import annotations

import math

import numpy as np


class Tensor:
    """N-dimensional value node in a differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_backward_done")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward_fn=None):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward = backward_fn
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add the gradient g to t.grad.

    `owned` says that the caller made g for this call and keeps no other
    reference to it, so a first gradient of t's dtype becomes t.grad as it
    is. Any other first gradient is copied, since g may be a view, or a
    gradient passed through that another tensor holds too.
    """
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif owned and type(g) is np.ndarray and g.dtype == t.data.dtype:
        t.grad = g
    else:
        t.grad = np.array(g, dtype=t.data.dtype)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _node(data, parents, backward_fn) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(data)
    return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward_fn)


def backward(loss: Tensor) -> None:
    """Populate gradients of everything reachable from a scalar loss.

    Gradients accumulate additively into .grad, both across fan-out inside
    one graph and across repeated backward calls on different graphs.
    Calling backward twice on the same root is an error.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._backward_done:
        raise RuntimeError("backward already ran on this graph root; zero_grad and rebuild first")
    loss._backward_done = True

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# (name, shape, fan) of every tensor of a model, in draw order; see Parameters.draw
Layout = list[tuple[str, tuple[int, ...], int]]


class Parameters:
    """Named map of trainable tensors."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    @classmethod
    def draw(cls, layout: Layout, rng: np.random.Generator) -> "Parameters":
        """Fresh float64 tensors for a layout, drawn from rng in its order.

        A tensor is uniform on +-sqrt(6 / fan): He init with fan = fan_in,
        Glorot with fan = fan_in + fan_out. A fan of 0 means zeros and no draw.
        Training casts the drawn tensors to float32 once, so the draws and
        the random stream are the same at either width.
        """
        params = cls()
        for name, shape, fan in layout:
            if fan:
                bound = math.sqrt(6.0 / fan)
                params.add(name, rng.uniform(-bound, bound, size=shape))
            else:
                params.add(name, np.zeros(shape))
        return params

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def zero_grad(self) -> None:
        for t in self._tensors.values():
            t.grad = None


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape), owned=True)
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape), owned=True)

    return _node(out_data, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    def bwd(g):
        _accumulate(a, g * c)

    return _node(a.data * c, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data @ b.data

    def bwd(g):
        _accumulate(a, g @ b.data.T, owned=True)
        _accumulate(b, a.data.T @ g, owned=True)

    return _node(out_data, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, g.T)

    return _node(a.data.T, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bwd(g):
        _accumulate(a, g * mask, owned=True)

    return _node(a.data * mask, (a,), bwd)


def tsum(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, np.full_like(a.data, float(g)), owned=True)

    return _node(a.data.sum(), (a,), bwd)


def row(a: Tensor, i: int) -> Tensor:
    """Select row i of a 2-D tensor as a 1-D tensor."""

    def bwd(g):
        if a.requires_grad:
            grad = np.zeros_like(a.data)
            grad[i] = g
            _accumulate(a, grad, owned=True)

    return _node(a.data[i], (a,), bwd)


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup (embedding): out[i] = a[indices[i]]."""
    indices = np.asarray(indices, dtype=np.int64)

    def bwd(g):
        if a.requires_grad:
            grad = np.zeros_like(a.data)
            np.add.at(grad, indices, g)
            _accumulate(a, grad, owned=True)

    return _node(a.data[indices], (a,), bwd)


def take_per_row(a: Tensor, cols: np.ndarray) -> Tensor:
    """out[i] = a[i, cols[i]] for a 2-D tensor."""
    cols = np.asarray(cols, dtype=np.int64)
    rows_idx = np.arange(a.data.shape[0])

    def bwd(g):
        if a.requires_grad:
            grad = np.zeros_like(a.data)
            grad[rows_idx, cols] = g
            _accumulate(a, grad, owned=True)

    return _node(a.data[rows_idx, cols], (a,), bwd)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------

def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, max-subtracted for stability."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(a, y * (g - inner), owned=True)

    return _node(y, (a,), bwd)


def log_softmax_values(x: np.ndarray) -> np.ndarray:
    """Plain-array log-softmax over the last axis, max-subtracted for stability.

    `log_softmax` and the LM's scoring path both compute through this function.
    """
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax(a: Tensor) -> Tensor:
    out_data = log_softmax_values(a.data)

    def bwd(g):
        _accumulate(a, g - np.exp(out_data) * g.sum(axis=-1, keepdims=True), owned=True)

    return _node(out_data, (a,), bwd)


def cross_entropy(logits: Tensor, target_index: int) -> Tensor:
    """Negative log-probability of the target class under the logits."""
    if not 0 <= target_index < logits.data.shape[-1]:
        raise ValueError(f"target index {target_index} out of range for {logits.data.shape[-1]} classes")
    return scale(row_pick(log_softmax(logits), target_index), -1.0)


def row_pick(a: Tensor, i: int) -> Tensor:
    """Select element i of a 1-D tensor as a scalar tensor."""

    def bwd(g):
        if a.requires_grad:
            grad = np.zeros_like(a.data)
            grad[i] = float(g)
            _accumulate(a, grad, owned=True)

    return _node(a.data[i], (a,), bwd)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Same-padded stride-1 cross-correlation.

    x: [C_in, H, W], kernels: [C_out, C_in, kH, kW] (odd kH/kW), bias: [C_out]
    -> [C_out, H, W]
    """
    c_in, h, w = x.data.shape
    c_out, kc, kh, kw = kernels.data.shape
    if kc != c_in:
        raise ValueError(f"kernel expects {kc} input channels, input has {c_in}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("same-padding conv requires odd kernel dims")
    if bias.data.shape != (c_out,):
        raise ValueError(f"bias shape {bias.data.shape} != ({c_out},)")
    ph, pw = kh // 2, kw // 2
    # Each channel is one flat buffer: ph zero rows, the image, ph zero rows,
    # all at the image's own row pitch w, plus pw zeros at either end. The
    # shift (di, dj) of the padded image is then the contiguous run
    # flat[di*w + dj:][:h*w], so each im2col copy, and each col2im add of the
    # backward, is one contiguous pass. Where a shift crosses the left or
    # right edge the run wraps into the neighbouring row; `_zero_wrapped`
    # zeroes those columns, which is what padding would have put there.
    n = h * w
    flat = np.zeros((c_in, (h + 2 * ph) * w + 2 * pw), dtype=x.data.dtype)
    flat[:, ph * w + pw:ph * w + pw + n] = x.data.reshape(c_in, n)
    patches = np.empty((c_in, kh, kw, n), dtype=x.data.dtype)
    for di in range(kh):
        for dj in range(kw):
            patches[:, di, dj] = flat[:, di * w + dj:di * w + dj + n]
    _zero_wrapped(patches, w)
    pm = patches.reshape(c_in * kh * kw, n)
    km = kernels.data.reshape(c_out, c_in * kh * kw)
    out = km @ pm
    out += bias.data[:, None]

    def bwd(g):
        gm = g.reshape(c_out, n)
        _accumulate(bias, gm.sum(axis=1), owned=True)
        _accumulate(kernels, (pm @ gm.T).T.reshape(kernels.data.shape), owned=True)
        if x.requires_grad:
            # The forward is done with `flat`, so it collects the input
            # gradient, which `_accumulate` copies out of it (a fresh
            # buffer per backward pass costs more in page faults). Each
            # position sums its terms in (di, dj) order from +0, as a
            # padded-image col2im does; the wrapped columns add +0, which
            # leaves a sum that starts at +0 unchanged.
            dpm = (km.T @ gm).reshape(c_in, kh, kw, n)
            _zero_wrapped(dpm, w)
            flat.fill(0)
            for di in range(kh):
                for dj in range(kw):
                    flat[:, di * w + dj:di * w + dj + n] += dpm[:, di, dj]
            _accumulate(x, flat[:, ph * w + pw:ph * w + pw + n].reshape(c_in, h, w))

    return _node(out.reshape(c_out, h, w), (x, kernels, bias), bwd)


def _zero_wrapped(cols: np.ndarray, w: int) -> None:
    """Zero the entries of a [C_in, kH, kW, H*W] shift stack that wrapped across a row edge.

    For output column j, shift dj reads input column j + dj - kW//2, which
    is off the row when it is below 0 or at least w.
    """
    c_in, kh, kw, n = cols.shape
    grid = cols.reshape(c_in, kh, kw, n // w, w)
    for dj in range(kw):
        shift = dj - kw // 2
        grid[:, :, dj, :, :max(-shift, 0)] = 0
        grid[:, :, dj, :, max(w - shift, 0):] = 0


def max_pool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; trailing odd row/column dropped.

    The output is the elementwise maximum of the four stride-2 views, one
    per window position. Gradient flows to the first maximal element of
    each window (row-major order within the window).
    """
    c, h, w = x.data.shape
    oh, ow = h // 2, w // 2
    if oh == 0 or ow == 0:
        raise ValueError(f"input {h}x{w} smaller than one 2x2 window")
    slices = [(slice(None), slice(i, 2 * oh, 2), slice(j, 2 * ow, 2))
              for i in (0, 1) for j in (0, 1)]
    views = [x.data[s] for s in slices]
    out_data = np.maximum(views[0], views[1])
    np.maximum(out_data, views[2], out=out_data)
    np.maximum(out_data, views[3], out=out_data)

    def bwd(g):
        dx = np.empty_like(x.data)
        dx[:, 2 * oh:] = 0
        dx[:, :, 2 * ow:] = 0
        # A view's element is its window's first maximum when it equals the
        # maximum and no earlier view's element did: hit > taken on booleans.
        taken = views[0] == out_data
        np.multiply(g, taken, out=dx[slices[0]])
        for s, view in zip(slices[1:], views[1:]):
            hit = view == out_data
            np.multiply(g, hit > taken, out=dx[s])
            taken |= hit
        _accumulate(x, dx, owned=True)

    return _node(out_data, (x,), bwd)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map W @ x + b; a 2-D x is treated as rows of inputs."""
    m, n = weight.data.shape
    if x.data.shape[-1] != n:
        raise ValueError(f"dense expects inputs of dim {n}, got {x.data.shape}")
    if bias.data.shape != (m,):
        raise ValueError(f"bias shape {bias.data.shape} != ({m},)")
    out_data = x.data @ weight.data.T + bias.data

    def bwd(g):
        rows = g.reshape(-1, m)
        _accumulate(weight, rows.T @ x.data.reshape(-1, n), owned=True)
        _accumulate(bias, rows.sum(axis=0), owned=True)
        _accumulate(x, g @ weight.data, owned=True)

    return _node(out_data, (x, weight, bias), bwd)


def channels_to_rows(x: Tensor) -> Tensor:
    """Reinterpret [C, T, W] as a per-timestep feature matrix [T, C*W]."""
    c, t, w = x.data.shape
    out_data = x.data.transpose(1, 0, 2).reshape(t, c * w)

    def bwd(g):
        _accumulate(x, g.reshape(t, c, w).transpose(1, 0, 2))

    return _node(out_data, (x,), bwd)


def lstm_gates(pre: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """Plain-array LSTM gates from the pre-activation: (i, f, g, o, c', tanh(c')).

    `pre` is W x + U h + b, with the 4k axis last (leading axes stack
    states) and laid out as [input, forget, candidate, output]:
    i, f, o = sigmoid(.); g = tanh(.); c' = f*c + i*g.
    The new hidden state is o * tanh(c'). `lstm_cell`, `lstm_layer` and the
    LM's scoring path all step through this function.
    """
    k = c.shape[-1]
    # One sigmoid pass over all four blocks (the candidate block's values
    # go unused): elementwise, so each gate equals its own block's sigmoid.
    sig = 1.0 / (1.0 + np.exp(-pre))
    i_g, f_g, o_g = sig[..., :k], sig[..., k:2 * k], sig[..., 3 * k:]
    g_g = np.tanh(pre[..., 2 * k:3 * k])
    c_new = f_g * c + i_g * g_g
    return i_g, f_g, g_g, o_g, c_new, np.tanh(c_new)


def _check_lstm_shapes(w_ih: Tensor, w_hh: Tensor, b: Tensor, k: int, d: int) -> None:
    if w_ih.data.shape[0] != 4 * k or w_hh.data.shape != (4 * k, k) or b.data.shape != (4 * k,):
        raise ValueError(f"gate parameter shapes inconsistent with hidden size {k}")
    if w_ih.data.shape[1] != d:
        raise ValueError(f"W_ih expects input dim {w_ih.data.shape[1]}, got {d}")


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, w_ih: Tensor, w_hh: Tensor,
              b: Tensor) -> tuple[Tensor, Tensor]:
    """One differentiable LSTM step with fused gates (see `lstm_gates`)."""
    _check_lstm_shapes(w_ih, w_hh, b, h.data.shape[0], x.data.shape[0])
    pre = w_ih.data @ x.data + w_hh.data @ h.data + b.data
    i_g, f_g, g_g, o_g, c_new, tanh_c = lstm_gates(pre, c.data)
    h_new = o_g * tanh_c

    # One internal node carries both outputs stacked as [h'; c'] so the
    # fused backward runs exactly once even when only one output feeds the
    # loss; callers see the two rows as separate tensors.
    def bwd(g):
        dh, dc_in = g[0], g[1]
        d_o = dh * tanh_c
        dc_total = dc_in + dh * o_g * (1.0 - tanh_c * tanh_c)
        d_f = dc_total * c.data
        d_i = dc_total * g_g
        d_g = dc_total * i_g
        da = np.concatenate([
            d_i * i_g * (1.0 - i_g),
            d_f * f_g * (1.0 - f_g),
            d_g * (1.0 - g_g * g_g),
            d_o * o_g * (1.0 - o_g),
        ])
        _accumulate(w_ih, np.outer(da, x.data), owned=True)
        _accumulate(w_hh, np.outer(da, h.data), owned=True)
        _accumulate(b, da)
        _accumulate(x, w_ih.data.T @ da, owned=True)
        _accumulate(h, w_hh.data.T @ da, owned=True)
        _accumulate(c, dc_total * f_g, owned=True)

    pair = _node(np.stack([h_new, c_new]), (x, h, c, w_ih, w_hh, b), bwd)
    return row(pair, 0), row(pair, 1)


def lstm_layer(xs: Tensor, w_ih: Tensor, w_hh: Tensor, b: Tensor) -> Tensor:
    """A whole LSTM sequence from a zero state as one node: [T, d] -> hidden states [T, k].

    The input projection X W_ih^T + b is one GEMM for all timesteps; only
    the recurrent product U h runs per step. The backward pass fills the
    gate-gradient matrix dA [T, 4k] in one reverse loop, then forms the
    weight gradients as two GEMMs, dW_ih = dA^T X and dW_hh = dA[1:]^T H[:-1]
    (Appleyard, Kocisky & Blunsom 2016, arXiv:1604.01946). The zero states
    and the backward buffers take the weights' dtype, so float32 weights
    step in float32 throughout.
    """
    if xs.data.ndim != 2 or xs.data.shape[0] == 0:
        raise ValueError(f"lstm_layer expects a non-empty [T, d] input, got {xs.data.shape}")
    n_steps, k = xs.data.shape[0], w_hh.data.shape[1]
    _check_lstm_shapes(w_ih, w_hh, b, k, xs.data.shape[1])
    u = w_hh.data
    proj = xs.data @ w_ih.data.T + b.data
    zero = np.zeros(k, dtype=u.dtype)  # the initial states; never written in place
    h, c = zero, zero
    steps = []
    for t in range(n_steps):
        i_g, f_g, g_g, o_g, c, tanh_c = lstm_gates(proj[t] + u @ h, c)
        h = o_g * tanh_c
        steps.append((i_g, f_g, g_g, o_g, c, tanh_c, h))
    i_s, f_s, g_s, o_s, c_s, tanh_cs, h_s = (np.array(a) for a in zip(*steps))

    def bwd(grad):
        c_prev = np.vstack([zero, c_s[:-1]])
        # dA[:, :3k] = dc * [g i (1-i), c_prev f (1-f), i (1-g^2)] and
        # dA[:, 3k:] = dh * tanh(c) o (1-o); dc gains dh * o (1 - tanh(c)^2).
        via_dc = np.stack([g_s * i_s * (1.0 - i_s), c_prev * f_s * (1.0 - f_s),
                           i_s * (1.0 - g_s * g_s)], axis=1)
        via_dh = tanh_cs * o_s * (1.0 - o_s)
        dh_to_dc = o_s * (1.0 - tanh_cs * tanh_cs)
        d_a = np.empty((n_steps, 4 * k), dtype=u.dtype)
        d_a3 = d_a[:, :3 * k].reshape(n_steps, 3, k)
        dh_next, dc_next = zero, zero
        for t in range(n_steps - 1, -1, -1):
            dh = grad[t] + dh_next
            dc = dc_next + dh * dh_to_dc[t]
            np.multiply(via_dc[t], dc, out=d_a3[t])
            np.multiply(dh, via_dh[t], out=d_a[t, 3 * k:])
            dh_next = d_a[t] @ u
            dc_next = dc * f_s[t]
        _accumulate(w_ih, d_a.T @ xs.data, owned=True)
        _accumulate(w_hh, d_a[1:].T @ h_s[:-1], owned=True)
        _accumulate(b, d_a.sum(axis=0), owned=True)
        _accumulate(xs, d_a @ w_ih.data, owned=True)

    return _node(h_s, (xs, w_ih, w_hh, b), bwd)


def attention_layer(seq: Tensor, w_q: Tensor, w_k: Tensor, w_v: Tensor) -> Tensor:
    """Single-head scaled dot-product self-attention with a residual path.

    seq: [T, d]; the three projections are square [d, d]. Output is
    seq + softmax(Q K^T / sqrt(d)) V, shape-preserving.
    """
    d = seq.data.shape[1]
    q = matmul(seq, w_q)
    k = matmul(seq, w_k)
    v = matmul(seq, w_v)
    scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(d))
    weights = softmax(scores)
    return add(seq, matmul(weights, v))
