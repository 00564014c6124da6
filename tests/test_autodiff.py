import numpy as np
import pytest

from oracles import im2col_conv2d, masked_max_pool2d, naive_conv2d, reference_max_pool2d
from shona_asr import autodiff as ad
from shona_asr.acoustic import AcousticConfig, acoustic_forward, build_acoustic_model
from shona_asr.autodiff import Parameters, Tensor, backward
from shona_asr.ctc import ctc_loss
from shona_asr.gradcheck import grad_check
from shona_asr.lm import LmConfig, TokenVocab, build_lm, sentence_loss
from shona_asr.optim import OptimizerConfig, OptimizerState, optimizer_step
from shona_asr.errors import VerificationError
from shona_asr.verify import CHECKS, TOLERANCE


def test_sum_gradient_is_ones():
    p = Parameters()
    w = p.add("w", np.arange(6.0).reshape(2, 3))
    backward(ad.tsum(w))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_quadratic_gradient_is_2w(rng):
    p = Parameters()
    w = p.add("w", rng.normal(size=5))
    backward(ad.tsum(ad.mul(w, w)))
    assert np.allclose(w.grad, 2 * w.data)


def test_tensor_keeps_float32_and_widens_everything_else(rng):
    # the gradient checks need float64; a float32 array (training, a checkpoint) stays as it is
    f32 = rng.normal(size=4).astype(np.float32)
    assert Tensor(f32).data is f32
    f64 = rng.normal(size=4)
    assert Tensor(f64).data is f64
    for data in ([1, 2, 3], [0.5, -1.5], 3, 2.5, True, np.arange(3), np.array([True, False]),
                 np.array([0.1, 2.0, -3.5], dtype=np.float16)):
        t = Tensor(data)
        assert t.data.dtype == np.float64
        assert np.array_equal(t.data, np.asarray(data, dtype=np.float64))
    assert Parameters().add("w", rng.normal(size=(2, 3))).data.dtype == np.float64


def test_draw_follows_the_layout_and_skips_zero_fans():
    layout = [("w", (300, 4), 6), ("b", (4,), 0), ("v", (2, 3), 24)]
    params = Parameters.draw(layout, np.random.default_rng(7))
    assert [(name, t.data.shape, t.data.dtype) for name, t in params.items()] == [
        ("w", (300, 4), np.float64), ("b", (4,), np.float64), ("v", (2, 3), np.float64)]
    assert np.abs(params["w"].data).max() <= 1.0 < 2 * np.abs(params["w"].data).max()
    assert not params["b"].data.any()
    rng = np.random.default_rng(7)  # the zero-fan tensor consumes no draw
    rng.uniform(-1.0, 1.0, size=(300, 4))
    assert np.array_equal(params["v"].data, rng.uniform(-0.5, 0.5, size=(2, 3)))


def test_conv2d_computes_in_its_input_dtype(rng):
    x = rng.normal(size=(2, 7, 6)).astype(np.float32)
    k = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
    b = rng.normal(size=3).astype(np.float32)
    narrow = ad.conv2d(Tensor(x), Tensor(k), Tensor(b)).data
    assert narrow.dtype == np.float32
    wide = ad.conv2d(*(Tensor(a.astype(np.float64)) for a in (x, k, b))).data
    assert wide.dtype == np.float64
    np.testing.assert_allclose(narrow, wide, rtol=0, atol=1e-5)


def test_backward_requires_scalar():
    t = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(t)


def test_backward_twice_is_an_error():
    p = Parameters()
    w = p.add("w", np.ones(3))
    loss = ad.tsum(w)
    backward(loss)
    with pytest.raises(RuntimeError, match="already ran"):
        backward(loss)


def test_gradients_accumulate_across_graphs():
    p = Parameters()
    w = p.add("w", np.ones(3))
    backward(ad.tsum(w))
    backward(ad.tsum(w))
    assert np.array_equal(w.grad, 2 * np.ones(3))
    p.zero_grad()
    assert w.grad is None


def test_backward_deterministic_bitwise(rng):
    def run():
        g = np.random.default_rng(7)
        p = Parameters()
        x = p.add("x", g.normal(size=(3, 4)))
        w = p.add("w", g.normal(size=(5, 4)))
        b = p.add("b", g.normal(size=5))
        loss = ad.tsum(ad.relu(ad.dense(x, w, b)))
        backward(loss)
        return [t.grad.copy() for _, t in p.items()]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_identity_conv_kernel_preserves_input(rng):
    x = Tensor(rng.normal(size=(1, 4, 5)))
    k = Tensor(np.ones((1, 1, 1, 1)))
    b = Tensor(np.zeros(1))
    out = ad.conv2d(x, k, b)
    assert np.allclose(out.data, x.data)


def test_conv_matches_four_loop_oracle(rng):
    for _ in range(10):
        x = rng.normal(size=(2, 4, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        got = ad.conv2d(Tensor(x), Tensor(k), Tensor(b)).data
        assert np.allclose(got, naive_conv2d(x, k, b), atol=1e-12)


def test_conv_all_ones_2x2_case():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])[None])
    out = ad.conv2d(x, Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)))
    assert np.allclose(out.data[0], naive_conv2d(x.data, np.ones((1, 1, 3, 3)), np.zeros(1))[0])


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal dtype, shape and bytes: stricter than np.array_equal, which takes -0.0 for 0.0."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _op_and_grads(op, arrays, x_grad, g):
    """op on fresh tensors of arrays (the first being x), its output and every gradient."""
    tensors = [Tensor(a, requires_grad=x_grad or i > 0) for i, a in enumerate(arrays)]
    out = op(*tensors)
    backward(ad.tsum(ad.mul(out, Tensor(g))))
    return out.data, [t.grad for t in tensors if t.requires_grad]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in", [1, 32])
@pytest.mark.parametrize("h, w", [(6, 8), (7, 9), (6, 9), (7, 8), (1, 1)])
@pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "no_x_grad"])
def test_conv_is_bit_equal_to_the_im2col_reference(rng, dtype, c_in, h, w, x_grad):
    for kh, kw in ((3, 3), (1, 5), (5, 3)):
        arrays = [rng.normal(size=shape).astype(dtype)
                  for shape in ((c_in, h, w), (4, c_in, kh, kw), (4,))]
        g = rng.normal(size=(4, h, w)).astype(dtype)
        out, grads = _op_and_grads(ad.conv2d, arrays, x_grad, g)
        want_out, want_grads = _op_and_grads(im2col_conv2d, arrays, x_grad, g)
        _assert_same_bits(out, want_out)
        assert len(grads) == len(want_grads) == 2 + x_grad
        for got, want in zip(grads, want_grads):
            _assert_same_bits(got, want)


# window positions (row-major) holding a tied maximum: every pair, and all four
TIES = [(a, b) for a in range(4) for b in range(a + 1, 4)] + [(0, 1, 2, 3)]


def _tied_windows(dtype):
    """A [1, 2, 2 * len(TIES)] row of 2x2 windows, window k holding 1 at the positions TIES[k]."""
    x = np.zeros((1, 2, 2 * len(TIES)), dtype=dtype)
    for k, tie in enumerate(TIES):
        for pos in tie:
            x[0, pos // 2, 2 * k + pos % 2] = 1.0
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_pool_is_bit_equal_to_the_masked_reference(rng, dtype):
    inputs = [(x.astype(dtype), g.astype(dtype)) for x, g in _pool_inputs(rng)]
    tied = _tied_windows(dtype)
    # negated, the zeros are the maxima, so the complementary positions tie
    inputs += [(tied, rng.normal(size=(1, 1, len(TIES))).astype(dtype)),
               (-tied, -np.ones((1, 1, len(TIES)), dtype=dtype))]
    for x, g in inputs:
        out, (dx,) = _op_and_grads(ad.max_pool2d, [x], True, g)
        want_out, (want_dx,) = _op_and_grads(masked_max_pool2d, [x], True, g)
        _assert_same_bits(out, want_out)
        _assert_same_bits(dx, want_dx)


def test_tied_pool_windows_route_to_the_first_maximum():
    x = _tied_windows(np.float64)
    _, (dx,) = _op_and_grads(ad.max_pool2d, [x], True, np.ones((1, 1, len(TIES))))
    want = np.zeros_like(x)
    for k, tie in enumerate(TIES):
        want[0, tie[0] // 2, 2 * k + tie[0] % 2] = 1.0
    assert np.array_equal(dx, want)


def test_max_pool_basic():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])[None])
    assert ad.max_pool2d(x).data.tolist() == [[[4.0]]]


def test_max_pool_odd_edges_dropped(rng):
    x = Tensor(rng.normal(size=(2, 5, 5)))
    assert ad.max_pool2d(x).data.shape == (2, 2, 2)


def test_max_pool_tie_routes_to_first_element():
    p = Parameters()
    x = p.add("x", np.ones((1, 2, 2)))
    backward(ad.tsum(ad.max_pool2d(x)))
    assert x.grad[0].tolist() == [[1.0, 0.0], [0.0, 0.0]]


def _pool_inputs(rng, n_trials=60):
    """[C, H, W] grids with odd and even H/W: small integers (many ties,
    zeros of both signs after ReLU), all-negative values, and real values."""
    for trial in range(n_trials):
        shape = (int(rng.integers(1, 4)), int(rng.integers(2, 10)), int(rng.integers(2, 10)))
        kind = trial % 3
        if kind == 0:
            x = rng.integers(-2, 3, size=shape).astype(np.float64)
        elif kind == 1:
            x = -rng.integers(1, 4, size=shape).astype(np.float64)
        else:
            x = rng.normal(size=shape)
        yield x, rng.normal(size=(shape[0], shape[1] // 2, shape[2] // 2))


def _pool_and_grad(block, x_data, g):
    p = Parameters()
    x = p.add("x", x_data)
    out = block(x)
    backward(ad.tsum(ad.mul(out, Tensor(g))))
    return out.data, x.grad


def test_max_pool_matches_argmax_oracle(rng):
    for x, g in _pool_inputs(rng):
        out, dx = _pool_and_grad(ad.max_pool2d, x, g)
        want_out, want_dx = reference_max_pool2d(x, g)
        assert np.array_equal(out, want_out)
        assert np.array_equal(dx, want_dx)


def test_relu_after_pool_equals_pool_after_relu(rng):
    for x, g in _pool_inputs(rng):
        out, dx = _pool_and_grad(lambda t: ad.relu(ad.max_pool2d(t)), x, g)
        want_out, d_relu = reference_max_pool2d(x * (x > 0), g)
        assert np.array_equal(out, want_out)
        assert np.array_equal(dx, d_relu * (x > 0))
        swapped_out, swapped_dx = _pool_and_grad(lambda t: ad.max_pool2d(ad.relu(t)), x, g)
        assert np.array_equal(out, swapped_out)
        assert np.array_equal(dx, swapped_dx)


def test_max_pool_too_small_rejected():
    with pytest.raises(ValueError):
        ad.max_pool2d(Tensor(np.zeros((1, 1, 5))))


def test_dense_identity_and_zero(rng):
    x = Tensor(rng.normal(size=4))
    out = ad.dense(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
    assert np.allclose(out.data, x.data)
    b = rng.normal(size=4)
    out2 = ad.dense(x, Tensor(np.zeros((4, 4))), Tensor(b))
    assert np.allclose(out2.data, b)


def test_dense_matches_dot_oracle(rng):
    x, w, b = rng.normal(size=3), rng.normal(size=(4, 3)), rng.normal(size=4)
    got = ad.dense(Tensor(x), Tensor(w), Tensor(b)).data
    want = np.array([sum(w[i, j] * x[j] for j in range(3)) + b[i] for i in range(4)])
    assert np.allclose(got, want)


def test_dense_vector_gradients_equal_one_row_gradients(rng):
    x, w, b, c = (rng.normal(size=s) for s in (3, (4, 3), 4, 4))
    grads = []
    for xs in (x, x[None, :]):
        p = [Tensor(a, requires_grad=True) for a in (xs, w, b)]
        backward(ad.tsum(ad.mul(ad.dense(*p), Tensor(c))))
        grads.append([t.grad for t in p])
    (dx, dw, db), (dx_row, dw_row, db_row) = grads
    assert np.array_equal(dx, dx_row[0]) and np.array_equal(dw, dw_row) and np.array_equal(db, db_row)


def test_lstm_zero_weights_halves_gates():
    d, k = 3, 4
    x, h, c = Tensor(np.ones(d)), Tensor(np.zeros(k)), Tensor(np.zeros(k))
    zeros = lambda *s: Tensor(np.zeros(s))
    h_next, c_next = ad.lstm_cell(x, h, c, zeros(4 * k, d), zeros(4 * k, k), zeros(4 * k))
    assert np.allclose(c_next.data, 0.0)
    assert np.allclose(h_next.data, 0.0)


def test_lstm_saturated_gates_carry_cell_state(rng):
    d, k = 2, 3
    c0 = rng.normal(size=k)
    bias = np.zeros(4 * k)
    bias[k:2 * k] = 50.0   # forget gate ~ 1
    bias[:k] = -50.0       # input gate ~ 0
    h_next, c_next = ad.lstm_cell(Tensor(rng.normal(size=d)), Tensor(np.zeros(k)), Tensor(c0),
                                  Tensor(np.zeros((4 * k, d))), Tensor(np.zeros((4 * k, k))),
                                  Tensor(bias))
    assert np.max(np.abs(c_next.data - c0)) < 1e-9


def test_lstm_layer_matches_chained_cells(rng):
    d, k, n_steps = 3, 5, 6
    xs = rng.normal(size=(n_steps, d))
    w_ih, w_hh = Tensor(rng.normal(size=(4 * k, d))), Tensor(rng.normal(size=(4 * k, k)))
    b = Tensor(rng.normal(size=4 * k))
    layer = ad.lstm_layer(Tensor(xs), w_ih, w_hh, b)
    h, c = Tensor(np.zeros(k)), Tensor(np.zeros(k))
    for t in range(n_steps):
        h, c = ad.lstm_cell(Tensor(xs[t]), h, c, w_ih, w_hh, b)
        assert np.allclose(layer.data[t], h.data, rtol=0, atol=1e-12)


def test_lstm_layer_single_step_gives_recurrent_weights_a_zero_gradient(rng):
    d, k = 3, 4
    p = Parameters()
    xs = p.add("xs", rng.normal(size=(1, d)))
    w_ih = p.add("w_ih", rng.normal(size=(4 * k, d)))
    w_hh = p.add("w_hh", rng.normal(size=(4 * k, k)))
    b = p.add("b", rng.normal(size=4 * k))
    backward(ad.tsum(ad.lstm_layer(xs, w_ih, w_hh, b)))
    assert w_hh.grad is not None and np.array_equal(w_hh.grad, np.zeros((4 * k, k)))
    assert all(t.grad is not None and np.any(t.grad != 0) for t in (xs, w_ih, b))


def test_lstm_layer_rejects_bad_shapes():
    k = 4
    w_ih, w_hh, b = Tensor(np.zeros((4 * k, 3))), Tensor(np.zeros((4 * k, k))), Tensor(np.zeros(4 * k))
    with pytest.raises(ValueError, match="input dim"):
        ad.lstm_layer(Tensor(np.zeros((2, 5))), w_ih, w_hh, b)
    with pytest.raises(ValueError, match="non-empty"):
        ad.lstm_layer(Tensor(np.zeros((0, 3))), w_ih, w_hh, b)
    with pytest.raises(ValueError, match="hidden size"):
        ad.lstm_layer(Tensor(np.zeros((2, 3))), w_ih, w_hh, Tensor(np.zeros(k)))


def test_softmax_uniform_on_zeros():
    out = ad.softmax(Tensor(np.zeros(3)))
    assert np.allclose(out.data, 1.0 / 3.0)


def test_softmax_rows_sum_to_one_large_inputs(rng):
    x = Tensor(rng.uniform(-100, 100, size=(20, 7)))
    out = ad.softmax(x)
    assert np.all(np.abs(out.data.sum(axis=1) - 1.0) < 1e-6)
    assert np.all(out.data > 0)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ValueError):
        ad.cross_entropy(Tensor(np.zeros(3)), 5)


def test_attention_single_position_residual(rng):
    d = 4
    seq = rng.normal(size=(1, d))
    wv = rng.normal(size=(d, d))
    out = ad.attention_layer(Tensor(seq), Tensor(np.zeros((d, d))),
                             Tensor(np.zeros((d, d))), Tensor(wv))
    assert np.allclose(out.data, seq + seq @ wv)


def test_attention_zero_projections_residual_only(rng):
    seq = rng.normal(size=(5, 4))
    z = lambda: Tensor(np.zeros((4, 4)))
    out = ad.attention_layer(Tensor(seq), z(), z(), z())
    assert np.allclose(out.data, seq)


def test_attention_matches_direct_formula(rng):
    t, d = 3, 4
    seq, wq, wk, wv = (rng.normal(size=s) for s in ((t, d), (d, d), (d, d), (d, d)))
    got = ad.attention_layer(Tensor(seq), Tensor(wq), Tensor(wk), Tensor(wv)).data
    q, k, v = seq @ wq, seq @ wk, seq @ wv
    scores = q @ k.T / np.sqrt(d)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    want = seq + (e / e.sum(axis=1, keepdims=True)) @ v
    assert np.allclose(got, want, atol=1e-12)


# -- optimizer ---------------------------------------------------------------

def test_zero_gradients_leave_parameters_unchanged(rng):
    for kind in ("sgd", "adam"):
        p = Parameters()
        w = p.add("w", rng.normal(size=4))
        before = w.data.copy()
        w.grad = np.zeros(4)
        optimizer_step(OptimizerState(OptimizerConfig(kind=kind)), p)
        assert np.array_equal(w.data, before)
        assert w.grad is None


def test_sgd_arithmetic():
    p = Parameters()
    w = p.add("w", np.array([1.0]))
    w.grad = np.array([2.0])
    optimizer_step(OptimizerState(OptimizerConfig(kind="sgd", learning_rate=0.1)), p)
    assert np.allclose(w.data, 0.8)


def test_adam_first_step_magnitude_matches_formulas():
    p = Parameters()
    w = p.add("w", np.zeros(3))
    w.grad = np.ones(3)
    lr = 1e-3
    optimizer_step(OptimizerState(OptimizerConfig(kind="adam", learning_rate=lr)), p)
    # direct evaluation of the bias-corrected update with g=1
    m_hat = (0.1 * 1.0) / (1 - 0.9)
    v_hat = (0.001 * 1.0) / (1 - 0.999)
    expected = -lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(w.data, expected)
    assert abs(abs(expected) - lr) < 1e-8


def _reference_step(kind, data, moments, grads, step, frozen, lr=3e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Out-of-place update written the textbook way, as the comparison for the in-place step."""
    for name, g in grads.items():
        if name.startswith(frozen):
            continue
        if kind == "sgd":
            data[name] = data[name] - lr * g
            continue
        m, v = moments.get(name, (np.zeros_like(g), np.zeros_like(g)))
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        moments[name] = (m, v)
        m_hat = m / (1.0 - b1 ** step)
        v_hat = v / (1.0 - b2 ** step)
        data[name] = data[name] - lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_in_place_step_is_bit_identical_to_out_of_place_reference(rng, kind):
    shapes = {"enc.w": (3, 4), "out.w": (5, 2), "out.b": (5,), "big": (7, 6)}
    p = Parameters()
    for name, shape in shapes.items():
        p.add(name, rng.normal(size=shape))
    data = {name: t.data.copy() for name, t in p.items()}
    moments = {}
    p["enc.w"].requires_grad = False
    state = OptimizerState(OptimizerConfig(kind=kind, learning_rate=3e-3))
    for step in range(1, 9):
        grads = {name: rng.normal(scale=10.0 ** rng.integers(-4, 2), size=shape)
                 for name, shape in shapes.items()}
        for name, g in grads.items():
            p[name].grad = g.copy()
        optimizer_step(state, p)
        _reference_step(kind, data, moments, grads, step, "enc.")
        for name in shapes:
            assert np.array_equal(p[name].data, data[name]), (name, step)
            assert p[name].grad is None
    for name, (m, v) in moments.items():
        assert np.array_equal(state.moments[name][0], m) and np.array_equal(state.moments[name][1], v)
    assert "enc.w" not in state.moments


def test_missing_gradient_is_an_error():
    p = Parameters()
    p.add("w", np.zeros(3))
    with pytest.raises(ValueError, match="missing gradients"):
        optimizer_step(OptimizerState(), p)


def test_frozen_parameters_not_updated():
    p = Parameters()
    w = p.add("enc.w", np.ones(2))
    v = p.add("out.w", np.ones(2))
    w.requires_grad = False
    w.grad = np.ones(2)
    v.grad = np.ones(2)
    optimizer_step(OptimizerState(OptimizerConfig(kind="sgd", learning_rate=0.5)), p)
    assert np.array_equal(w.data, np.ones(2))
    assert not np.array_equal(v.data, np.ones(2))


# -- gradient checking -------------------------------------------------------

def test_grad_check_quadratic_is_nearly_exact(rng):
    p = Parameters()
    w = p.add("w", rng.normal(size=6))
    err = grad_check(lambda: ad.tsum(ad.mul(w, w)), p)
    assert err < 1e-6


def test_grad_check_detects_sign_flip(rng):
    p = Parameters()
    w = p.add("w", rng.normal(size=4))

    def corrupted():
        out = ad.tsum(ad.mul(w, w))

        def bad_bwd(g):
            w.grad = np.zeros_like(w.data) if w.grad is None else w.grad
            w.grad += -2.0 * w.data * g  # sign flipped

        return ad.Tensor(out.data, requires_grad=True, parents=(w,), backward_fn=bad_bwd)

    err = grad_check(corrupted, p)
    assert abs(err - 2.0) < 1e-3


def test_grad_check_rejects_nondeterministic_forward(rng):
    p = Parameters()
    p.add("w", np.zeros(2))
    state = {"n": 0}

    def noisy():
        state["n"] += 1
        return ad.Tensor(np.array(float(state["n"])))

    with pytest.raises(VerificationError, match="deterministic"):
        grad_check(noisy, p)


@pytest.mark.parametrize("op_name", sorted(CHECKS))
def test_every_op_passes_gradient_check_50_seeds(op_name):
    check = CHECKS[op_name]
    worst = max(check(seed) for seed in range(50))
    assert worst < TOLERANCE, f"{op_name}: worst relative error {worst:.3e}"


def graph_tensors(root: Tensor) -> list[Tensor]:
    """Every tensor a backward pass from root reaches, root included."""
    found, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in found:
            found[id(node)] = node
            stack.extend(node._parents)
    return list(found.values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_gradient_shares_memory_with_another_array_of_the_graph(rng, dtype):
    # an op's first gradient is kept without a copy only where nothing else holds it
    acoustic = build_acoustic_model(AcousticConfig(), 5, seed=1)
    vocab = TokenVocab.build(["a", "b", "c"])
    lm = build_lm(vocab, LmConfig(embed_dim=6, lstm1_units=5, lstm2_units=4), seed=2)
    for params in (acoustic, lm):
        for _, t in params.items():
            t.data = t.data.astype(dtype)
    feats = rng.standard_normal((40, 39))
    losses = [ctc_loss(acoustic_forward(acoustic, feats), [1, 2, 1]),
              sentence_loss(lm, [4, 5, 6, 4], vocab)]
    for loss in losses:
        backward(loss)
        tensors = graph_tensors(loss)
        assert all(t.grad is not None for t in tensors if t.requires_grad)
        for t in tensors:
            if t.grad is None:
                continue
            assert t.grad.dtype == t.data.dtype
            for other in tensors:
                arrays = [other.data] + ([other.grad] if other is not t and other.grad is not None
                                         else [])
                assert not any(np.shares_memory(t.grad, a) for a in arrays), t
