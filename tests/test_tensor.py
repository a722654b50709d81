"""Gradient checks for every differentiable op against central finite differences."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailrec import tensor as T
from tailrec.tensor import Tape, Tensor


def fd_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar-valued f at x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f(x)
        flat[i] = orig - eps
        dn = f(x)
        flat[i] = orig
        gf[i] = (up - dn) / (2 * eps)
    return g


def check_op(build, shapes, seed=0, rtol=1e-5, atol=1e-7):
    """Compare tape gradients of scalar loss = sum(build(*inputs)) to FD.

    build takes len(shapes) Tensor arguments and returns a Tensor.
    """
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(a) for a in arrays]
    with Tape() as tape:
        out = build(*tensors)
        # weight the output so the sum-gradient isn't trivially uniform
        w = np.linspace(0.5, 1.5, out.size).reshape(out.shape)
        loss = T.sum_(T.mul(out, w))
    tape.backward(loss)

    for k, arr in enumerate(arrays):
        def scalar(x, k=k, w=w):
            vals = [a.copy() for a in arrays]
            vals[k] = x
            ts = [Tensor(v) for v in vals]
            return float((build(*ts).values * w).sum())

        ref = fd_grad(scalar, arr.copy())
        got = tensors[k].grad
        assert got is not None, f"input {k} never received a gradient"
        np.testing.assert_allclose(got, ref, rtol=rtol, atol=atol)


def test_add_broadcast_grad():
    check_op(lambda a, b: T.add(a, b), [(3, 4), (4,)])


def test_sub_broadcast_grad():
    check_op(lambda a, b: T.sub(a, b), [(2, 3, 4), (3, 4)])


def test_mul_grad():
    check_op(lambda a, b: T.mul(a, b), [(3, 4), (3, 4)])


def test_mul_scalar_broadcast_grad():
    check_op(lambda a, b: T.mul(a, b), [(5,), (1,)])


def test_matmul_grad():
    check_op(lambda a, b: T.matmul(a, b), [(3, 4), (4, 5)])


def test_matmul_batched_grad():
    check_op(lambda a, b: T.matmul(a, b), [(2, 3, 4), (2, 4, 5)])


def test_matmul_broadcast_batch_grad():
    # unbatched rhs broadcasts across the batch axis of lhs
    check_op(lambda a, b: T.matmul(a, b), [(2, 3, 4), (4, 5)])


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))))
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_sum_grad_all():
    check_op(lambda a: T.sum_(a), [(3, 4)])


def test_sum_grad_axis():
    check_op(lambda a: T.sum_(a, axis=1), [(3, 4)])


def test_sum_grad_keepdims():
    check_op(lambda a: T.sum_(a, axis=0, keepdims=True), [(3, 4)])


def test_mean_grad():
    check_op(lambda a: T.mean_(a, axis=-1), [(2, 5)])


def test_reshape_grad():
    check_op(lambda a: T.reshape(a, (2, 6)), [(3, 4)])


def test_transpose_grad():
    check_op(lambda a: T.transpose(a, (1, 0, 2)), [(2, 3, 4)])


def test_take_rows_grad_with_duplicates():
    idx = np.array([0, 2, 2, 1])
    check_op(lambda a: T.take_rows(a, idx), [(4, 3)])


def test_take_rows_2d_index():
    idx = np.array([[0, 1], [2, 0]])
    check_op(lambda a: T.take_rows(a, idx), [(3, 5)])


def _scatter_cases():
    rng = np.random.default_rng(7)
    pad = 300  # a (128, 20) table lookup whose pad row repeats hundreds of times
    lookup = np.where(rng.random((128, 20)) < 0.35, pad, rng.integers(0, 302, (128, 20)))
    return {
        "table-lookup": ((302, 32), lookup),
        "4d-gather": ((6, 2, 20, 16), np.array([3, 0, 3, 5, 1, 3, 0, 5, 3])),
        "empty": ((5, 4), np.zeros(0, dtype=np.intp)),
        "slice": ((12, 3), slice(10)),
    }


@pytest.mark.parametrize("case", ["table-lookup", "4d-gather", "empty", "slice"])
def test_take_rows_backward_is_bitwise_np_add_at(case):
    shape, idx = _scatter_cases()[case]
    rng = np.random.default_rng(3)
    a = Tensor(rng.standard_normal(shape))
    out_shape = a.values[idx].shape
    # magnitudes over 16 decades, so any other summation order rounds differently
    w = rng.standard_normal(out_shape) * 10.0 ** rng.uniform(-8, 8, out_shape)
    with Tape() as tape:
        loss = T.sum_(T.mul(T.take_rows(a, idx), w))
    tape.backward(loss)
    want = np.zeros(shape)
    np.add.at(want, np.arange(shape[0])[idx], w)
    assert a.grad.flags.c_contiguous
    assert a.grad.tobytes() == want.tobytes()


def test_softmax_grad():
    check_op(lambda a: T.softmax(a, axis=-1), [(3, 5)])


def test_softmax_value():
    out = T.softmax(Tensor(np.array([2.0, 0.0])))
    np.testing.assert_allclose(out.values, [0.88079707797788, 0.11920292202212], atol=1e-12)


def test_logsumexp_grad():
    check_op(lambda a: T.logsumexp(a, axis=-1), [(4, 6)])


def test_logsumexp_keepdims_grad():
    check_op(lambda a: T.logsumexp(a, axis=1, keepdims=True), [(3, 4)])


def test_logsumexp_stable_large_inputs():
    x = Tensor(np.array([1000.0, 1000.0]))
    out = T.logsumexp(x, axis=-1)
    np.testing.assert_allclose(out.values, 1000.0 + np.log(2.0))


def test_gelu_grad():
    check_op(lambda a: T.gelu(a), [(37,)], rtol=1e-5, atol=1e-6)


def test_gelu_value():
    # phi-weighted identity at a few hand-checked points
    out = T.gelu(Tensor(np.array([0.0, 1.0, -1.0])))
    np.testing.assert_allclose(out.values, [0.0, 0.8413447460685429, -0.15865525393145707], atol=1e-12)


def test_tanh_grad():
    check_op(lambda a: T.tanh_(a), [(6,)])


def test_sigmoid_grad():
    check_op(lambda a: T.sigmoid(a), [(6,)])


def test_sigmoid_saturation():
    out = T.sigmoid(Tensor(np.array([-800.0, 800.0])))
    assert np.all(np.isfinite(out.values))
    np.testing.assert_allclose(out.values, [0.0, 1.0], atol=1e-12)


# ------------------------------------------------------------ fused GRU recurrence

GRU_SHAPES = lambda b, l, d: [(b, l, d)] + [(d, d), (d, d), (d,)] * 3
# row 0 skips a step in the middle; column 0 is padding in every row
GRU_GATE = np.array([[0, 1, 1, 0, 1, 1], [0, 0, 1, 1, 1, 1], [0, 1, 1, 1, 1, 1]], dtype=bool)


def gru_reference(x, gate, wz, uz, bz, wr, ur, br, wc, uc, bc):
    """The recurrence as single-step tape ops, in the order the fused op
    promises to reproduce bit for bit."""
    b, l, d = x.shape
    h = Tensor(np.zeros((b, d)))
    steps = T.transpose(x, (1, 0, 2))
    for t in range(l):
        xt = T.reshape(T.take_rows(steps, np.array([t])), (b, d))
        z = T.sigmoid(T.add(T.add(T.matmul(xt, wz), T.matmul(h, uz)), bz))
        r = T.sigmoid(T.add(T.add(T.matmul(xt, wr), T.matmul(h, ur)), br))
        c = T.tanh_(T.add(T.add(T.matmul(xt, wc), T.matmul(T.mul(r, h), uc)), bc))
        hn = T.add(h, T.mul(z, T.sub(c, h)))
        g = np.asarray(gate, dtype=np.float64)[:, t, None]
        h = T.add(h, T.mul(g, T.sub(hn, h)))
    return h


def test_gru_sequence_grad_every_parameter_and_input():
    check_op(lambda x, *p: T.gru_sequence(x, GRU_GATE, *p), GRU_SHAPES(3, 6, 4), seed=1)


@pytest.mark.parametrize("b", [1, 3])
def test_gru_sequence_matches_the_per_step_composition(b):
    rng = np.random.default_rng(2)
    arrays = [rng.standard_normal(s) for s in GRU_SHAPES(b, 6, 4)]
    w = rng.standard_normal((b, 4))
    results = []
    for build in (gru_reference, T.gru_sequence):
        tensors = [Tensor(a) for a in arrays]
        with Tape() as tape:
            out = build(tensors[0], GRU_GATE[:b], *tensors[1:])
            loss = T.sum_(T.mul(out, w))
        tape.backward(loss)
        results.append((out.values, [t.grad for t in tensors], len(tape)))
    (ref, ref_grads, ref_records), (got, got_grads, got_records) = results
    assert np.array_equal(got, ref)  # forward values bit for bit
    for k, (g, r) in enumerate(zip(got_grads, ref_grads)):
        np.testing.assert_allclose(g, r, rtol=0, atol=1e-12, err_msg=f"input {k}")
    assert got_records == 3 and ref_records > 100


def test_gru_sequence_all_padding_is_the_zero_state():
    x = Tensor(np.ones((2, 3, 4)))
    params = [Tensor(np.ones(s)) for s in GRU_SHAPES(2, 3, 4)[1:]]
    with Tape() as tape:
        out = T.gru_sequence(x, np.zeros((2, 3), dtype=bool), *params)
        loss = T.sum_(out)
    tape.backward(loss)
    assert np.array_equal(out.values, np.zeros((2, 4)))
    assert x.grad is None and all(p.grad is None for p in params)


def test_gru_sequence_keeps_no_steps_without_a_tape():
    rng = np.random.default_rng(3)
    x, *params = [rng.standard_normal(s) * 0.3 for s in GRU_SHAPES(32, 200, 8)]
    gate = np.ones((32, 200), dtype=bool)
    peaks = []
    for taped in (False, True):
        tracemalloc.start()
        if taped:
            with Tape():
                T.gru_sequence(x, gate, *params)
        else:
            T.gru_sequence(x, gate, *params)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # one contiguous copy of x is the only (L, B, d)-sized buffer untaped;
    # taped, h, z, r and c are kept for every step
    assert peaks[0] < 1.5 * x.nbytes
    assert peaks[1] > 4 * x.nbytes


def test_layer_norm_grad():
    check_op(
        lambda a, g, b: T.layer_norm(a, g, b),
        [(3, 8), (8,), (8,)],
        rtol=1e-4,
        atol=1e-6,
    )


def test_layer_norm_moments():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 16)) * 5 + 2)
    out = T.layer_norm(x, np.ones(16), np.zeros(16))
    np.testing.assert_allclose(out.values.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.values.std(axis=-1), 1.0, atol=1e-6)


def test_dropout_identity_at_rate_zero():
    x = Tensor(np.arange(6.0))
    out = T.dropout(x, 0.0)
    assert out is x


def test_dropout_rejects_bad_rate():
    with pytest.raises(ValueError):
        T.dropout(Tensor(np.ones(3)), 1.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        T.dropout(Tensor(np.ones(3)), -0.1, rng=np.random.default_rng(0))


def test_dropout_scales_survivors():
    rng = np.random.default_rng(5)
    x = Tensor(np.ones(10_000))
    out = T.dropout(x, 0.25, rng=rng)
    kept = out.values != 0
    np.testing.assert_allclose(out.values[kept], 1.0 / 0.75)
    assert abs(kept.mean() - 0.75) < 0.02


def test_dropout_grad_matches_mask():
    rng = np.random.default_rng(7)
    x = Tensor(np.random.default_rng(1).standard_normal(50))
    with Tape() as tape:
        out = T.dropout(x, 0.4, rng=rng)
        loss = T.sum_(out)
    tape.backward(loss)
    mask = out.values / np.where(x.values == 0, 1.0, x.values)
    np.testing.assert_allclose(x.grad, np.where(out.values != 0, 1.0 / 0.6, 0.0))


def test_public_constructor_copies_its_input():
    x = np.arange(4.0)
    t = Tensor(x)
    x[0] = 9.0
    np.testing.assert_array_equal(t.values, [0.0, 1.0, 2.0, 3.0])


def test_constants_do_not_get_grads():
    x = Tensor(np.ones((2, 2)))
    c = np.full((2, 2), 3.0)
    with Tape() as tape:
        loss = T.sum_(T.mul(x, c))
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, c)


def test_grad_accumulates_across_uses():
    x = Tensor(np.array([2.0]))
    with Tape() as tape:
        loss = T.sum_(T.add(T.mul(x, x), x))  # x^2 + x -> 2x + 1 = 5
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [5.0])


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones(3))
    with Tape() as tape:
        out = T.mul(x, 2.0)
    with pytest.raises(ValueError):
        tape.backward(out)


def test_no_tape_records_nothing():
    x = Tensor(np.ones(3))
    out = T.mul(x, 2.0)
    with Tape() as tape:
        pass
    assert len(tape) == 0
    assert out.grad is None


def test_composite_expression_grad():
    def net(x, w1, w2):
        h = T.gelu(T.matmul(x, w1))
        return T.softmax(T.matmul(h, w2), axis=-1)

    check_op(net, [(2, 3), (3, 4), (4, 5)], rtol=1e-4, atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_softmax_rows_sum_to_one(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((rows, cols)) * 10)
    out = T.softmax(x, axis=-1)
    np.testing.assert_allclose(out.values.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(out.values >= 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_unbroadcast_roundtrip_property(seed):
    # grad of broadcast add must match FD regardless of shapes drawn
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((3, 1)))
    b = Tensor(rng.standard_normal((1, 4)))
    with Tape() as tape:
        loss = T.sum_(T.add(a, b))
    tape.backward(loss)
    np.testing.assert_allclose(a.grad, np.full((3, 1), 4.0))
    np.testing.assert_allclose(b.grad, np.full((1, 4), 3.0))


def test_first_gradient_is_an_owned_c_order_copy():
    # add hands one gradient array to both operands: each must own a copy
    x, y = Tensor(np.ones((2, 3))), Tensor(np.full((2, 3), 2.0))
    w = np.arange(6.0).reshape(2, 3)
    with Tape() as tape:
        loss = T.sum_(T.mul(T.add(x, y), w))
    tape.backward(loss)
    x.grad[0, 0] = 99.0
    assert np.array_equal(y.grad, w)
    # a transposed gradient is stored C-contiguous, as the values are laid out
    a = Tensor(np.ones((3, 4)))
    with Tape() as tape:
        loss = T.sum_(T.mul(T.transpose(a, (1, 0)), np.arange(12.0).reshape(4, 3)))
    tape.backward(loss)
    assert a.grad.flags.c_contiguous
    assert np.array_equal(a.grad, np.arange(12.0).reshape(4, 3).T)
    # a later gradient adds into the owned buffer
    with Tape() as tape:
        loss = T.sum_(T.mul(x, 2.0))
    tape.backward(loss)
    assert x.grad[0, 0] == 101.0 and x.grad[1, 2] == w[1, 2] + 2.0
