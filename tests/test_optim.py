"""Adam checked against an independent step-by-step reference implementation."""

import numpy as np
import pytest

from tailrec.optim import AdamState, adam_step, effective_lr
from tailrec.tensor import Tensor


def reference_adam(params, grad_seq, lr, warmup, b1=0.9, b2=0.999, eps=1e-8, l2=0.0):
    """Straight transcription of the update equations, scalar loops only."""
    params = [p.astype(np.float64).copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for step, grads in enumerate(grad_seq, start=1):
        lr_t = lr * min(step / warmup, 1.0) if warmup > 0 else lr
        for i, g in enumerate(grads):
            g = g + l2 * params[i]
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            mhat = m[i] / (1 - b1**step)
            vhat = v[i] / (1 - b2**step)
            params[i] = params[i] - lr_t * mhat / (np.sqrt(vhat) + eps)
    return params


def test_matches_reference_over_many_steps():
    rng = np.random.default_rng(11)
    shapes = [(3, 2), (4,)]
    init = [rng.standard_normal(s) for s in shapes]
    grad_seq = [[rng.standard_normal(s) for s in shapes] for _ in range(25)]

    tensors = [Tensor(p) for p in init]
    state = AdamState(peak_lr=0.01, warmup_steps=5, l2_coefficient=0.002)
    for grads in grad_seq:
        for t, g in zip(tensors, grads):
            t.grad = g.copy()
        adam_step(state, tensors)

    expected = reference_adam(init, grad_seq, lr=0.01, warmup=5, l2=0.002)
    for t, e in zip(tensors, expected):
        np.testing.assert_allclose(t.values, e, rtol=1e-12, atol=1e-14)


def test_warmup_schedule_endpoints():
    state = AdamState(peak_lr=0.1, warmup_steps=4)
    observed = []
    p = Tensor(np.zeros(1))
    for _ in range(6):
        observed.append(effective_lr(state))
        p.grad = np.ones(1)
        adam_step(state, [p])
    np.testing.assert_allclose(observed, [0.025, 0.05, 0.075, 0.1, 0.1, 0.1])


def test_no_warmup_uses_peak_immediately():
    state = AdamState(peak_lr=0.5, warmup_steps=0)
    assert effective_lr(state) == 0.5


def test_first_step_moves_parameters():
    p = Tensor(np.array([1.0]))
    state = AdamState(peak_lr=0.1, warmup_steps=10)
    p.grad = np.array([1.0])
    adam_step(state, [p])
    assert p.values[0] != 1.0


def test_none_grad_means_zero_but_l2_still_decays():
    p = Tensor(np.array([2.0]))
    state = AdamState(peak_lr=0.1, warmup_steps=0, l2_coefficient=0.01)
    p.grad = None
    adam_step(state, [p])
    assert p.values[0] < 2.0  # decay pulled it toward zero

    q = Tensor(np.array([2.0]))
    state2 = AdamState(peak_lr=0.1, warmup_steps=0, l2_coefficient=0.0)
    q.grad = None
    adam_step(state2, [q])
    np.testing.assert_allclose(q.values, [2.0])  # nothing moves without decay


def test_nonfinite_gradient_aborts_atomically():
    p = Tensor(np.array([1.0]))
    q = Tensor(np.array([2.0]))
    state = AdamState(peak_lr=0.1, warmup_steps=0)
    p.grad = np.array([1.0])
    q.grad = np.array([np.nan])
    with pytest.raises(FloatingPointError):
        adam_step(state, [p, q])
    # neither parameter nor the step counter changed
    np.testing.assert_allclose(p.values, [1.0])
    np.testing.assert_allclose(q.values, [2.0])
    assert state.t == 0


def test_param_count_mismatch_rejected():
    p = Tensor(np.zeros(2))
    state = AdamState(peak_lr=0.1)
    p.grad = np.zeros(2)
    adam_step(state, [p])
    with pytest.raises(ValueError):
        adam_step(state, [p, Tensor(np.zeros(2))])


def test_converges_on_quadratic():
    # minimize (p - 3)^2; gradient is 2(p - 3)
    p = Tensor(np.array([0.0]))
    state = AdamState(peak_lr=0.1, warmup_steps=10)
    for _ in range(500):
        p.grad = 2 * (p.values - 3.0)
        adam_step(state, [p])
    np.testing.assert_allclose(p.values, [3.0], atol=1e-3)


def per_tensor_adam(params, grad_seq, lr, warmup, l2, b1=0.9, b2=0.999, eps=1e-8):
    """The per-tensor update loop the flat store replaced, in its operation
    order: the store must give bitwise these values."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_seq, start=1):
        lr_t = lr * min(t / warmup, 1.0)
        bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
        for p, g, mi, vi in zip(params, grads, m, v):
            g = np.zeros_like(p) if g is None else g
            g = g + l2 * p
            mi *= b1
            mi += (1.0 - b1) * g
            vi *= b2
            vi += (1.0 - b2) * g * g
            p -= lr_t * (mi / bc1) / (np.sqrt(vi / bc2) + eps)
    return params


def test_flat_store_is_bitwise_the_per_tensor_loop():
    rng = np.random.default_rng(5)
    shapes = [(3, 2), (4,), (2, 2, 3), ()]
    init = [rng.standard_normal(s) for s in shapes]
    # the third tensor gets no gradient on every fourth step
    grad_seq = [[None if (j == 2 and step % 4 == 0) else rng.standard_normal(s)
                 for j, s in enumerate(shapes)] for step in range(25)]
    tensors = [Tensor(p) for p in init]
    state = AdamState(peak_lr=0.01, warmup_steps=5, l2_coefficient=0.002)
    for step, grads in enumerate(grad_seq):
        for t, g in zip(tensors, grads):
            if g is None:
                t.grad = None
            elif step % 2 or t.grad is None:  # assigned by the caller
                t.grad = g.copy()
            else:  # accumulated into the store's view, as the tape does
                t.grad += g
        adam_step(state, tensors)
    for t, want in zip(tensors, per_tensor_adam(init, grad_seq, 0.01, 5, 0.002)):
        assert np.array_equal(t.values, want)


def test_values_and_grads_are_views_into_the_store():
    p, q = Tensor(np.ones((2, 3))), Tensor(np.arange(4.0))
    state = AdamState(peak_lr=0.1)
    p.grad = np.full((2, 3), 0.5)
    adam_step(state, [p, q])
    for t in (p, q):
        assert np.shares_memory(t.values, state.values)
        assert np.shares_memory(t.grad, state.grad)
        assert not t.grad.any()  # zeroed for the next step
    assert state.values.size == state.m.size == 10
    # a value the caller assigns is copied into the store at the next step
    q.values = np.zeros(4)
    q.grad = np.ones(4)
    adam_step(state, [p, q])
    assert np.shares_memory(q.values, state.values) and (q.values < 0).all()


def test_nonfinite_gradient_leaves_store_and_moments_untouched():
    p, q = Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0]))
    state = AdamState(peak_lr=0.1, l2_coefficient=0.01)
    p.grad, q.grad = np.array([1.0, -1.0]), np.array([2.0])
    adam_step(state, [p, q])
    before = [a.copy() for a in (state.values, state.m, state.v)]
    p.grad, q.grad = np.array([0.5, 0.5]), np.array([np.inf])
    with pytest.raises(FloatingPointError):
        adam_step(state, [p, q])
    for a, b in zip((state.values, state.m, state.v), before):
        assert np.array_equal(a, b)
    assert state.t == 1
    assert np.array_equal(p.values, before[0][:2])


def test_a_different_parameter_list_of_the_same_size_is_rejected():
    p, q = Tensor(np.zeros(2)), Tensor(np.zeros(2))
    state = AdamState(peak_lr=0.1)
    adam_step(state, [p])
    with pytest.raises(ValueError):
        adam_step(state, [q])
