"""Adam with linear learning-rate warmup and decoupled-from-loss L2 decay.

The L2 term is applied inside the optimizer as a gradient penalty
``g + l2 * p`` rather than added to the loss, so loss values reported during
training are pure data terms.

The state owns one flat float64 vector each for the parameter values, their
gradients and the two moments. From the first step on, every parameter's
``values`` and ``grad`` are reshaped views into the value and gradient
vectors, so the tape accumulates straight into the store and one step is a
handful of whole-vector operations, not a loop over tensors. The update is
elementwise, so it is bitwise the per-tensor update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

__all__ = ["AdamState", "adam_step", "effective_lr"]


@dataclass
class AdamState:
    """Optimizer state of one parameter list.

    ``t`` counts completed steps; the warmup factor for the step being taken
    is ``min((t+1)/warmup_steps, 1)`` so the very first step already moves
    the parameters. ``values``, ``grad``, ``m`` and ``v`` are the flat store,
    built at the first step.
    """

    peak_lr: float
    warmup_steps: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    l2_coefficient: float = 0.0
    t: int = 0
    values: np.ndarray | None = None
    grad: np.ndarray | None = None
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    _slots: list = field(default_factory=list, repr=False)  # (param, values view, grad view)
    _s1: np.ndarray | None = field(default=None, repr=False)  # work buffers of one step
    _s2: np.ndarray | None = field(default=None, repr=False)

    def _bind(self, params: list[Tensor]) -> None:
        """Copy the parameters into a new store and point them at it."""
        sizes = [p.values.size for p in params]
        total = sum(sizes)
        self.values, self.grad = np.empty(total), np.empty(total)
        self.m, self.v = np.zeros(total), np.zeros(total)
        self._s1, self._s2 = np.empty(total), np.empty(total)
        lo = 0
        for p, n in zip(params, sizes):
            vals = self.values[lo:lo + n].reshape(p.values.shape)
            self._slots.append((p, vals, self.grad[lo:lo + n].reshape(p.values.shape)))
            vals[...] = p.values
            p.values = vals
            lo += n

    def _gather(self, params: list[Tensor]) -> None:
        """Make every parameter's values and grad the store's views again:
        values the caller reassigned and gradients the tape did not write
        into the store (assigned, or freshly taken) are copied in; a grad
        of None reads as zero."""
        if not self._slots:
            self._bind(params)
        elif len(params) != len(self._slots) or any(
                p is not q for p, (q, _, _) in zip(params, self._slots)):
            raise ValueError(
                f"optimizer state tracks {len(self._slots)} parameters, got a different list "
                f"of {len(params)}"
            )
        for p, vals, grad in self._slots:
            if p.values is not vals:
                vals[...] = p.values
                p.values = vals
            if p.grad is not grad:
                if p.grad is None:
                    grad.fill(0.0)
                else:
                    grad[...] = p.grad
                p.grad = grad


def effective_lr(state: AdamState) -> float:
    """Learning rate that the *next* call to adam_step will use."""
    if state.warmup_steps <= 0:
        return state.peak_lr
    return state.peak_lr * min((state.t + 1) / state.warmup_steps, 1.0)


def adam_step(state: AdamState, params: list[Tensor]) -> None:
    """One in-place Adam update over ``params`` using their ``.grad`` buffers,
    which it then zeroes.

    A parameter with ``grad=None`` is treated as having zero gradient (it
    still decays under L2 and its moments update). If any gradient contains
    a non-finite value the step aborts before touching values, moments or
    the step count. Every call must pass the same parameter list.
    """
    state._gather(params)
    g = state.grad
    if not np.isfinite(g).all():
        raise FloatingPointError("non-finite gradient; step aborted")

    lr = effective_lr(state)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    # the per-tensor expressions, evaluated in the same order into two
    # preallocated buffers: large temporaries would cost more than the arithmetic
    m, v, p, s1, s2 = state.m, state.v, state.values, state._s1, state._s2
    if state.l2_coefficient:
        g = np.add(g, np.multiply(state.l2_coefficient, p, out=s1), out=s1)  # g + l2 * p
    m *= b1
    m += np.multiply(1.0 - b1, g, out=s2)
    v *= b2
    v += np.multiply(np.multiply(1.0 - b2, g, out=s2), g, out=s2)  # (1 - b2) * g * g
    mhat = np.divide(m, bc1, out=s1)
    vhat = np.divide(v, bc2, out=s2)
    step = np.multiply(lr, mhat, out=s1)
    step /= np.add(np.sqrt(vhat, out=s2), state.epsilon, out=s2)
    p -= step  # lr * mhat / (sqrt(vhat) + eps)
    state.grad.fill(0.0)
