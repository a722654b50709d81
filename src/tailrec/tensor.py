"""Dense float64 tensors with tape-based reverse-mode autodiff.

All learnable state in this package lives in :class:`Tensor` objects backed
by row-major numpy float64 arrays. Forward computations executed inside a
``with Tape() as tape:`` block record adjoint closures; ``tape.backward(loss)``
replays them exactly once, in reverse order of recording, accumulating
gradients into every tensor that influenced the loss. Ops called with no
active tape run plain numpy, which is the inference path.

Plain numbers and ndarrays are accepted wherever a tensor is expected; they
act as constants and never receive gradients.

Most ops are single numpy expressions. ``gru_sequence`` is fused: it runs a
whole GRU recurrence in one call and records one closure that
backpropagates through time by hand, instead of about 26 records per step.
Its forward values are bitwise those of the composed single-step ops.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "Tape",
    "add",
    "sub",
    "mul",
    "neg",
    "matmul",
    "sum_",
    "mean_",
    "reshape",
    "transpose",
    "take_rows",
    "softmax",
    "logsumexp",
    "gelu",
    "tanh_",
    "sigmoid",
    "gru_sequence",
    "layer_norm",
    "dropout",
    "reset_grads",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """A float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("values", "grad")

    def __init__(self, values):
        self.values = np.array(values, dtype=np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape})"

    # arithmetic sugar; all work is done by the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of adjoint closures for one forward computation.

    Single-writer: one training step builds and consumes one tape on one
    thread. Replaying backward visits each recorded op exactly once, in
    reverse order of recording.
    """

    def __init__(self):
        self._records: list = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and accumulate gradients for every input.

        Tensors that never influenced ``loss`` keep ``grad=None``; callers
        treat that as a zero gradient.
        """
        if loss.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.values)
        for fn in reversed(self._records):
            fn()


def _active() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(fn) -> None:
    tape = _active()
    if tape is not None:
        tape._records.append(fn)


def _val(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.values
    return np.asarray(x, dtype=np.float64)


def _accum(t, g: np.ndarray) -> None:
    if not isinstance(t, Tensor):
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def reset_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def add(a, b) -> Tensor:
    av, bv = _val(a), _val(b)
    out = Tensor(av + bv)

    def _bw():
        g = out.grad
        if g is None:
            return
        _accum(a, _unbroadcast(g, av.shape))
        _accum(b, _unbroadcast(g, bv.shape))

    _record(_bw)
    return out


def sub(a, b) -> Tensor:
    av, bv = _val(a), _val(b)
    out = Tensor(av - bv)

    def _bw():
        g = out.grad
        if g is None:
            return
        _accum(a, _unbroadcast(g, av.shape))
        _accum(b, _unbroadcast(-g, bv.shape))

    _record(_bw)
    return out


def neg(a) -> Tensor:
    out = Tensor(-_val(a))

    def _bw():
        if out.grad is not None:
            _accum(a, -out.grad)

    _record(_bw)
    return out


def mul(a, b) -> Tensor:
    av, bv = _val(a), _val(b)
    out = Tensor(av * bv)

    def _bw():
        g = out.grad
        if g is None:
            return
        _accum(a, _unbroadcast(g * bv, av.shape))
        _accum(b, _unbroadcast(g * av, bv.shape))

    _record(_bw)
    return out


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    av, bv = _val(a), _val(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError(f"matmul needs ndim >= 2 operands, got {av.shape} and {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {av.shape} vs {bv.shape}")
    out = Tensor(av @ bv)

    def _bw():
        g = out.grad
        if g is None:
            return
        _accum(a, _unbroadcast(g @ bv.swapaxes(-1, -2), av.shape))
        _accum(b, _unbroadcast(av.swapaxes(-1, -2) @ g, bv.shape))

    _record(_bw)
    return out


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    av = _val(a)
    out = Tensor(av.sum(axis=axis, keepdims=keepdims))

    def _bw():
        g = out.grad
        if g is None:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, av.shape).copy())

    _record(_bw)
    return out


def mean_(a, axis=None, keepdims: bool = False) -> Tensor:
    av = _val(a)
    n = av.size if axis is None else np.prod([av.shape[i] for i in np.atleast_1d(axis)])
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def reshape(a, shape) -> Tensor:
    av = _val(a)
    out = Tensor(av.reshape(shape))

    def _bw():
        if out.grad is not None:
            _accum(a, out.grad.reshape(av.shape))

    _record(_bw)
    return out


def transpose(a, axes) -> Tensor:
    av = _val(a)
    out = Tensor(av.transpose(axes))
    inv = np.argsort(axes)

    def _bw():
        if out.grad is not None:
            _accum(a, out.grad.transpose(inv))

    _record(_bw)
    return out


def take_rows(a, indices) -> Tensor:
    """Gather rows along axis 0; duplicate indices accumulate gradient."""
    av = _val(a)
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(av[idx])

    def _bw():
        g = out.grad
        if g is None:
            return
        if isinstance(a, Tensor):
            buf = np.zeros_like(av)
            np.add.at(buf, idx, g)
            _accum(a, buf)

    _record(_bw)
    return out


def softmax(a, axis: int = -1) -> Tensor:
    av = _val(a)
    shifted = av - av.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s)

    def _bw():
        g = out.grad
        if g is None:
            return
        _accum(a, s * (g - (g * s).sum(axis=axis, keepdims=True)))

    _record(_bw)
    return out


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    av = _val(a)
    m = av.max(axis=axis, keepdims=True)
    e = np.exp(av - m)
    tot = e.sum(axis=axis, keepdims=True)
    res = np.log(tot) + m
    if not keepdims:
        res = np.squeeze(res, axis=axis)
    out = Tensor(res)
    soft = e / tot

    def _bw():
        g = out.grad
        if g is None:
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, soft * g)

    _record(_bw)
    return out


def gelu(a) -> Tensor:
    """Exact Gaussian error linear unit, x * Phi(x)."""
    av = _val(a)
    cdf = 0.5 * (1.0 + erf(av * _INV_SQRT2))
    out = Tensor(av * cdf)

    def _bw():
        g = out.grad
        if g is None:
            return
        pdf = np.exp(-0.5 * av * av) * _INV_SQRT2PI
        _accum(a, g * (cdf + av * pdf))

    _record(_bw)
    return out


def tanh_(a) -> Tensor:
    t = np.tanh(_val(a))
    out = Tensor(t)

    def _bw():
        if out.grad is not None:
            _accum(a, out.grad * (1.0 - t * t))

    _record(_bw)
    return out


def _sigmoid_values(av: np.ndarray) -> np.ndarray:
    """Logistic function, stable in both tails; shared by ``sigmoid`` and
    ``gru_sequence`` so their forward values agree bit for bit."""
    e = np.exp(-np.abs(av))
    return np.where(av >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    s = _sigmoid_values(_val(a))
    out = Tensor(s)

    def _bw():
        if out.grad is not None:
            _accum(a, out.grad * s * (1.0 - s))

    _record(_bw)
    return out


def gru_sequence(x, gate, wz, uz, bz, wr, ur, br, wc, uc, bc) -> Tensor:
    """Whole left-to-right GRU recurrence over x (B, L, d) from a zero state.

    Step t computes z = sigmoid((x_t Wz + h Uz) + bz), r likewise with the
    ``*r`` weights, c = tanh((x_t Wc + (r h) Uc) + bc) and hn = h + z (c - h),
    then moves the state to h + g_t (hn - h), where ``gate`` (B, L) is 1 on
    real steps and 0 on pad steps. Returns the final state (B, d) with values
    bitwise equal to composing the single-step ops above in that order.

    The loop runs in plain numpy. Leading steps that are padding in every
    row leave the zero state exactly as it is, so they are skipped. Under an
    active tape the op keeps the per-step h, z, r and c and records one
    closure that backpropagates through time; the weight and bias gradients
    are summed once over all steps, and the input gradient is one product per
    gate. Without a tape nothing per-step is kept.
    """
    xv = _val(x)
    b, l, d = xv.shape
    gv = np.asarray(gate, dtype=np.float64)
    wzv, uzv, bzv, wrv, urv, brv, wcv, ucv, bcv = (
        _val(p) for p in (wz, uz, bz, wr, ur, br, wc, uc, bc))
    live = np.flatnonzero(gv.any(axis=0))
    start = int(live[0]) if live.size else l
    xs = np.ascontiguousarray(xv.transpose(1, 0, 2)[start:])  # (steps, B, d)
    taped = _active() is not None
    steps = []  # (state before the step, z, r, c), kept under a tape only
    h = np.zeros((b, d))
    for t in range(start, l):
        xt = xs[t - start]
        z = _sigmoid_values(xt @ wzv + h @ uzv + bzv)
        r = _sigmoid_values(xt @ wrv + h @ urv + brv)
        c = np.tanh(xt @ wcv + (r * h) @ ucv + bcv)
        if taped:
            steps.append((h, z, r, c))
        hn = h + z * (c - h)
        h = h + gv[:, t, None] * (hn - h)
    out = Tensor(h)
    if not taped:
        return out

    def _bw():
        dh = out.grad
        n = l - start
        if dh is None or n == 0:
            return
        daz, dar, dac = (np.empty((n, b, d)) for _ in range(3))
        for k in range(n - 1, -1, -1):
            hp, z, r, c = steps[k]
            dhn = gv[:, start + k, None] * dh
            ac = dhn * z * (1.0 - c * c)
            az = dhn * (c - hp) * z * (1.0 - z)
            drh = ac @ ucv.T
            ar = drh * hp * r * (1.0 - r)
            dh = dh - dhn * z + drh * r + az @ uzv.T + ar @ urv.T
            daz[k], dar[k], dac[k] = az, ar, ac
        flat = lambda a: a.reshape(n * b, d)
        xf, hf = flat(xs), flat(np.stack([s[0] for s in steps]))
        rhf = flat(np.stack([s[2] for s in steps])) * hf
        gz, gr, gc = flat(daz), flat(dar), flat(dac)
        for p, g in ((wz, xf.T @ gz), (uz, hf.T @ gz), (bz, gz.sum(axis=0)),
                     (wr, xf.T @ gr), (ur, hf.T @ gr), (br, gr.sum(axis=0)),
                     (wc, xf.T @ gc), (uc, rhf.T @ gc), (bc, gc.sum(axis=0))):
            _accum(p, g)
        if isinstance(x, Tensor):
            dx = np.zeros((l, b, d))
            dx[start:] = (gz @ wzv.T + gr @ wrv.T + gc @ wcv.T).reshape(n, b, d)
            _accum(x, dx.transpose(1, 0, 2))

    _record(_bw)
    return out


def layer_norm(a, gain, bias, eps: float = 1e-12) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    av = _val(a)
    gv, bv = _val(gain), _val(bias)
    mu = av.mean(axis=-1, keepdims=True)
    var = av.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (av - mu) * inv
    out = Tensor(xhat * gv + bv)

    def _bw():
        g = out.grad
        if g is None:
            return
        ghat = g * gv
        n = av.shape[-1]
        dx = inv * (ghat - ghat.mean(axis=-1, keepdims=True) - xhat * (ghat * xhat).sum(axis=-1, keepdims=True) / n)
        _accum(a, dx)
        red = tuple(range(av.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=red) if red else g * xhat)
        _accum(bias, g.sum(axis=red) if red else g)

    _record(_bw)
    return out


def dropout(a, rate: float, training_flag: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Identity when not training or when rate == 0.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training_flag or rate == 0.0:
        return a if isinstance(a, Tensor) else Tensor(_val(a))
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    av = _val(a)
    keep = (rng.random(av.shape) >= rate).astype(np.float64) / (1.0 - rate)
    out = Tensor(av * keep)

    def _bw():
        if out.grad is not None:
            _accum(a, out.grad * keep)

    _record(_bw)
    return out
