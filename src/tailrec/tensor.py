"""Dense float64 tensors with tape-based reverse-mode autodiff.

All learnable state in this package lives in :class:`Tensor` objects backed
by row-major numpy float64 arrays. Forward computations executed inside a
``with Tape() as tape:`` block record adjoint closures; ``tape.backward(loss)``
replays them exactly once, in reverse order of recording, accumulating
gradients into every tensor that influenced the loss. Ops called with no
active tape run plain numpy, which is the inference path.

Plain numbers and ndarrays are accepted wherever a tensor is expected; they
act as constants and never receive gradients. ``Tensor(x)`` copies ``x``; an
op wraps the array it just computed as it is (``Tensor._wrap``).

Most ops are single numpy expressions. Three are fused, each recording one
closure where the composed ops would record many: ``gru_sequence`` runs a
whole GRU recurrence and backpropagates through time by hand (instead of
about 26 records per step), ``attention`` is a whole multi-head attention
layer (instead of 22) and ``linear`` an affine layer (instead of 2). Their
values are bitwise those of the composed ops; ``attention`` and ``linear``
replay the composed backward in its order and memory layouts, so their
gradients are bitwise equal too. The broadcast, layer-norm and softmax sums
call ``np.add.reduce``, which ``ndarray.sum``, ``mean`` and ``var`` wrap.
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
    "matmul",
    "linear",
    "sum_",
    "mean_",
    "reshape",
    "transpose",
    "take_rows",
    "softmax",
    "attention",
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

    @classmethod
    def _wrap(cls, values) -> "Tensor":
        """An op's freshly computed result, taken without the copy that
        ``Tensor(values)`` makes. Reshape, transpose and sliced ``take_rows``
        results are views of the op's input, which no op writes to."""
        t = cls.__new__(cls)
        t.values = np.asarray(values, dtype=np.float64)
        t.grad = None
        return t

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


def _accum(t, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` into ``t.grad``. A first gradient is taken as a C-order copy
    (a closure may hand one array to two operands, and another layout would
    round differently in BLAS) unless it is C-order and ``fresh``: new, for t."""
    if not isinstance(t, Tensor):
        return
    if t.grad is None:
        t.grad = g if fresh and isinstance(g, np.ndarray) and g.flags.c_contiguous else np.array(g, order="C")
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = np.add.reduce(g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = np.add.reduce(g, axis=axes, keepdims=True)
    return g


def reset_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def add(a, b) -> Tensor:
    av, bv = _val(a), _val(b)
    out = Tensor._wrap(av + bv)

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
    out = Tensor._wrap(av - bv)

    def _bw():
        g = out.grad
        if g is None:
            return
        _accum(a, _unbroadcast(g, av.shape))
        _accum(b, _unbroadcast(-g, bv.shape), fresh=True)

    _record(_bw)
    return out


def mul(a, b) -> Tensor:
    av, bv = _val(a), _val(b)
    out = Tensor._wrap(av * bv)

    def _bw():
        g = out.grad
        if g is None:
            return
        _accum(a, _unbroadcast(g * bv, av.shape), fresh=True)
        _accum(b, _unbroadcast(g * av, bv.shape), fresh=True)

    _record(_bw)
    return out


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    av, bv = _val(a), _val(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError(f"matmul needs ndim >= 2 operands, got {av.shape} and {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {av.shape} vs {bv.shape}")
    out = Tensor._wrap(av @ bv)

    def _bw():
        g = out.grad
        if g is None:
            return
        _accum(a, _unbroadcast(g @ bv.swapaxes(-1, -2), av.shape), fresh=True)
        _accum(b, _unbroadcast(av.swapaxes(-1, -2) @ g, bv.shape), fresh=True)

    _record(_bw)
    return out


def _affine_bw(g: np.ndarray, av: np.ndarray, wv: np.ndarray, w, b) -> np.ndarray:
    """The backward of ``add(matmul(a, w), b)`` from the sum's gradient ``g``,
    as those two closures compute it: accumulates into ``w`` and ``b`` and
    returns the new gradient of ``a``."""
    _accum(b, _unbroadcast(g, _val(b).shape))
    g = np.ascontiguousarray(g)  # add hands matmul a C-order gradient
    _accum(w, _unbroadcast(av.swapaxes(-1, -2) @ g, wv.shape), fresh=True)
    return _unbroadcast(g @ wv.swapaxes(-1, -2), av.shape)


def linear(a, w, b) -> Tensor:
    """Affine map ``a @ w + b`` as one record, bitwise ``add(matmul(a, w), b)``."""
    av, wv = _val(a), _val(w)
    out = Tensor._wrap(av @ wv + _val(b))

    def _bw():
        if out.grad is not None:
            _accum(a, _affine_bw(out.grad, av, wv, w, b), fresh=True)

    _record(_bw)
    return out


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    av = _val(a)
    out = Tensor._wrap(np.add.reduce(av, axis=axis, keepdims=keepdims))

    def _bw():
        g = out.grad
        if g is None:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, av.shape))

    _record(_bw)
    return out


def mean_(a, axis=None, keepdims: bool = False) -> Tensor:
    av = _val(a)
    n = av.size if axis is None else np.prod([av.shape[i] for i in np.atleast_1d(axis)])
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def reshape(a, shape) -> Tensor:
    av = _val(a)
    out = Tensor._wrap(av.reshape(shape))

    def _bw():
        if out.grad is not None:
            _accum(a, out.grad.reshape(av.shape))

    _record(_bw)
    return out


def transpose(a, axes) -> Tensor:
    av = _val(a)
    out = Tensor._wrap(av.transpose(axes))
    inv = np.argsort(axes)

    def _bw():
        if out.grad is not None:
            _accum(a, out.grad.transpose(inv))

    _record(_bw)
    return out


def take_rows(a, indices) -> Tensor:
    """Gather rows along axis 0 (a slice gives a view); duplicate indices accumulate gradient."""
    av = _val(a)
    idx = indices if isinstance(indices, slice) else np.asarray(indices, dtype=np.intp)
    out = Tensor._wrap(av[idx])

    def _bw():
        g = out.grad
        if g is None or not isinstance(a, Tensor):
            return
        _accum(a, _scatter_rows(idx, g, av.shape), fresh=True)

    _record(_bw)
    return out


def _scatter_rows(idx, g: np.ndarray, shape) -> np.ndarray:
    """``np.add.at(np.zeros(shape), idx, g)`` bitwise, in a new C-order buffer:
    each target row sums its rows of ``g`` in index order, as one ``bincount``
    per column of a table or one add per occurrence rank, over distinct rows."""
    buf = np.zeros(shape)
    if isinstance(idx, slice):
        buf[idx] += g
        return buf
    idx, g = idx.ravel() % shape[0], g.reshape((idx.size,) + shape[1:])
    if len(shape) == 2:
        for j in range(shape[1]):
            buf[:, j] = np.bincount(idx, weights=g[:, j], minlength=shape[0])
        return buf
    order = np.argsort(idx, kind="stable")
    s = idx[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    sizes = np.diff(np.r_[starts, s.size])
    for r in range(sizes.max(initial=0)):
        at = order[starts[sizes > r] + r]
        buf[idx[at]] += g[at]
    return buf


def _softmax_values(av: np.ndarray, axis: int) -> np.ndarray:
    """Shifted, normalised exponentials; shared by ``softmax`` and
    ``attention`` so their values agree bit for bit."""
    e = np.exp(av - np.maximum.reduce(av, axis=axis, keepdims=True))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def _softmax_bw(s: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    return s * (g - np.add.reduce(g * s, axis=axis, keepdims=True))


def softmax(a, axis: int = -1) -> Tensor:
    s = _softmax_values(_val(a), axis)
    out = Tensor._wrap(s)

    def _bw():
        if out.grad is not None:
            _accum(a, _softmax_bw(s, out.grad, axis), fresh=True)

    _record(_bw)
    return out


def attention(x, h, wq, bq, wk, bk, wv, bv, wo, bo, additive_mask, n_heads: int, rows=None) -> Tensor:
    """Multi-head attention of the queries ``x`` over the keys and values of
    the (B, L, d) batch ``h``, with ``additive_mask`` added to the logits.

    Without ``rows``, x is (B, L, d) (usually ``h`` itself) and row b's
    queries attend over row b. Given ``rows``, x is (n, d) and query i
    attends over batch row ``rows[i]``. The result has x's shape. The values
    and every gradient are bitwise those of the composed ops: projections by
    ``linear``, heads split by reshape and transpose, K, V and the mask
    gathered at ``rows``, logits ``q k^T / sqrt(dh) + mask``, softmax, the
    context product, heads merged, the output ``linear``. The one closure
    replays their backward in the same order and memory layouts.
    """
    xv, hv = _val(x), _val(h)
    b, l, d = hv.shape
    dh = d // n_heads
    n, m = (b, l) if rows is None else (xv.shape[0], 1)
    wqv, wkv, wvv, wov = _val(wq), _val(wk), _val(wv), _val(wo)
    heads = lambda a, n, m: a.reshape(n, m, n_heads, dh).transpose(0, 2, 1, 3)
    q = heads(xv @ wqv + _val(bq), n, m)
    k = heads(hv @ wkv + _val(bk), b, l)
    v = heads(hv @ wvv + _val(bv), b, l)
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
        k, v, additive_mask = k[rows], v[rows], additive_mask[rows]
    scale = 1.0 / np.sqrt(dh)
    attn = _softmax_values((q @ k.transpose(0, 1, 3, 2)) * scale + additive_mask, -1)
    merged = (attn @ v).transpose(0, 2, 1, 3).reshape(xv.shape)
    out = Tensor._wrap(merged @ wov + _val(bo))

    def _bw():
        if out.grad is None:
            return
        gm = _affine_bw(out.grad, merged, wov, wo, bo)
        gctx = np.array(gm.reshape(n, m, n_heads, dh).transpose(0, 2, 1, 3), order="C")
        gv = attn.swapaxes(-1, -2) @ gctx
        gs = _softmax_bw(attn, gctx @ v.swapaxes(-1, -2), -1) * scale
        gq = gs @ k
        gk = np.array((q.swapaxes(-1, -2) @ gs).transpose(0, 1, 3, 2), order="C")
        if rows is not None:
            gv, gk = (_scatter_rows(rows, g, (b, n_heads, l, dh)) for g in (gv, gk))
        for g, src, sv, w, wval, bias in ((gv, h, hv, wv, wvv, bv), (gk, h, hv, wk, wkv, bk),
                                          (gq, x, xv, wq, wqv, bq)):
            g = np.array(g.transpose(0, 2, 1, 3), order="C").reshape(sv.shape)
            _accum(src, _affine_bw(g, sv, wval, w, bias), fresh=True)

    _record(_bw)
    return out


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    av = _val(a)
    m = av.max(axis=axis, keepdims=True)
    e = np.exp(av - m)
    tot = np.add.reduce(e, axis=axis, keepdims=True)
    res = np.log(tot) + m
    if not keepdims:
        res = np.squeeze(res, axis=axis)
    out = Tensor._wrap(res)
    soft = e / tot

    def _bw():
        g = out.grad
        if g is None:
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, soft * g, fresh=True)

    _record(_bw)
    return out


def gelu(a) -> Tensor:
    """Exact Gaussian error linear unit, x * Phi(x)."""
    av = _val(a)
    cdf = 0.5 * (1.0 + erf(av * _INV_SQRT2))
    out = Tensor._wrap(av * cdf)

    def _bw():
        g = out.grad
        if g is None:
            return
        pdf = np.exp(-0.5 * av * av) * _INV_SQRT2PI
        _accum(a, g * (cdf + av * pdf), fresh=True)

    _record(_bw)
    return out


def tanh_(a) -> Tensor:
    t = np.tanh(_val(a))
    out = Tensor._wrap(t)

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
    out = Tensor._wrap(s)

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
    out = Tensor._wrap(h)
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
    n = av.shape[-1]
    centered = av - np.add.reduce(av, axis=-1, keepdims=True) / n  # what mean and var compute
    inv = 1.0 / np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) / n + eps)
    xhat = centered * inv
    out = Tensor._wrap(xhat * gv + bv)

    def _bw():
        g = out.grad
        if g is None:
            return
        ghat = g * gv
        mean = np.add.reduce(ghat, axis=-1, keepdims=True) / n
        dx = inv * (ghat - mean - xhat * np.add.reduce(ghat * xhat, axis=-1, keepdims=True) / n)
        _accum(a, dx, fresh=True)
        red = tuple(range(av.ndim - 1))
        _accum(gain, np.add.reduce(g * xhat, axis=red) if red else g * xhat)
        _accum(bias, np.add.reduce(g, axis=red) if red else g)

    _record(_bw)
    return out


def dropout(
    a,
    rate: float,
    rng: np.random.Generator | None = None,
    rows=None,
    n_rows: int = 0,
) -> Tensor:
    """Inverted (training-mode) dropout: zero with probability ``rate``,
    scale survivors. Callers skip it outside training.

    Identity when rate == 0. Given ``rows``, ``a`` holds only those rows of
    an (n_rows, ...) tensor: the mask is drawn for all n_rows rows and the
    read ones are kept, so the rng advances exactly as it would for the full
    tensor.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a if isinstance(a, Tensor) else Tensor(_val(a))
    if rng is None:
        raise ValueError("dropout needs an rng")
    av = _val(a)
    if rows is None:
        draw = rng.random(av.shape)
    else:
        draw = rng.random((n_rows,) + av.shape[np.ndim(rows):])[rows]
    keep = (draw >= rate).astype(np.float64) / (1.0 - rate)
    out = Tensor._wrap(av * keep)

    def _bw():
        if out.grad is not None:
            _accum(a, out.grad * keep, fresh=True)

    _record(_bw)
    return out
