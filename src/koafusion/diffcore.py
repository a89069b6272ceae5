"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every operation eagerly validates its output for NaN/Inf and registers a
backward closure; ``Tensor.backward`` replays the closures in reverse
topological order.  The op set is exactly what the fusion networks need:
dense/conv linear algebra, pointwise nonlinearities, normalization,
attention plumbing (reshape/transpose/batched matmul/softmax), dropout,
embedding lookup, and reductions.  ``grad_check`` verifies any scalar-valued
computation against central finite differences.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, NonFiniteValue


def _check_finite(arr, op):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"non-finite values produced by {op}")


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1
    )
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    """A node in the computation graph; holds float64 data and its gradient."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_done")

    def __init__(self, data, requires_grad=False, _parents=(), _op="tensor"):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, _op)
        self.grad = None
        self._parents = _parents
        self._backward = None
        self._op = _op
        self._done = False
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in _parents
        )

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.data.size != 1:
            raise ContractViolation("backward requires a scalar root")
        if not self.requires_grad:
            raise ContractViolation("root does not require gradients")
        if self._done:
            raise ContractViolation("backward was already run from this root")
        self._done = True
        self.grad = np.ones_like(self.data)
        for node in reversed(tape(self)):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(_as_tensor(other), -self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def tape(root: Tensor) -> list:
    """Topologically ordered list of the gradient-requiring ancestors of root."""
    order, state, stack = [], {}, [root]
    while stack:
        node = stack[-1]
        st = state.get(id(node), 0)
        if st == 0:
            state[id(node)] = 1
            for p in node._parents:
                if p.requires_grad and state.get(id(p), 0) == 0:
                    stack.append(p)
        elif st == 1:
            state[id(node)] = 2
            order.append(node)
            stack.pop()
        else:
            stack.pop()
    return order


def _accum(t: Tensor, g):
    if not t.requires_grad:
        return
    g = _unbroadcast(np.asarray(g, dtype=np.float64), t.data.shape)
    _check_finite(g, "gradient")
    t.grad = g if t.grad is None else t.grad + g


def _node(data, parents, op):
    return Tensor(data, _parents=tuple(p for p in parents if p.requires_grad), _op=op)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _node(a.data + b.data, (a, b), "add")

    def _bw(g):
        _accum(a, g)
        _accum(b, g)

    out._backward = _bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _node(a.data * b.data, (a, b), "mul")

    def _bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    out._backward = _bw
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    out = _node(a.data / b.data, (a, b), "div")

    def _bw(g):
        _accum(a, g / b.data)
        _accum(b, -g * a.data / (b.data * b.data))

    out._backward = _bw
    return out


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise a**c for a constant exponent; d/da(a**0) is zero."""
    c = float(exponent)
    out = _node(np.power(a.data, c), (a,), "power")

    def _bw(g):
        if c == 0.0:
            _accum(a, np.zeros_like(a.data))
        else:
            _accum(a, g * c * np.power(a.data, c - 1.0))

    out._backward = _bw
    return out


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    out = _node(e, (a,), "exp")

    def _bw(g):  # captures e, not out: out -> _bw -> out would be a reference cycle
        _accum(a, g * e)

    out._backward = _bw
    return out


def log(a: Tensor) -> Tensor:
    out = _node(np.log(a.data), (a,), "log")

    def _bw(g):
        _accum(a, g / a.data)

    out._backward = _bw
    return out


def relu(a: Tensor) -> Tensor:
    out = _node(np.maximum(a.data, 0.0), (a,), "relu")

    def _bw(g):
        _accum(a, g * (a.data > 0.0))

    out._backward = _bw
    return out


def tensor_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), "sum")

    def _bw(g):
        gg = g
        if not keepdims and axis is not None:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(ax % a.data.ndim for ax in axes)
            shape = [1 if i in axes else s for i, s in enumerate(a.data.shape)]
            gg = g.reshape(shape)
        _accum(a, np.broadcast_to(gg, a.data.shape))

    out._backward = _bw
    return out


def mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.data.shape[ax]
    return tensor_sum(a, axis=axis, keepdims=keepdims) * Tensor(1.0 / count)


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    out = _node(a.data.reshape(shape), (a,), "reshape")

    def _bw(g):
        _accum(a, g.reshape(a.data.shape))

    out._backward = _bw
    return out


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = _node(a.data.transpose(axes), (a,), "transpose")

    def _bw(g):
        _accum(a, g.transpose(inverse))

    out._backward = _bw
    return out


def concat(tensors, axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), "concat")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batching semantics on leading axes."""
    out = _node(a.data @ b.data, (a, b), "matmul")

    def _bw(g):
        bd, ad = b.data, a.data
        if bd.ndim == 1:
            ga = np.multiply.outer(g, bd) if g.ndim else g * bd
            _accum(a, ga.reshape(ad.shape) if ga.shape != ad.shape else ga)
            _accum(b, np.tensordot(g, ad, axes=(range(g.ndim), range(g.ndim))) if g.ndim else g * ad)
            return
        if ad.ndim == 1:
            _accum(a, g @ np.swapaxes(bd, -1, -2))
            _accum(b, np.multiply.outer(ad, g) if g.ndim == 1 else np.einsum("k,...m->...km", ad, g))
            return
        _accum(a, g @ np.swapaxes(bd, -1, -2))
        _accum(b, np.swapaxes(ad, -1, -2) @ g)

    out._backward = _bw
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride=1, padding=0) -> Tensor:
    """2D cross-correlation over [B, C, H, W] with [O, C, kh, kw] filters."""
    sh, sw = (stride, stride) if isinstance(stride, int) else stride
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    b_n, c, h, w = x.data.shape
    o, c2, kh, kw = weight.data.shape
    if c != c2:
        raise ContractViolation("conv2d channel mismatch")
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    if ho < 1 or wo < 1:
        raise ContractViolation("conv2d kernel larger than padded input")
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    # im2col: [B, C, ho, wo, kh, kw] strided windows, copied once to [B, C*kh*kw, ho*wo]
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    cols2 = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(b_n, c * kh * kw, ho * wo)
    w2 = weight.data.reshape(o, c * kh * kw)
    out_data = (w2 @ cols2).reshape(b_n, o, ho, wo)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, o, 1, 1)
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _node(out_data, parents, "conv2d")

    def _bw(g):
        g2 = g.reshape(b_n, o, ho * wo)
        _accum(weight, np.tensordot(g2, cols2, axes=([0, 2], [0, 2])).reshape(weight.data.shape))
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 2, 3)))
        dcols = (w2.T @ g2).reshape(b_n, c, kh, kw, ho, wo)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw] += dcols[:, :, i, j]
        _accum(x, dxp[:, :, ph : ph + h, pw : pw + w])

    out._backward = _bw
    return out


def global_average_pool(x: Tensor) -> Tensor:
    """[B, C, H, W] -> [B, C] spatial mean."""
    if x.data.ndim != 4:
        raise ContractViolation("global_average_pool expects [B, C, H, W]")
    n = x.data.shape[2] * x.data.shape[3]
    out = _node(x.data.mean(axis=(2, 3)), (x,), "gap")

    def _bw(g):
        _accum(x, np.broadcast_to(g[:, :, None, None] / n, x.data.shape))

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# normalization, attention pieces, regularization
# ---------------------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; the running max is treated as constant."""
    shift = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shift)
    s = e / e.sum(axis=axis, keepdims=True)
    out = _node(s, (x,), "softmax")

    def _bw(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        _accum(x, s * (g - dot))

    out._backward = _bw
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shift = x.data - x.data.max(axis=axis, keepdims=True)
    ls = shift - np.log(np.exp(shift).sum(axis=axis, keepdims=True))
    out = _node(ls, (x,), "log_softmax")

    def _bw(g):
        _accum(x, g - np.exp(ls) * g.sum(axis=axis, keepdims=True))

    out._backward = _bw
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ContractViolation("layer_norm gain/bias must match the last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = _node(gain.data * xhat + bias.data, (x, gain, bias), "layer_norm")

    def _bw(g):
        lead = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=lead))
        _accum(bias, g.sum(axis=lead))
        dxhat = g * gain.data
        term = (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        _accum(x, inv * term)

    out._backward = _bw
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or rate is 0."""
    if not (0.0 <= rate < 1.0):
        raise ContractViolation("dropout rate must lie in [0, 1)")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ContractViolation("training-mode dropout requires an rng")
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = _node(x.data * mask, (x,), "dropout")

    def _bw(g):
        _accum(x, g * mask)

    out._backward = _bw
    return out


def embedding(table: Tensor, indices) -> Tensor:
    """Row gather: out[..., :] = table[indices[...], :]."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractViolation("embedding indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ContractViolation("embedding index out of range")
    out = _node(table.data[idx], (table,), "embedding")

    def _bw(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, idx, g)
        _accum(table, dt)

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def grad_check(fn, inputs, eps: float = 1e-4, max_coords: int | None = None, seed: int = 0) -> float:
    """Compare analytic gradients of ``fn(*inputs)`` to central differences.

    ``fn`` must be deterministic and return a scalar Tensor.  Returns the
    maximum relative error |analytic - numeric| / max(1, |analytic|, |numeric|)
    over the checked coordinates.  ``max_coords`` subsamples coordinates per
    input (seeded) to bound runtime on large parameter sets.
    """
    inputs = list(inputs)
    for t in inputs:
        if not t.requires_grad:
            raise ContractViolation("grad_check inputs must require gradients")
        t.grad = None
    out = fn(*inputs)
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t, a in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        if not np.shares_memory(flat, t.data):
            raise ContractViolation("grad_check requires contiguous input data")
        n = flat.size
        coords = np.arange(n)
        if max_coords is not None and n > max_coords:
            coords = rng.choice(n, size=max_coords, replace=False)
        a_flat = a.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            hi = fn(*inputs).item()
            flat[c] = orig - eps
            lo = fn(*inputs).item()
            flat[c] = orig
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(a_flat[c] - numeric) / max(1.0, abs(a_flat[c]), abs(numeric))
            worst = max(worst, err)
    return worst
