"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every operation eagerly validates its output for NaN/Inf and states one
vector-Jacobian product (VJP) per operand.  A node keeps the ``(operand, vjp)``
pairs of its operands that require a gradient, so ``Tensor.backward`` runs only
the VJPs the graph needs (a convolution over the raw image never forms the
image's gradient), and it consumes the graph: interior nodes drop their pairs
and gradients, a second backward through them is refused, and only the leaves
keep gradients.  ``div``, ``log`` and vector ``matmul`` serve the public API;
the other ops are what the fusion networks use.  ``grad_check`` verifies any
scalar-valued computation against central finite differences.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, NonFiniteValue


def _check_finite(arr, op):
    if not np.isfinite(arr).all():
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

    __slots__ = ("data", "grad", "requires_grad", "_vjps", "_op")

    def __init__(self, data, requires_grad=False, _vjps=(), _op="tensor"):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, _op)
        self.grad = None
        self._vjps = _vjps  # (operand, vjp) pairs; None once backward consumed them
        self._op = _op
        self.requires_grad = bool(requires_grad) or bool(_vjps)

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

    def backward(self):
        """Accumulate this scalar's gradient into every reachable leaf; consumes the graph."""
        if self.data.size != 1:
            raise ContractViolation("backward requires a scalar root")
        if not self.requires_grad:
            raise ContractViolation("root does not require gradients")
        order = tape(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._vjps:
                for t, vjp in node._vjps:
                    _accum(t, vjp(node.grad))
                node._vjps, node.grad = None, None

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
    """Topologically ordered gradient-requiring ancestors of root; refuses a consumed node."""
    order, state, stack = [], {}, [root]
    while stack:
        node = stack[-1]
        st = state.get(id(node), 0)
        if st == 0:
            if node._vjps is None:
                raise ContractViolation("backward already ran through this graph")
            state[id(node)] = 1
            for p, _ in node._vjps:
                if state.get(id(p), 0) == 0:
                    stack.append(p)
        elif st == 1:
            state[id(node)] = 2
            order.append(node)
            stack.pop()
        else:
            stack.pop()
    return order


def _accum(t: Tensor, g):
    g = _unbroadcast(np.asarray(g, dtype=np.float64), t.data.shape)
    _check_finite(g, "gradient")
    t.grad = g if t.grad is None else t.grad + g


def _node(data, op, *operands):
    """The output of *op*; each operand is a ``(tensor, vjp)`` pair, where ``vjp``
    maps the output's gradient to that tensor's.  The output keeps, in operand
    order, the pairs of the operands that require a gradient; with none it is
    a constant.  Every vjp is built before the output exists, so none can hold it."""
    return Tensor(data, _vjps=tuple([(t, vjp) for t, vjp in operands if t.requires_grad]), _op=op)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    return _node(a.data + b.data, "add", (a, lambda g: g), (b, lambda g: g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _node(a.data * b.data, "mul", (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    return _node(a.data / b.data, "div", (a, lambda g: g / b.data),
                 (b, lambda g: -g * a.data / (b.data * b.data)))


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise a**c for a constant exponent; d/da(a**0) is zero."""
    c = float(exponent)
    return _node(np.power(a.data, c), "power",
                 (a, lambda g: np.zeros_like(a.data) if c == 0.0 else g * c * np.power(a.data, c - 1.0)))


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    return _node(e, "exp", (a, lambda g: g * e))


def log(a: Tensor) -> Tensor:
    return _node(np.log(a.data), "log", (a, lambda g: g / a.data))


def relu(a: Tensor) -> Tensor:
    return _node(np.maximum(a.data, 0.0), "relu", (a, lambda g: g * (a.data > 0.0)))


def tensor_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    axes = range(a.data.ndim) if axis is None else axis if isinstance(axis, tuple) else (axis,)
    axes = {ax % a.data.ndim for ax in axes}
    keep_shape = tuple(1 if i in axes else s for i, s in enumerate(a.data.shape))
    return _node(data, "sum", (a, lambda g: np.broadcast_to(g.reshape(keep_shape), a.data.shape)))


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
    return _node(a.data.reshape(shape), "reshape", (a, lambda g: g.reshape(a.data.shape)))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _node(a.data.transpose(axes), "transpose", (a, lambda g: g.transpose(inverse)))


def concat(tensors, axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % data.ndim)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    return _node(data, "concat", *(
        (t, lambda g, part=slice(lo, hi): g[lead + (part,)])
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:])
    ))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batching semantics on leading axes."""
    ad, bd = a.data, b.data
    if bd.ndim == 1:
        ga, gb = (lambda g: (np.multiply.outer(g, bd) if g.ndim else g * bd).reshape(ad.shape),
                  lambda g: np.tensordot(g, ad, axes=(range(g.ndim), range(g.ndim))) if g.ndim else g * ad)
    elif ad.ndim == 1:
        ga, gb = (lambda g: g @ np.swapaxes(bd, -1, -2),
                  lambda g: np.multiply.outer(ad, g) if g.ndim == 1 else np.einsum("k,...m->...km", ad, g))
    else:
        ga, gb = lambda g: g @ np.swapaxes(bd, -1, -2), lambda g: np.swapaxes(ad, -1, -2) @ g
    return _node(ad @ bd, "matmul", (a, ga), (b, gb))


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride=1, padding=0) -> Tensor:
    """2D cross-correlation over [B, C, H, W] with [O, C, kh, kw] filters."""
    sh, sw = (stride, stride) if isinstance(stride, int) else stride
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    if sh < 1 or sw < 1 or ph < 0 or pw < 0:
        raise ContractViolation(f"conv2d needs stride >= 1 and padding >= 0, got {stride}, {padding}")
    b_n, c, h, w = x.data.shape
    o, c2, kh, kw = weight.data.shape
    if c != c2:
        raise ContractViolation("conv2d channel mismatch")
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    if ho < 1 or wo < 1:
        raise ContractViolation("conv2d kernel larger than padded input")
    xp = x.data
    if ph or pw:  # zero-padded copy; the 1x1 skip convolutions read x itself
        xp = np.zeros((b_n, c, h + 2 * ph, w + 2 * pw))
        xp[:, :, ph : ph + h, pw : pw + w] = x.data
    # im2col: [B, C, ho, wo, kh, kw] strided windows, copied once to [B, C*kh*kw, ho*wo]
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    cols2 = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(b_n, c * kh * kw, ho * wo)
    w2 = weight.data.reshape(o, c * kh * kw)
    out_data = (w2 @ cols2).reshape(b_n, o, ho, wo)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, o, 1, 1)

    xp_shape = xp.shape  # the backward holds the padded input's shape, not the input

    def dx(g):
        # col2im.  Each padded-input element gets its kh*kw tap adds in the same order
        # whatever the layout, so the bits never change.  A batch longer than an output
        # plane (slice stacks of small maps) goes innermost, so the adds run along it,
        # not along short rows; wider maps keep rows innermost, where the batch's long
        # stride through dcols costs more.  Both operands put that axis last: with
        # only the buffer transposed, numpy would keep C order.  On the batch side
        # the result is therefore not C-ordered, and a reduction over it (a bias
        # sum, _unbroadcast) could give other bits than over the row side's.  Every
        # conv input in models.encode is a relu output, whose mask product comes
        # back in C order; the oracle's conv-relu-conv chain test holds that.
        dcols = (w2.T @ g.reshape(b_n, o, ho * wo)).reshape(b_n, c, kh, kw, ho, wo)
        hp, wp = xp_shape[2:]
        if b_n > ho * wo:  # [C, Hp, Wp, B]
            dxp = np.zeros((c, hp, wp, b_n))
            taps, dx_bchw = dcols.transpose(1, 2, 3, 4, 5, 0), dxp.transpose(3, 0, 1, 2)
        else:  # [B*C, Hp, Wp]
            dxp = np.zeros((b_n * c, hp, wp))
            taps, dx_bchw = dcols.reshape(b_n * c, kh, kw, ho, wo), dxp.reshape(xp_shape)
        for i in range(kh):
            for j in range(kw):
                dxp[:, i : i + sh * ho : sh, j : j + sw * wo : sw] += taps[:, i, j]
        return dx_bchw[:, :, ph : ph + h, pw : pw + w]

    def dw(g):
        return np.tensordot(g.reshape(b_n, o, ho * wo), cols2, axes=([0, 2], [0, 2])).reshape(weight.data.shape)

    biases = () if bias is None else ((bias, lambda g: g.sum(axis=(0, 2, 3))),)
    return _node(out_data, "conv2d", (x, dx), (weight, dw), *biases)


def global_average_pool(x: Tensor) -> Tensor:
    """[B, C, H, W] -> [B, C] spatial mean."""
    if x.data.ndim != 4:
        raise ContractViolation("global_average_pool expects [B, C, H, W]")
    n = x.data.shape[2] * x.data.shape[3]
    return _node(x.data.mean(axis=(2, 3)), "gap",
                 (x, lambda g: np.broadcast_to(g[:, :, None, None] / n, x.data.shape)))


# ---------------------------------------------------------------------------
# normalization, attention pieces, regularization
# ---------------------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; the running max is treated as constant."""
    shift = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shift)
    s = e / e.sum(axis=axis, keepdims=True)
    return _node(s, "softmax", (x, lambda g: s * (g - (g * s).sum(axis=axis, keepdims=True))))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shift = x.data - x.data.max(axis=axis, keepdims=True)
    ls = shift - np.log(np.exp(shift).sum(axis=axis, keepdims=True))
    return _node(ls, "log_softmax", (x, lambda g: g - np.exp(ls) * g.sum(axis=axis, keepdims=True)))


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
    lead = tuple(range(x.data.ndim - 1))

    def dx(g):
        dxhat = g * gain.data
        return inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                      - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))

    return _node(gain.data * xhat + bias.data, "layer_norm", (x, dx),
                 (gain, lambda g: (g * xhat).sum(axis=lead)), (bias, lambda g: g.sum(axis=lead)))


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or rate is 0."""
    if not (0.0 <= rate < 1.0):
        raise ContractViolation("dropout rate must lie in [0, 1)")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ContractViolation("training-mode dropout requires an rng")
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return _node(x.data * mask, "dropout", (x, lambda g: g * mask))


def embedding(table: Tensor, indices) -> Tensor:
    """Row gather: out[..., :] = table[indices[...], :]."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractViolation("embedding indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ContractViolation("embedding index out of range")

    def dtable(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, idx, g)
        return dt

    return _node(table.data[idx], "embedding", (table, dtable))


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
