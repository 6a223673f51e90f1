"""Minimal reverse-mode autodiff over numpy arrays.

Tensors are dense, row-major, f32 or f64. Every operation records its
inputs and a backward closure; ``backward`` walks the graph in reverse
topological order with deterministic accumulation. Inside a ``no_grad()``
scope nothing is recorded. f32 is the runtime precision, f64 is used for
finite-difference verification.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
from scipy.special import erf as _erf


class _GradMode(threading.local):
    enabled = True


_GRAD_MODE = _GradMode()


@contextmanager
def no_grad():
    """Run ops in this thread without recording the tape.

    Outputs are created with ``requires_grad=False`` and keep neither
    their inputs nor a backward closure, so intermediate arrays are freed
    as soon as nothing else holds them. Other threads are unaffected.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


class AutogradError(Exception):
    pass


class ShapeError(AutogradError):
    pass


def _as_array(data, dtype=None):
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


def _check_finite(arr, op):
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values produced by {op}")


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_children", "_backward", "_op")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._children = ()
        self._backward = None
        self._op = "leaf"

    @classmethod
    def _from_op(cls, data, children, backward, op):
        t = cls.__new__(cls)
        t.data = data
        t.grad = None
        t.requires_grad = _GRAD_MODE.enabled and any(c.requires_grad for c in children)
        t._children = tuple(children) if t.requires_grad else ()
        t._backward = backward if t.requires_grad else None
        t._op = op
        _check_finite(data, op)
        return t

    # ---- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self):
        return self.data

    def item(self):
        return float(self.data)

    def detach(self):
        return Tensor(self.data)

    def astype(self, dtype):
        return Tensor(self.data.astype(dtype), requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, op={self._op})"

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.dtype))
        out_data = self.data + other.data

        def backward(g):
            return _unbroadcast(g, self.shape), _unbroadcast(g, other.shape)

        return Tensor._from_op(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self):
        return Tensor._from_op(-self.data, (self,), lambda g: (-g,), "neg")

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.dtype))
        out_data = self.data - other.data

        def backward(g):
            return _unbroadcast(g, self.shape), _unbroadcast(-g, other.shape)

        return Tensor._from_op(out_data, (self, other), backward, "sub")

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.dtype))
        out_data = self.data * other.data
        a, b = self, other

        def backward(g):
            return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

        return Tensor._from_op(out_data, (a, b), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.dtype))
        out_data = self.data / other.data
        a, b = self, other

        def backward(g):
            return (_unbroadcast(g / b.data, a.shape),
                    _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return Tensor._from_op(out_data, (a, b), backward, "div")

    def __rtruediv__(self, other):
        return Tensor(np.asarray(other, dtype=self.dtype)) / self

    def __pow__(self, p):
        if not np.isscalar(p):
            raise AutogradError("pow supports scalar exponents only")
        out_data = self.data ** p

        def backward(g):
            return (g * p * self.data ** (p - 1),)

        return Tensor._from_op(out_data, (self,), backward, "pow")

    def __matmul__(self, other):
        return matmul(self, other)

    # ---- shape ops -----------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(g):
            return (g.reshape(src_shape),)

        return Tensor._from_op(out_data, (self,), backward, "reshape")

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inv = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(g):
            return (g.transpose(inv),)

        return Tensor._from_op(out_data, (self,), backward, "transpose")

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, idx):
        out_data = self.data[idx]
        src = self

        def backward(g):
            full = np.zeros_like(src.data)
            np.add.at(full, idx, g)
            return (full,)

        out_arr = np.asarray(out_data)
        if out_arr.ndim and not out_arr.flags.c_contiguous:
            out_arr = np.ascontiguousarray(out_arr)
        return Tensor._from_op(out_arr, (self,), backward, "getitem")

    # ---- reductions ----------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        src_shape = self.shape

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, src_shape).astype(g.dtype),)
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, src_shape),)

        return Tensor._from_op(np.asarray(out_data), (self,), backward, "sum")

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.size
        else:
            n = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # ---- elementwise nonlinearities ------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            return (g * out_data,)

        return Tensor._from_op(out_data, (self,), backward, "exp")

    def log(self):
        out_data = np.log(self.data)

        def backward(g):
            return (g / self.data,)

        return Tensor._from_op(out_data, (self,), backward, "log")

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(g):
            return (g * 0.5 / out_data,)

        return Tensor._from_op(out_data, (self,), backward, "sqrt")

    def sigmoid(self):
        x = self.data
        out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

        def backward(g):
            return (g * out_data * (1.0 - out_data),)

        return Tensor._from_op(out_data.astype(x.dtype), (self,), backward, "sigmoid")

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g):
            return (g * (1.0 - out_data * out_data),)

        return Tensor._from_op(out_data, (self,), backward, "tanh")

    def relu(self):
        out_data = np.maximum(self.data, 0.0)

        def backward(g):
            return (g * (self.data > 0),)

        return Tensor._from_op(out_data, (self,), backward, "relu")

    def gelu(self):
        x = self.data
        cdf = 0.5 * (1.0 + _erf(x / np.sqrt(2.0)))
        out_data = (x * cdf).astype(x.dtype)

        def backward(g):
            pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
            return (g * (cdf + x * pdf),)

        return Tensor._from_op(out_data, (self,), backward, "gelu")

    def clip(self, lo, hi):
        out_data = np.clip(self.data, lo, hi)
        inside = (self.data > lo) & (self.data < hi)

        def backward(g):
            return (g * inside,)

        return Tensor._from_op(out_data, (self,), backward, "clip")


# ---- free functions ----------------------------------------------------


def matmul(a, b):
    """Matrix product with trailing-2-axes batching."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2)) if b.ndim > 1 else np.outer(g, b.data)
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return Tensor._from_op(out_data, (a, b), backward, "matmul")


def softmax(x, axis=-1, mask=None):
    """Numerically stable softmax along ``axis``.

    ``mask`` is a boolean array broadcastable to ``x``; False entries get
    exactly zero weight. Every slice must keep at least one True entry.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    data = x.data
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), data.shape)
        neg = np.array(-np.inf, dtype=data.dtype)
        data = np.where(mask, data, neg)
    m = np.max(data, axis=axis, keepdims=True)
    e = np.exp(data - m)
    if mask is not None:
        e = np.where(mask, e, 0.0)
    denom = e.sum(axis=axis, keepdims=True)
    if np.any(denom == 0):
        raise AutogradError("softmax slice fully masked")
    out_data = (e / denom).astype(x.dtype)

    def backward(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - dot),)

    return Tensor._from_op(out_data, (x,), backward, "softmax")


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = (var + eps) ** -0.5
    return xc * inv * gamma + beta


def concat(tensors, axis=0):
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._from_op(out_data, tuple(tensors), backward, "concat")


def stack(tensors, axis=0):
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.moveaxis(g, axis, 0))

    return Tensor._from_op(out_data, tuple(tensors), backward, "stack")


def bce_with_logits(logits, targets):
    """Elementwise binary cross-entropy on raw logits (stable form)."""
    logits = logits if isinstance(logits, Tensor) else Tensor(logits)
    t = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=logits.dtype)
    x = logits.data
    out_data = np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))

    def backward(g):
        s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                     np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        return (g * (s - t),)

    return Tensor._from_op(out_data.astype(x.dtype), (logits,), backward, "bce_with_logits")


def absolute(x):
    x = x if isinstance(x, Tensor) else Tensor(x)
    out_data = np.abs(x.data)

    def backward(g):
        return (g * np.sign(x.data),)

    return Tensor._from_op(out_data, (x,), backward, "abs")


def maximum(a, b):
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    out_data = np.maximum(a.data, b.data)
    pick_a = a.data >= b.data

    def backward(g):
        return (_unbroadcast(g * pick_a, a.shape), _unbroadcast(g * ~pick_a, b.shape))

    return Tensor._from_op(out_data, (a, b), backward, "maximum")


def minimum(a, b):
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    out_data = np.minimum(a.data, b.data)
    pick_a = a.data <= b.data

    def backward(g):
        return (_unbroadcast(g * pick_a, a.shape), _unbroadcast(g * ~pick_a, b.shape))

    return Tensor._from_op(out_data, (a, b), backward, "minimum")


def _bilinear_corners(x, y, h, w):
    """The four zero-padded bilinear corners of pixel points ``(x, y)``.

    ``h`` and ``w`` are grid sizes broadcastable against ``x``. Corners
    run (y0, x0), (y0, x1), (y1, x0), (y1, x1) along a new leading axis,
    with ``x0 = floor(x)``, ``x1 = x0 + 1`` (likewise in y). Returns

    - ``cells`` [4, ...]: the row-major index ``y * w + x`` of each
      corner, clipped into the grid;
    - ``weights`` [4, ...]: each corner's bilinear weight, zero off the grid;
    - ``valid`` [4, ...]: whether the corner lies on the grid;
    - ``tx``, ``ty``: the fractional parts ``x - x0`` and ``y - y0``.
    """
    x0 = np.floor(x)
    y0 = np.floor(y)
    tx = x - x0
    ty = y - y0
    xs = np.stack([x0, x0 + 1])
    ys = np.stack([y0, y0 + 1])
    fh = np.asarray(h, dtype=xs.dtype)    # compare and clip in the points' dtype
    fw = np.asarray(w, dtype=xs.dtype)
    vx = (xs >= 0) & (xs < fw)
    vy = (ys >= 0) & (ys < fh)
    cols = np.minimum(np.maximum(xs, 0), fw - 1).astype(np.int64)
    rows = np.minimum(np.maximum(ys, 0), fh - 1).astype(np.int64)
    cells = ((rows * w)[:, None] + cols).reshape((4,) + tx.shape)
    valid = (vy[:, None] & vx).reshape(cells.shape)
    ux, uy = 1 - tx, 1 - ty
    weights = np.stack([uy * ux, uy * tx, ty * ux, ty * tx]) * valid
    return cells, weights, valid, tx, ty


def _bilinear_slopes(v00, v01, v10, v11, tx, ty):
    """d/dx and d/dy of the bilinear interpolation of corner values
    (zero off the grid) at fractional offsets ``(tx, ty)``."""
    return ((1 - ty) * (v01 - v00) + ty * (v11 - v10),
            (1 - tx) * (v10 - v00) + tx * (v11 - v01))


def _scatter_add(index, values, size):
    """Sum ``values`` into a zero array of ``size`` elements at the flat
    ``index`` (same shape), in index order; repeated indices accumulate."""
    out = np.zeros(size, dtype=values.dtype)
    np.add.at(out, index.ravel(), values.ravel())
    return out


def bilinear_sample(feat, points):
    """Sample ``feat`` at continuous (x, y) pixel coordinates.

    feat: [H, W, C] or batched [B, H, W, C]
    points: [P, 2] (or [B, P, 2]) in pixel coordinates; out-of-range points
    read zero-valued phantom cells. Differentiable in both arguments.
    """
    feat = feat if isinstance(feat, Tensor) else Tensor(feat)
    pts_is_tensor = isinstance(points, Tensor)
    pts = points.data if pts_is_tensor else np.asarray(points, dtype=feat.dtype)

    batched = feat.ndim == 4
    fdata = feat.data if batched else feat.data[None]
    p = pts if batched else pts[None]
    B, H, W, C = fdata.shape

    cells, w, valid, tx, ty = _bilinear_corners(p[..., 0], p[..., 1], H, W)  # [4, B, P]
    rows = cells + (np.arange(B) * (H * W))[:, None]
    w = w.astype(fdata.dtype)[..., None]
    vals = np.take(fdata.reshape(B * H * W, C), rows, axis=0)                # [4, B, P, C]
    out_data = vals[0] * w[0]
    for c in range(1, 4):
        out_data += vals[c] * w[c]
    if not batched:
        out_data = out_data[0]

    children = (feat, points) if pts_is_tensor else (feat,)

    def backward(g):
        gb = g if batched else g[None]
        gfeat = _scatter_add(rows[..., None] * C + np.arange(C), gb * w, fdata.size)
        grads = [gfeat.reshape(feat.shape)]
        if pts_is_tensor:
            dx, dy = _bilinear_slopes(*(vals * valid[..., None]), tx[..., None], ty[..., None])
            gpts = np.stack([(gb * dx).sum(axis=-1), (gb * dy).sum(axis=-1)], axis=-1)
            grads.append(gpts if batched else gpts[0])
        return tuple(grads)

    return Tensor._from_op(out_data, children, backward, "bilinear_sample")


def ms_deform_attn(values, scale_shapes, scale_offsets, refs, offsets, weights,
                   heads, points):
    """Multi-scale deformable attention (Zhu et al., 2021) as one op.

    values:  [M, d] value rows of the flattened multi-scale map; scale l,
             of shape ``scale_shapes[l] = (h_l, w_l)``, is the row-major
             block starting at row ``scale_offsets[l]``.
    refs:    [N_q, 4] reference boxes, normalized (cx, cy, w, h). A
             constant: no gradient flows into it.
    offsets: [N_q, heads, L, points, 2], or any shape of that size:
             sampling offsets in units of half the reference box.
    weights: [N_q, heads, L * points], or any shape of that size.

    Head ``a`` of query ``q`` reads channels ``a*d/heads : (a+1)*d/heads``
    of scale l at pixel ``((cx + ox * w / 2) * w_l - 1/2,
    (cy + oy * h / 2) * h_l - 1/2)``, bilinearly with zero padding, and
    mixes its L * points samples by ``weights``. Returns [N_q, d],
    differentiable in ``values``, ``offsets`` and ``weights``.

    Every output and gradient element is computed with the same float
    operations, in the same order, as sampling each scale with
    ``bilinear_sample`` and mixing the samples with elementwise ops.
    """
    values = values if isinstance(values, Tensor) else Tensor(values)
    offsets = offsets if isinstance(offsets, Tensor) else Tensor(offsets)
    weights = weights if isinstance(weights, Tensor) else Tensor(weights)
    if isinstance(refs, Tensor):
        if refs.requires_grad:
            raise AutogradError("ms_deform_attn takes constant refs; detach them")
        refs = refs.data
    v = values.data
    m, d = v.shape
    nq = len(refs)
    levels = len(scale_shapes)
    if d % heads:
        raise ShapeError(f"width {d} not divisible by {heads} heads")
    if offsets.size != nq * heads * levels * points * 2 or \
            weights.size != nq * heads * levels * points:
        raise ShapeError(f"offsets {offsets.shape} / weights {weights.shape} do not "
                         f"match {nq} queries, {heads} heads, {levels} scales, "
                         f"{points} points")
    dh = d // heads

    # Sampling points are laid out [L, heads, N_q, points] and corners
    # [4, L, heads, N_q, points], the order in which the per-scale form
    # visits them, so the value gradient accumulates per cell in the same
    # order; gathered values add a trailing [dh] axis.
    r = np.asarray(refs, dtype=v.dtype)
    cx, cy, bw, bh = (r[:, i, None] for i in range(4))              # [N_q, 1]
    # contiguous copies, so that every array derived from them is C-ordered
    off = np.ascontiguousarray(
        offsets.data.reshape(nq, heads, levels, points, 2).transpose(4, 2, 1, 0, 3))
    aw = np.ascontiguousarray(weights.data.reshape(nq, heads, levels, points).transpose(2, 1, 0, 3))
    sh, sw = np.asarray(scale_shapes, dtype=np.int64).T[:, :, None, None, None]
    fh, fw = sh.astype(v.dtype), sw.astype(v.dtype)
    px = (cx + off[0] * bw * 0.5) * fw - 0.5
    py = (cy + off[1] * bh * 0.5) * fh - 0.5
    rows, bilinear, valid, tx, ty = _bilinear_corners(px, py, sh, sw)

    # Row m * heads + a of the [M * heads, dh] view of ``values`` is head
    # a's slice of position m, so one flat index addresses both.
    start = np.asarray(scale_offsets, dtype=np.int64)[:, None, None, None]
    rows *= heads
    rows += start * heads + np.arange(heads)[:, None, None]
    vals = np.take(v.reshape(m * heads, dh), rows, axis=0)           # [4, L, h, N_q, P, dh]
    bilinear = bilinear[..., None]
    sampled = vals[0] * bilinear[0]
    for c in range(1, 4):
        sampled += vals[c] * bilinear[c]
    mixed = sampled * aw[..., None]                                   # [L, h, N_q, P, dh]
    terms = [mixed[level, :, :, point] for level in range(levels) for point in range(points)]
    acc = terms[0].copy()
    for term in terms[1:]:
        acc += term
    out_data = acc.transpose(1, 0, 2).reshape(nq, d)

    def backward(g):
        gh = g.reshape(nq, heads, dh).transpose(1, 0, 2)[None, :, :, None]
        gs = gh * aw[..., None]                                       # d out / d sampled
        flat = rows[..., None] * dh + np.arange(dh)
        gvalues = _scatter_add(flat, gs * bilinear, v.size).reshape(m, d)
        gweights = (gh * sampled).sum(axis=-1)
        dx, dy = _bilinear_slopes(*(vals * valid[..., None]), tx[..., None], ty[..., None])
        gox = (((gs * dx).sum(axis=-1) * fw) * 0.5) * bw
        goy = (((gs * dy).sum(axis=-1) * fh) * 0.5) * bh
        return (gvalues,
                np.stack([gox, goy]).transpose(3, 2, 1, 4, 0).reshape(offsets.shape),
                gweights.transpose(2, 1, 0, 3).reshape(weights.shape))

    return Tensor._from_op(out_data, (values, offsets, weights), backward, "ms_deform_attn")


def top_k(scores, k):
    """Indices of the k largest scores, descending, ties to the lower index."""
    arr = scores.data if isinstance(scores, Tensor) else np.asarray(scores)
    if arr.ndim != 1:
        raise ShapeError("top_k expects a 1-D score vector")
    if k > arr.shape[0]:
        raise ValueError(f"k={k} exceeds {arr.shape[0]} scores")
    order = np.argsort(-arr, kind="stable")
    return [int(i) for i in order[:k]]


# ---- backward pass -----------------------------------------------------


def _toposort(root):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for child in node._children:
            if id(child) not in visited:
                stack.append((child, False))
    return order


def backward(loss):
    """Reverse-mode pass from a scalar loss.

    Sets ``.grad`` on every requires_grad tensor reachable from the loss
    and returns a mapping from those tensors to their gradients.
    """
    if loss.size != 1:
        raise AutogradError("backward expects a scalar loss")
    order = _toposort(loss)
    grads = {id(loss): np.ones_like(loss.data)}
    result = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
            if node._backward is None:
                result[node] = node.grad
        if node._backward is not None:
            child_grads = node._backward(g)
            for child, cg in zip(node._children, child_grads):
                if not child.requires_grad:
                    continue
                key = id(child)
                if key in grads:
                    grads[key] = grads[key] + cg
                else:
                    grads[key] = cg
    return result


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


def grad_check(f, inputs, h=1e-6, max_coords=None, rng=None):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps the input tensors to a scalar Tensor. Inputs must be f64.
    ``max_coords`` caps the number of coordinates probed per input
    (uniformly sampled) so large inputs stay tractable.
    """
    for t in inputs:
        if t.dtype != np.float64:
            raise AutogradError("grad_check requires f64 inputs")
        t.requires_grad = True
    zero_grads(inputs)
    loss = f(*inputs)
    backward(loss)
    rng = rng or np.random.default_rng(0)

    worst = 0.0
    for t in inputs:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        n = flat.shape[0]
        coords = range(n)
        if max_coords is not None and n > max_coords:
            coords = rng.choice(n, size=max_coords, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f(*inputs).data)
            flat[i] = orig - h
            fm = float(f(*inputs).data)
            flat[i] = orig
            numeric = (fp - fm) / (2 * h)
            err = abs(analytic.reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst


# ---- attention masks ---------------------------------------------------


class AttentionMask:
    """Boolean [rows, cols] mask; True means the entry may be attended."""

    def __init__(self, allow):
        allow = np.asarray(allow, dtype=bool)
        if allow.ndim != 2:
            raise ShapeError("attention mask must be 2-D")
        if not allow.any(axis=1).all():
            raise ValueError("attention mask has a fully blocked row")
        self.allow = allow

    @property
    def shape(self):
        return self.allow.shape

    @classmethod
    def full(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls(np.ones((rows, cols), dtype=bool))
