"""Parameterized building blocks composed from the autograd core."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, layer_norm, matmul, softmax


def make_rng(seed):
    """Counter-based deterministic generator (Philox)."""
    return np.random.Generator(np.random.Philox(seed))


def uniform_init(rng, shape, fan_in, dtype=np.float32):
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)


def zeros_param(shape, dtype=np.float32):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def ones_param(shape, dtype=np.float32):
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)


class Linear:
    def __init__(self, rng, d_in, d_out, dtype=np.float32):
        self.w = uniform_init(rng, (d_in, d_out), d_in, dtype)
        self.b = zeros_param((d_out,), dtype)

    def __call__(self, x):
        return matmul(x, self.w) + self.b

    def parameters(self, prefix):
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class LayerNorm:
    def __init__(self, d, dtype=np.float32, eps=1e-5):
        self.gamma = ones_param((d,), dtype)
        self.beta = zeros_param((d,), dtype)
        self.eps = eps

    def __call__(self, x):
        return layer_norm(x, self.gamma, self.beta, self.eps)

    def parameters(self, prefix):
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}


class MLP:
    """Stack of linear layers with ReLU between them (none after the last)."""

    def __init__(self, rng, dims, dtype=np.float32, zero_last=False):
        self.layers = [Linear(rng, a, b, dtype) for a, b in zip(dims[:-1], dims[1:])]
        if zero_last:
            last = self.layers[-1]
            last.w.data[...] = 0.0
            last.b.data[...] = 0.0

    def __call__(self, x):
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = x.relu()
        return x

    def parameters(self, prefix):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.parameters(f"{prefix}.{i}"))
        return out


class MultiHeadSelfAttention:
    """Scaled dot-product self-attention over rows of a [n, d] input."""

    def __init__(self, rng, d, heads, dtype=np.float32):
        if d % heads != 0:
            raise ValueError(f"model width {d} not divisible by {heads} heads")
        self.d = d
        self.heads = heads
        self.q = Linear(rng, d, d, dtype)
        self.k = Linear(rng, d, d, dtype)
        self.v = Linear(rng, d, d, dtype)
        self.o = Linear(rng, d, d, dtype)

    def __call__(self, x, mask=None, pos=None):
        n = x.shape[0]
        h, dh = self.heads, self.d // self.heads
        if mask is not None:
            allow = mask.allow if hasattr(mask, "allow") else np.asarray(mask, dtype=bool)
            if allow.shape != (n, n):
                raise ValueError(f"mask shape {allow.shape} != ({n}, {n})")
            allow = allow[None]  # broadcast over heads
        else:
            allow = None
        xqk = x if pos is None else x + pos
        q = self.q(xqk).reshape(n, h, dh).transpose(1, 0, 2)
        k = self.k(xqk).reshape(n, h, dh).transpose(1, 0, 2)
        v = self.v(x).reshape(n, h, dh).transpose(1, 0, 2)
        scores = matmul(q, k.transpose(0, 2, 1)) * (1.0 / np.sqrt(dh))
        weights = softmax(scores, axis=-1, mask=allow)
        out = matmul(weights, v).transpose(1, 0, 2).reshape(n, self.d)
        return self.o(out)

    def attention_weights(self, x, mask=None, pos=None):
        """Post-softmax weights [heads, n, n]; inspection only."""
        n = x.shape[0]
        h, dh = self.heads, self.d // self.heads
        allow = None
        if mask is not None:
            allow = (mask.allow if hasattr(mask, "allow") else np.asarray(mask, dtype=bool))[None]
        xqk = x if pos is None else x + pos
        q = self.q(xqk).reshape(n, h, dh).transpose(1, 0, 2)
        k = self.k(xqk).reshape(n, h, dh).transpose(1, 0, 2)
        scores = matmul(q, k.transpose(0, 2, 1)) * (1.0 / np.sqrt(dh))
        return softmax(scores, axis=-1, mask=allow).data

    def parameters(self, prefix):
        out = {}
        for name, lin in (("q", self.q), ("k", self.k), ("v", self.v), ("o", self.o)):
            out.update(lin.parameters(f"{prefix}.{name}"))
        return out


class TransformerLayer:
    """Post-norm block: self-attention then feed-forward, residual around each."""

    def __init__(self, rng, d, heads, d_ff=None, dtype=np.float32):
        d_ff = d_ff or 4 * d
        self.attn = MultiHeadSelfAttention(rng, d, heads, dtype)
        self.norm1 = LayerNorm(d, dtype)
        self.ff1 = Linear(rng, d, d_ff, dtype)
        self.ff2 = Linear(rng, d_ff, d, dtype)
        self.norm2 = LayerNorm(d, dtype)

    def __call__(self, x, mask=None, pos=None):
        x = self.norm1(x + self.attn(x, mask=mask, pos=pos))
        x = self.norm2(x + self.ff2(self.ff1(x).gelu()))
        return x

    def parameters(self, prefix):
        out = {}
        out.update(self.attn.parameters(f"{prefix}.attn"))
        out.update(self.norm1.parameters(f"{prefix}.norm1"))
        out.update(self.ff1.parameters(f"{prefix}.ff1"))
        out.update(self.ff2.parameters(f"{prefix}.ff2"))
        out.update(self.norm2.parameters(f"{prefix}.norm2"))
        return out


# ---- convolution -------------------------------------------------------


def conv2d(x, w, b=None, stride=1, padding=0):
    """2-D convolution on a [H, W, Cin] map with [kh, kw, Cin, Cout] weights."""
    xt = x if isinstance(x, Tensor) else Tensor(x)
    wt = w if isinstance(w, Tensor) else Tensor(w)
    H, W, cin = xt.shape
    kh, kw, cin_w, cout = wt.shape
    if cin != cin_w:
        raise ValueError(f"conv2d channel mismatch: {cin} vs {cin_w}")
    xp = np.pad(xt.data, ((padding, padding), (padding, padding), (0, 0)))
    Hp, Wp = xp.shape[:2]
    Ho = (Hp - kh) // stride + 1
    Wo = (Wp - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(0, 1))
    windows = windows[::stride, ::stride]                       # [Ho, Wo, Cin, kh, kw]
    cols = windows.transpose(0, 1, 3, 4, 2).reshape(Ho * Wo, kh * kw * cin)
    wmat = wt.data.reshape(kh * kw * cin, cout)
    out_data = (cols @ wmat).reshape(Ho, Wo, cout)

    def backward(g):
        gcols = g.reshape(Ho * Wo, cout) @ wmat.T              # [Ho*Wo, kh*kw*cin]
        gcols = gcols.reshape(Ho, Wo, kh, kw, cin)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[i:i + (Ho - 1) * stride + 1:stride,
                    j:j + (Wo - 1) * stride + 1:stride] += gcols[:, :, i, j]
        gx = gxp[padding:Hp - padding, padding:Wp - padding] if padding else gxp
        gw = (cols.T @ g.reshape(Ho * Wo, cout)).reshape(kh, kw, cin, cout)
        return np.ascontiguousarray(gx), gw

    out = Tensor._from_op(out_data.astype(xt.dtype), (xt, wt), backward, "conv2d")
    if b is not None:
        out = out + b
    return out


class Conv2d:
    def __init__(self, rng, cin, cout, k, stride=1, padding=0, dtype=np.float32):
        self.w = uniform_init(rng, (k, k, cin, cout), k * k * cin, dtype)
        self.b = zeros_param((cout,), dtype)
        self.stride = stride
        self.padding = padding

    def __call__(self, x):
        return conv2d(x, self.w, self.b, stride=self.stride, padding=self.padding)

    def parameters(self, prefix):
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


def upsample_nearest2x(x):
    """Nearest-neighbour 2x upsampling of a [H, W, C] map."""
    xt = x if isinstance(x, Tensor) else Tensor(x)
    H, W, C = xt.shape
    out_data = np.repeat(np.repeat(xt.data, 2, axis=0), 2, axis=1)

    def backward(g):
        return (g.reshape(H, 2, W, 2, C).sum(axis=(1, 3)),)

    return Tensor._from_op(out_data, (xt,), backward, "upsample2x")


def sincos_position_2d(h, w, d, dtype=np.float32, temperature=10000.0):
    """Fixed 2-D sinusoidal positions, flattened row-major to [h*w, d]."""
    if d % 4 != 0:
        raise ValueError("positional width must be divisible by 4")
    gy, gx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    quarter = d // 4
    omega = 1.0 / temperature ** (np.arange(quarter, dtype=np.float64) / quarter)
    outx = gx.reshape(-1, 1) * omega
    outy = gy.reshape(-1, 1) * omega
    pos = np.concatenate([np.sin(outx), np.cos(outx), np.sin(outy), np.cos(outy)], axis=1)
    return pos.astype(dtype)


def inverse_sigmoid(x, eps=1e-6):
    xc = x.clip(eps, 1.0 - eps) if isinstance(x, Tensor) else Tensor(np.clip(x, eps, 1.0 - eps))
    return xc.log() - (1.0 - xc).log()
