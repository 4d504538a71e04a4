"""Differentiable primitives over :class:`~lightformer.tensor.Tensor`.

Every function here validates its shape/dtype contract eagerly (raising
:class:`ShapeError` naming the offending dimension), computes the forward
value with numpy, and registers a single adjoint closure on the active
tape. Elementwise ops broadcast only across singleton dims of equal-rank
operands (a rank-0 tensor broadcasts against anything); nothing else is
implicit. All ops are deterministic: identical inputs give bit-identical
outputs within one platform/BLAS build.
"""

from __future__ import annotations

import functools

import numpy as np

from .tensor import ShapeError, Tensor, active_tape


def _record(op, inputs, out, backward):
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(op, inputs, out, backward)


def _result(op, inputs, data, backward):
    out = Tensor.__new__(Tensor)
    out.data = data if data.flags["C_CONTIGUOUS"] else np.ascontiguousarray(data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    _record(op, inputs, out, backward)
    return out


def _check_same_dtype(op, a: Tensor, b: Tensor):
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.dtype.name} vs {b.dtype.name}")


def _check_broadcast(op, sa, sb):
    """Equal rank with per-dim equality-or-1; rank-0 broadcasts freely."""
    if len(sa) == 0 or len(sb) == 0:
        return
    if len(sa) != len(sb):
        raise ShapeError(f"{op}: rank mismatch {sa} vs {sb} (implicit rank promotion is not allowed)")
    for d, (x, y) in enumerate(zip(sa, sb)):
        if x != y and x != 1 and y != 1:
            raise ShapeError(f"{op}: dim {d} mismatch {sa} vs {sb}")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of singleton-dim broadcasting)."""
    if g.shape == shape:
        return g
    if len(shape) == 0:
        return g.sum().reshape(())
    axes = tuple(d for d, n in enumerate(shape) if n == 1 and g.shape[d] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def _coerce_pair(op, a, b):
    """Allow a python scalar on either side; it becomes a constant rank-0 tensor."""
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        _check_same_dtype(op, a, b)
    elif isinstance(a, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    elif isinstance(b, Tensor):
        a = Tensor(np.asarray(a, dtype=b.dtype))
    else:
        raise TypeError(f"{op}: at least one operand must be a Tensor")
    _check_broadcast(op, a.shape, b.shape)
    return a, b


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _coerce_pair("add", a, b)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _result("add", (a, b), a.data + b.data, backward)


def sub(a, b) -> Tensor:
    a, b = _coerce_pair("sub", a, b)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _result("sub", (a, b), a.data - b.data, backward)


def mul(a, b) -> Tensor:
    a, b = _coerce_pair("mul", a, b)

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _result("mul", (a, b), a.data * b.data, backward)


def div(a, b) -> Tensor:
    a, b = _coerce_pair("div", a, b)

    def backward(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _result("div", (a, b), a.data / b.data, backward)


def neg(x: Tensor) -> Tensor:
    return _result("neg", (x,), -x.data, lambda g: (-g,))


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    return _result("exp", (x,), y, lambda g: (g * y,))


def log(x: Tensor) -> Tensor:
    return _result("log", (x,), np.log(x.data), lambda g: (g / x.data,))


def sqrt(x: Tensor) -> Tensor:
    y = np.sqrt(x.data)
    return _result("sqrt", (x,), y, lambda g: (g * (0.5 / y),))


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0)
    return _result("relu", (x,), y, lambda g: (g * (x.data > 0),))


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU; the adjoint differentiates the approximation."""
    c = np.asarray(np.sqrt(2.0 / np.pi), dtype=x.dtype)
    k = np.asarray(0.044715, dtype=x.dtype)
    u = c * (x.data + k * x.data**3)
    t = np.tanh(u)
    y = 0.5 * x.data * (1.0 + t)

    def backward(g):
        du = c * (1.0 + 3.0 * k * x.data**2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * du),)

    return _result("gelu", (x,), y, backward)


def sigmoid(x: Tensor) -> Tensor:
    # tanh keeps this stable for large |x| without branching.
    y = 0.5 * (np.tanh(0.5 * x.data) + 1.0)
    return _result("sigmoid", (x,), y, lambda g: (g * y * (1.0 - y),))


def clamp_min(x: Tensor, floor: float) -> Tensor:
    floor = np.asarray(floor, dtype=x.dtype)
    y = np.maximum(x.data, floor)
    return _result("clamp_min", (x,), y, lambda g: (g * (x.data >= floor),))


def softmax(x: Tensor, axis: int) -> Tensor:
    """Max-subtraction stabilized softmax along ``axis``; rows sum to 1."""
    axis = _norm_axis("softmax", axis, x.ndim)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _result("softmax", (x,), y, backward)


def _norm_axis(op, axis, ndim):
    if not -ndim <= axis < ndim:
        raise ShapeError(f"{op}: axis {axis} out of range for rank {ndim}")
    return axis % ndim


# ---------------------------------------------------------------------------
# reductions


def _norm_axes(op, axes, ndim):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    out = tuple(sorted(_norm_axis(op, a, ndim) for a in axes))
    if len(set(out)) != len(out):
        raise ShapeError(f"{op}: repeated axis in {axes}")
    return out


def _expand_reduced(g, in_shape, axes, keepdims):
    if not keepdims:
        shape = list(in_shape)
        for a in axes:
            shape[a] = 1
        g = g.reshape(shape)
    return np.broadcast_to(g, in_shape)


def sum_(x: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes("sum", axes, x.ndim)
    y = x.data.sum(axis=axes, keepdims=keepdims)

    def backward(g):
        return (np.ascontiguousarray(_expand_reduced(g, x.shape, axes, keepdims)),)

    return _result("sum", (x,), np.asarray(y, dtype=x.dtype), backward)


def mean(x: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes("mean", axes, x.ndim)
    count = 1
    for a in axes:
        count *= x.shape[a]
    y = x.data.mean(axis=axes, keepdims=keepdims)

    def backward(g):
        return (np.ascontiguousarray(_expand_reduced(g, x.shape, axes, keepdims)) / count,)

    return _result("mean", (x,), np.asarray(y, dtype=x.dtype), backward)


def max_reduce(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; the adjoint flows to the first max position (ties)."""
    axis = _norm_axis("max_reduce", axis, x.ndim)
    idx = np.argmax(x.data, axis=axis)
    y = np.take_along_axis(x.data, np.expand_dims(idx, axis), axis=axis)
    if not keepdims:
        y = np.squeeze(y, axis=axis)

    def backward(g):
        gx = np.zeros_like(x.data)
        g_k = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(gx, np.expand_dims(idx, axis), g_k, axis=axis)
        return (gx,)

    return _result("max_reduce", (x,), y, backward)


def reduce_channel(x: Tensor, kind: str) -> Tensor:
    """Collapse the channel axis of a [B,C,H,W] map to [B,1,H,W] by mean or max."""
    if x.ndim != 4:
        raise ShapeError(f"reduce_channel: expected rank-4 input, got {x.shape}")
    if kind == "mean":
        return mean(x, axes=1, keepdims=True)
    if kind == "max":
        return max_reduce(x, axis=1, keepdims=True)
    raise ShapeError(f"reduce_channel: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# shape surgery


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape} (element counts differ)")
    return _result("reshape", (x,), x.data.reshape(shape), lambda g: (g.reshape(x.shape),))


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"permute: {axes} is not a permutation of rank {x.ndim}")
    inv = np.argsort(axes)
    return _result(
        "permute",
        (x,),
        np.ascontiguousarray(x.data.transpose(axes)),
        lambda g: (np.ascontiguousarray(g.transpose(inv)),),
    )


def concat(parts, axis: int) -> Tensor:
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat: needs at least one input")
    axis = _norm_axis("concat", axis, parts[0].ndim)
    for i, p in enumerate(parts[1:], start=1):
        _check_same_dtype("concat", parts[0], p)
        if p.ndim != parts[0].ndim:
            raise ShapeError(f"concat: input {i} rank {p.ndim} != {parts[0].ndim}")
        for d in range(p.ndim):
            if d != axis and p.shape[d] != parts[0].shape[d]:
                raise ShapeError(f"concat: input {i} dim {d} is {p.shape[d]}, expected {parts[0].shape[d]}")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, offsets, axis=axis))

    return _result("concat", parts, np.concatenate([p.data for p in parts], axis=axis), backward)


def split(x: Tensor, sizes, axis: int) -> tuple:
    """Split along ``axis`` into chunks of the given sizes; inverse of concat."""
    axis = _norm_axis("split", axis, x.ndim)
    sizes = tuple(int(s) for s in sizes)
    if sum(sizes) != x.shape[axis]:
        raise ShapeError(f"split: sizes {sizes} do not sum to dim {axis} extent {x.shape[axis]}")
    outs = []
    start = 0
    for i, size in enumerate(sizes):
        sl = [slice(None)] * x.ndim
        sl[axis] = slice(start, start + size)
        sl = tuple(sl)

        def backward(g, sl=sl):
            gx = np.zeros_like(x.data)
            gx[sl] = g
            return (gx,)

        outs.append(_result(f"split[{i}]", (x,), np.ascontiguousarray(x.data[sl]), backward))
        start += size
    return tuple(outs)


def pad2d(x: Tensor, pad) -> Tensor:
    """Zero-pad a [B,C,H,W] map by (top, bottom, left, right)."""
    top, bottom, left, right = (int(p) for p in pad)
    if x.ndim != 4:
        raise ShapeError(f"pad2d: expected rank-4 input, got {x.shape}")
    if min(top, bottom, left, right) < 0:
        raise ShapeError(f"pad2d: negative padding {pad}")
    widths = ((0, 0), (0, 0), (top, bottom), (left, right))
    H, W = x.shape[2], x.shape[3]

    def backward(g):
        return (np.ascontiguousarray(g[:, :, top : top + H, left : left + W]),)

    return _result("pad2d", (x,), np.pad(x.data, widths), backward)


def crop2d(x: Tensor, top: int, left: int, height: int, width: int) -> Tensor:
    if x.ndim != 4:
        raise ShapeError(f"crop2d: expected rank-4 input, got {x.shape}")
    if top < 0 or left < 0 or top + height > x.shape[2] or left + width > x.shape[3]:
        raise ShapeError(f"crop2d: window {(top, left, height, width)} exceeds map {x.shape[2:]}")

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[:, :, top : top + height, left : left + width] = g
        return (gx,)

    return _result("crop2d", (x,), np.ascontiguousarray(x.data[:, :, top : top + height, left : left + width]), backward)


# ---------------------------------------------------------------------------
# matmul and convolution


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; batch dims must agree exactly (no broadcasting)."""
    _check_same_dtype("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must have rank >= 2, got {a.shape} and {b.shape}")
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: batch dims differ, {a.shape} vs {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims {a.shape[-1]} vs {b.shape[-2]} do not agree")

    def backward(g):
        ga = np.matmul(g, b.data.swapaxes(-1, -2))
        gb = np.matmul(a.data.swapaxes(-1, -2), g)
        return ga, gb

    return _result("matmul", (a, b), np.matmul(a.data, b.data), backward)


def _pair(v):
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride=1, padding=0, groups: int = 1) -> Tensor:
    """2-D cross-correlation of [B,Cin,H,W] with [Cout,Cin/groups,kh,kw].

    Output extent follows H' = floor((H + 2p - kh)/s) + 1 per axis. groups
    partitions channels; groups == Cin with one input channel per filter is
    the depthwise case. Stride, padding, and kernel may differ per axis.

    groups == Cin == Cout (one filter per channel) runs ``_conv2d_depthwise``,
    a multiply-accumulate over shifted views of the padded input. Every other
    grouping turns each tap into a batch of per-group matmuls over a copy of
    the strided input slice, kept for the adjoint.
    """
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be rank 4, got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d: weight must be rank 4, got {weight.shape}")
    _check_same_dtype("conv2d", x, weight)
    B, Cin, H, W = x.shape
    Cout, Cin_g, kh, kw = weight.shape
    if groups < 1 or Cin % groups:
        raise ShapeError(f"conv2d: groups {groups} does not divide input channels {Cin}")
    if Cout % groups:
        raise ShapeError(f"conv2d: groups {groups} does not divide output channels {Cout}")
    if Cin_g != Cin // groups:
        raise ShapeError(f"conv2d: weight expects {Cin_g} channels per group, input supplies {Cin // groups}")
    if sh < 1 or sw < 1:
        raise ShapeError(f"conv2d: stride must be positive, got {(sh, sw)}")
    Ho = (H + 2 * ph - kh) // sh + 1
    Wo = (W + 2 * pw - kw) // sw + 1
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"conv2d: kernel {(kh, kw)} exceeds padded input {(H + 2 * ph, W + 2 * pw)}")
    if bias is not None:
        _check_same_dtype("conv2d", x, bias)
        if bias.shape != (Cout,):
            raise ShapeError(f"conv2d: bias shape {bias.shape} != ({Cout},)")

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x.data
    if groups == Cin == Cout:
        return _conv2d_depthwise(x, weight, bias, xp, (sh, sw), (ph, pw), (Ho, Wo))
    Hp, Wp = xp.shape[2], xp.shape[3]
    xg = xp.reshape(B, groups, Cin_g, Hp, Wp)
    wg = weight.data.reshape(groups, Cout // groups, Cin_g, kh, kw)
    N = Ho * Wo

    out = np.zeros((B, groups, Cout // groups, N), dtype=x.dtype)
    taps = []  # (u, v, flattened strided input slice) reused by the adjoint
    for u in range(kh):
        for v in range(kw):
            xs = xg[:, :, :, u : u + sh * (Ho - 1) + 1 : sh, v : v + sw * (Wo - 1) + 1 : sw]
            xs = np.ascontiguousarray(xs).reshape(B, groups, Cin_g, N)
            taps.append((u, v, xs))
            out += np.matmul(wg[None, :, :, :, u, v], xs)
    y = out.reshape(B, Cout, Ho, Wo)
    if bias is not None:
        y = y + bias.data.reshape(1, Cout, 1, 1)

    def backward(g):
        gg = g.reshape(B, groups, Cout // groups, N)
        gw = np.empty_like(wg)
        gxp = np.zeros((B, groups, Cin_g, Hp, Wp), dtype=x.dtype)
        for u, v, xs in taps:
            gw[:, :, :, u, v] = np.matmul(gg, xs.swapaxes(-1, -2)).sum(axis=0)
            contrib = np.matmul(wg[None, :, :, :, u, v].swapaxes(-1, -2), gg)
            gxp[:, :, :, u : u + sh * (Ho - 1) + 1 : sh, v : v + sw * (Wo - 1) + 1 : sw] += contrib.reshape(
                B, groups, Cin_g, Ho, Wo
            )
        gx = gxp.reshape(B, Cin, Hp, Wp)[:, :, ph : ph + H, pw : pw + W]
        grads = [np.ascontiguousarray(gx), gw.reshape(Cout, Cin_g, kh, kw)]
        if bias is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        return tuple(grads)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _result("conv2d", inputs, y, backward)


def _conv2d_depthwise(x: Tensor, weight: Tensor, bias: Tensor | None, xp, stride, padding, out_hw) -> Tensor:
    """conv2d for groups == Cin == Cout: a multiply-accumulate per tap over strided views of xp.

    Nothing is copied per tap except one transient slice in the weight
    adjoint. Taps run in the grouped path's row-major order and every
    product and sum is the same floating-point operation, so results match
    it bit for bit.
    """
    (sh, sw), (ph, pw), (Ho, Wo) = stride, padding, out_hw
    B, C, H, W = x.shape
    kh, kw = weight.shape[2:]
    wt = weight.data[:, 0]

    def tap(u, v):
        return (slice(None), slice(None), slice(u, u + sh * (Ho - 1) + 1, sh), slice(v, v + sw * (Wo - 1) + 1, sw))

    out = np.zeros((B, C, Ho, Wo), dtype=x.dtype)
    # Channel blocks of about 256 KiB keep their slices of out, xp and the
    # product in cache across all taps.
    step = max(1, (1 << 18) // out[:, :1].nbytes)
    prod = np.empty_like(out[:, :step])
    for c in range(0, C, step):
        acc, xc, wc = out[:, c : c + step], xp[:, c : c + step], wt[c : c + step]
        pc = prod[:, : acc.shape[1]]
        for u in range(kh):
            for v in range(kw):
                acc += np.multiply(wc[:, u, v].reshape(1, -1, 1, 1), xc[tap(u, v)], out=pc)
    if bias is not None:
        out += bias.data.reshape(1, C, 1, 1)

    def backward(g):
        gg = g.reshape(B, C, 1, Ho * Wo)
        gw = np.empty_like(wt)
        gxp = np.zeros_like(xp)
        prod = np.empty_like(g)
        for u in range(kh):
            for v in range(kw):
                xs = np.ascontiguousarray(xp[tap(u, v)]).reshape(B, C, 1, Ho * Wo)
                gw[:, u, v] = np.matmul(gg, xs.swapaxes(-1, -2)).sum(axis=0)[:, 0, 0]
                gxp[tap(u, v)] += np.multiply(wt[:, u, v].reshape(1, C, 1, 1), g, out=prod)
        gx = gxp[:, :, ph : ph + H, pw : pw + W]
        grads = [np.ascontiguousarray(gx), gw.reshape(C, 1, kh, kw)]
        if bias is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        return tuple(grads)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _result("conv2d", inputs, out, backward)


def pool2d(x: Tensor, kind: str, kernel, stride=None) -> Tensor:
    """Average or max pooling; stride defaults to the kernel (non-overlapping).

    Axis kernels such as (ws, 1) and (1, ws) are the window-attention
    reduction path. Max ties break toward the first element scanned in
    row-major kernel order, so the adjoint is deterministic.
    """
    if x.ndim != 4:
        raise ShapeError(f"pool2d: expected rank-4 input, got {x.shape}")
    if kind not in ("avg", "max"):
        raise ShapeError(f"pool2d: unknown kind {kind!r}")
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    B, C, H, W = x.shape
    if kh > H or kw > W:
        raise ShapeError(f"pool2d: kernel {(kh, kw)} larger than input {(H, W)}")
    if kh < 1 or kw < 1 or sh < 1 or sw < 1:
        raise ShapeError(f"pool2d: kernel/stride must be positive, got {(kh, kw)}/{(sh, sw)}")
    Ho = (H - kh) // sh + 1
    Wo = (W - kw) // sw + 1

    stackview = np.empty((kh * kw, B, C, Ho, Wo), dtype=x.dtype)
    for u in range(kh):
        for v in range(kw):
            stackview[u * kw + v] = x.data[:, :, u : u + sh * (Ho - 1) + 1 : sh, v : v + sw * (Wo - 1) + 1 : sw]

    if kind == "avg":
        y = stackview.mean(axis=0)

        def backward(g):
            gx = np.zeros_like(x.data)
            share = g / (kh * kw)
            for u in range(kh):
                for v in range(kw):
                    gx[:, :, u : u + sh * (Ho - 1) + 1 : sh, v : v + sw * (Wo - 1) + 1 : sw] += share
            return (gx,)

    else:
        amax = stackview.argmax(axis=0)
        y = stackview.max(axis=0)

        def backward(g):
            gx = np.zeros_like(x.data)
            for u in range(kh):
                for v in range(kw):
                    mask = amax == (u * kw + v)
                    gx[:, :, u : u + sh * (Ho - 1) + 1 : sh, v : v + sw * (Wo - 1) + 1 : sw] += g * mask
            return (gx,)

    return _result(f"pool2d[{kind}]", (x,), np.ascontiguousarray(y), backward)


# ---------------------------------------------------------------------------
# resampling


@functools.lru_cache(maxsize=64)
def _bilinear_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Read-only [n_out, n_in] half-pixel-center interpolation matrix.

    Row i holds ``1 - frac`` at the clamped source index below output i and
    ``frac`` at the one above (both land in one column at the far edge).
    """
    pos = np.maximum((np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5, 0.0)
    i0 = np.minimum(pos.astype(np.int64), n_in - 1)
    frac = (pos - i0).astype(dtype)
    a = np.zeros((n_out, n_in), dtype=dtype)
    rows = np.arange(n_out)
    a[rows, i0] = 1 - frac
    a[rows, np.minimum(i0 + 1, n_in - 1)] += frac
    a.flags.writeable = False
    return a


def upsample_bilinear(x: Tensor, out_hw) -> Tensor:
    """Bilinear upsample of [B,C,H,W] to (H2, W2) with half-pixel centers.

    Runs as two dense per-axis matmuls, ``Ay @ x @ Axᵀ``, with adjoint
    ``Ayᵀ @ g @ Ax``. The cost tables in ``efficiency`` still count one op
    per output element, the resize's analytic cost, not these matmuls' MACs.
    """
    H2, W2 = (int(v) for v in out_hw)
    if x.ndim != 4:
        raise ShapeError(f"upsample_bilinear: expected rank-4 input, got {x.shape}")
    H, W = x.shape[2:]
    if H2 < H or W2 < W:
        raise ShapeError(f"upsample_bilinear: target {(H2, W2)} smaller than input {(H, W)} (downscale not supported)")
    ay = _bilinear_matrix(H, H2, x.dtype)
    ax = _bilinear_matrix(W, W2, x.dtype)

    def backward(g):
        return (np.matmul(ay.T, np.matmul(g, ax)),)

    return _result("upsample_bilinear", (x,), np.matmul(np.matmul(ay, x.data), ax.T), backward)


def nearest_upsample(x: Tensor, factors) -> Tensor:
    """Integer-factor repetition along H and W (broadcast-back of pooled maps)."""
    fh, fw = _pair(factors)
    if x.ndim != 4:
        raise ShapeError(f"nearest_upsample: expected rank-4 input, got {x.shape}")
    if fh < 1 or fw < 1:
        raise ShapeError(f"nearest_upsample: factors must be positive, got {(fh, fw)}")
    B, C, H, W = x.shape
    y = np.repeat(np.repeat(x.data, fh, axis=2), fw, axis=3)

    def backward(g):
        return (g.reshape(B, C, H, fh, W, fw).sum(axis=(3, 5)),)

    return _result("nearest_upsample", (x,), y, backward)


# ---------------------------------------------------------------------------
# operator sugar on Tensor

Tensor.__add__ = lambda self, other: add(self, other)
Tensor.__radd__ = lambda self, other: add(other, self)
Tensor.__sub__ = lambda self, other: sub(self, other)
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = lambda self, other: mul(self, other)
Tensor.__rmul__ = lambda self, other: mul(other, self)
Tensor.__truediv__ = lambda self, other: div(self, other)
Tensor.__rtruediv__ = lambda self, other: div(other, self)
Tensor.__neg__ = lambda self: neg(self)
