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
import math

import numpy as np

from .tensor import _TAPE_STACK, ShapeError, Tensor


def _result(op, inputs, data, backward):
    """Wrap ``data`` as the op's output; record it on the innermost tape if it needs a gradient."""
    out = Tensor.__new__(Tensor)
    out.data = data if data.flags.c_contiguous else np.ascontiguousarray(data)
    out.requires_grad = False
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            if _TAPE_STACK:
                _TAPE_STACK[-1].record(op, inputs, out, backward)
            break
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
        if a.data.shape == b.data.shape and a.data.dtype == b.data.dtype:
            return a, b
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
    shifted = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.add.reduce(e, axis=axis, keepdims=True)

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


def _mean_keepdims(a, axes, count):
    """``a.mean(axis=axes, keepdims=True)`` for ``count`` reduced elements, byte for byte.

    These are the two ufunc calls ``ndarray.mean`` makes, including its
    division by an ``intp`` count (so a float32 sum is divided in float64
    and cast back), without its Python-level dispatch.
    """
    s = np.add.reduce(a, axis=axes, keepdims=True)
    return np.true_divide(s, np.intp(count), out=s, casting="unsafe")


def sum_(x: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes("sum", axes, x.ndim)
    y = np.add.reduce(x.data, axis=axes, keepdims=keepdims)

    def backward(g):
        return (np.ascontiguousarray(_expand_reduced(g, x.shape, axes, keepdims)),)

    return _result("sum", (x,), np.asarray(y, dtype=x.dtype), backward)


def mean(x: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes("mean", axes, x.ndim)
    count = math.prod([x.shape[a] for a in axes])
    y = _mean_keepdims(x.data, axes, count)
    if not keepdims:
        y = y.reshape([n for d, n in enumerate(x.shape) if d not in axes])

    def backward(g):
        return (np.ascontiguousarray(_expand_reduced(g, x.shape, axes, keepdims)) / count,)

    return _result("mean", (x,), y, backward)


def max_reduce(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; the adjoint flows to the first max position (ties).

    The forward is the reduction ``np.max`` runs; only the adjoint needs the
    ``argmax``, which is many times slower over a strided axis.
    """
    axis = _norm_axis("max_reduce", axis, x.ndim)
    y = np.asarray(np.maximum.reduce(x.data, axis=axis, keepdims=keepdims))

    def backward(g):
        idx = np.expand_dims(np.argmax(x.data, axis=axis), axis)
        gx = np.zeros_like(x.data)
        g_k = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(gx, idx, g_k, axis=axis)
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
    if math.prod(shape) != x.size:
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
    B, C, H, W = x.shape
    y = np.zeros((B, C, top + H + bottom, left + W + right), dtype=x.dtype)
    y[:, :, top : top + H, left : left + W] = x.data

    def backward(g):
        return (np.ascontiguousarray(g[:, :, top : top + H, left : left + W]),)

    return _result("pad2d", (x,), y, backward)


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
    a multiply-accumulate over shifted views of the padded input, and an
    unpadded stride-1 1x1 kernel runs ``_conv2d_1x1``, whose column buffer is
    the input itself. Every other grouping is lowered to im2col (Chellapilla
    et al., 2006) with the batch folded into the columns: a column buffer of
    shape (groups, Cin/groups*kh*kw, B*H'*W'), rows (c, u, v) and columns
    (b, i, j), copied from a strided view of the padded input. The forward,
    the weight gradient and the column adjoint are then one ``np.matmul``
    each over B*H'*W' columns, with the weight viewed as (groups, Cout/groups,
    Cin/groups*kh*kw). The output comes out channel-major and is copied once
    to (B, Cout, H', W'), and the adjoint copies g the other way; at B == 1
    neither copy is made. The adjoint overwrites the buffer with the column
    adjoint and scatters it back onto the input with one strided add per tap
    (col2im), in tap order, through a transposed view of the zeroed padded
    gradient. An input that does not require a gradient gets ``None``, and
    neither the column adjoint nor col2im runs. The GEMMs round differently
    from a per-tap accumulation; at B == 1 they are the per-sample GEMMs, and
    over a batch they may round differently from them too.
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

    if groups == Cin == Cout:
        return _conv2d_depthwise(x, weight, bias, (sh, sw), (ph, pw), (Ho, Wo))
    Cout_g, K, N = Cout // groups, Cin_g * kh * kw, Ho * Wo
    wg = weight.data.reshape(groups, Cout_g, K)
    if kh == kw == sh == sw == 1 and not (ph or pw):
        return _conv2d_1x1(x, weight, bias, wg)
    xp = x.data
    if ph or pw:
        xp = np.zeros((B, Cin, H + 2 * ph, W + 2 * pw), dtype=x.dtype)
        xp[:, :, ph : ph + H, pw : pw + W] = x.data
    padded_shape = xp.shape  # the adjoint must not keep xp alive
    # Row (c, u, v) of the column buffer is input channel c seen through tap
    # (u, v); column (b, i, j) is output pixel (i, j) of sample b. When that
    # view is already contiguous (B == 1 and a kernel as tall as an unpadded
    # input, as wide or one column wide), the buffer is x.data itself, so the
    # view is made read-only: the adjoint must not overwrite it.
    s0, s1, s2, s3 = xp.strides
    windows = np.ndarray((Cin, kh, kw, B, Ho, Wo), xp.dtype, buffer=xp,
                         strides=(s1, s2, s3, s0, s2 * sh, s3 * sw))
    windows.flags.writeable = False
    col = np.ascontiguousarray(windows).reshape(groups, K, B * N)
    y = np.matmul(wg, col).reshape(Cout, B, Ho, Wo)
    y = np.ascontiguousarray(y.transpose(1, 0, 2, 3))
    if bias is not None:
        y += bias.data.reshape(1, Cout, 1, 1)

    def backward(g):
        gt = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(groups, Cout_g, B * N)
        gw = np.matmul(gt, col.swapaxes(-1, -2))
        gx = None
        if x.requires_grad:
            # col is dead once gw is done, so the column adjoint overwrites it
            # (this makes the closure single-use, as the tape already is).
            gcol = np.matmul(wg.swapaxes(-1, -2), gt, out=col if col.flags.writeable else None)
            gcol = gcol.reshape(Cin, kh, kw, B, Ho, Wo)
            gxp = np.zeros(padded_shape, dtype=x.dtype)
            gxt = gxp.transpose(1, 0, 2, 3)
            for u in range(kh):
                for v in range(kw):
                    gxt[:, :, u : u + sh * (Ho - 1) + 1 : sh, v : v + sw * (Wo - 1) + 1 : sw] += gcol[:, u, v]
            gx = np.ascontiguousarray(gxp[:, :, ph : ph + H, pw : pw + W])
        grads = [gx, gw.reshape(Cout, Cin_g, kh, kw)]
        if bias is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        return tuple(grads)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _result("conv2d", inputs, y, backward)


def _conv2d_1x1(x: Tensor, weight: Tensor, bias: Tensor | None, wg) -> Tensor:
    """conv2d for an unpadded stride-1 1x1 kernel: one product per sample.

    The column buffer is ``x.data`` itself, viewed as (B, groups, Cin/groups,
    H*W), so nothing is copied, and the input adjoint is the transposed
    product per sample. The weight gradient is a batched GEMM summed over
    the batch; its (B, groups, Cout/groups, Cin/groups) temporary is small.
    """
    B, Cin, H, W = x.shape
    groups, Cout_g, K = wg.shape
    Cout = groups * Cout_g
    col = x.data.reshape(B, groups, K, H * W)
    y = np.matmul(wg, col).reshape(B, Cout, H, W)
    if bias is not None:
        y += bias.data.reshape(1, Cout, 1, 1)

    def backward(g):
        gg = g.reshape(B, groups, Cout_g, H * W)
        gw = np.matmul(gg, col.swapaxes(-1, -2)).sum(axis=0)
        gx = None
        if x.requires_grad:
            gx = np.matmul(wg.swapaxes(-1, -2), gg).reshape(B, Cin, H, W)
        grads = [gx, gw.reshape(weight.shape)]
        if bias is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        return tuple(grads)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _result("conv2d", inputs, y, backward)


def _depthwise_mac(src, row_len, weights, offsets, out_hw, stride):
    """``out[b, c, i, j] = Σ_t weights[c, t] · src[b, c, offsets[t] + i·sh·row_len + j·sw]``.

    ``src`` is (B, C, L), each plane flattened with rows ``row_len`` apart
    and long enough for every tap to read Ho·sh rows; ``out`` is (B, C, Ho,
    Wo), returned. The taps are added in the order given into a zeroed accumulator,
    one rounded product at a time. At stride 1 a tap's view is one flat
    slice read as Ho full rows, so numpy's inner loop runs over the whole
    slice instead of one Wo-long row at a time; the last row_len - Wo columns
    of each such row wrap into the next row and are cropped when a channel
    block is copied out. A stride other than 1 reads every ``sw``-th column
    of rows ``sh`` rows apart, Wo of them. Nothing is copied per tap.
    """
    B, C = src.shape[:2]
    (Ho, Wo), (sh, sw) = out_hw, stride
    row = row_len if (sh, sw) == (1, 1) else Wo
    out = np.empty((B, C, Ho, Wo), dtype=src.dtype)
    # Channel blocks of about 256 KiB of output keep their slices of the
    # accumulator, the source and the product in cache across all taps.
    step = min(C, max(1, (1 << 18) // out[:, :1].nbytes))
    acc_buf = np.empty((B, step, Ho, row), dtype=src.dtype)
    prod = np.empty_like(acc_buf)
    # Tap t's weights as a (1, C, 1, 1) view: taps[t]
    taps = weights.T.reshape(len(offsets), 1, C, 1, 1)
    for c in range(0, C, step):
        sc = src[:, c : c + step]
        n = sc.shape[1]
        acc, pc = acc_buf[:, :n], prod[:, :n]
        acc.fill(0)
        for s, wt in zip(offsets, taps[:, :, c : c + step]):
            rows = sc[:, :, s : s + Ho * sh * row_len].reshape(B, n, Ho, sh * row_len)
            acc += np.multiply(wt, rows[..., : row * sw : sw], out=pc)
        out[:, c : c + n] = acc[..., :Wo]
    return out


def _dilated_span(n, s, off, limit):
    """Slices that place n samples ``s`` apart from ``off`` into [0, limit), dropping the rest.

    Returns ``(destination, source)``.
    """
    lo = max(0, -(off // s))
    hi = max(lo, min(n, -((off - limit) // s)))
    return slice(off + lo * s, off + hi * s, s), slice(lo, hi)


def _conv2d_depthwise(x: Tensor, weight: Tensor, bias: Tensor | None, stride, padding, out_hw) -> Tensor:
    """conv2d for groups == Cin == Cout: a multiply-accumulate per tap over views of zero-padded planes.

    The forward runs ``_depthwise_mac`` over the padded input, tap (u, v)
    at offset ``u·Wp + v``. The input adjoint is the same kernel run as a
    gather over the output adjoint g: g is dilated by the stride (its
    samples ``sh`` rows and ``sw`` columns apart), placed in a zeroed plane
    of H + kh - 1 rows of Gw = W + kw - 1 that starts kh - 1 - ph rows and
    kw - 1 - pw columns before it (cropped where the padding is wider than
    the kernel), and tap (u, v) reads that plane at offset
    ``(kh−1−u)·Gw + (kw−1−v)``. Once the weight adjoint is done, the
    forward's padded input is dead, and the plane reuses it when it is large
    enough. Both directions add one product per tap in row-major tap order,
    the same floating-point operations as a per-tap grouped conv, so they
    match one bit for bit: the products the gather adds for taps that miss g
    are zeros, which leave a sum started at +0 unchanged. The weight adjoint
    is one ``einsum("bcp,bcuvp->cuv")``: g dilated by the stride into a zeroed
    (B, C, H', sh·Wp) plane of full padded rows, against a read-only
    (B, C, kh, kw, H'·sh·Wp) Hankel view of the forward's flat padded input
    whose element (u, v, p) is ``flat[u·Wp + v + p]``. Positions of the plane
    that hold no sample of g add zero products. The plane is dropped before
    the input adjoint reuses the padded input. This sum matches a per-tap
    reduction only to rounding. An input that does not require a gradient
    gets ``None``.
    """
    (sh, sw), (ph, pw), (Ho, Wo) = stride, padding, out_hw
    B, C, H, W = x.shape
    kh, kw = weight.shape[2:]
    Hp, Wp = H + 2 * ph, W + 2 * pw
    wt = weight.data[:, 0]
    # Slack past the last plane keeps the last tap's Ho*sh rows in bounds.
    flat = np.zeros((B, C, Hp * Wp + (sh - 1) * Wp + kw - 1), dtype=x.dtype)
    flat[:, :, : Hp * Wp].reshape(B, C, Hp, Wp)[:, :, ph : ph + H, pw : pw + W] = x.data
    offsets = [u * Wp + v for u in range(kh) for v in range(kw)]
    out = _depthwise_mac(flat, Wp, wt.reshape(C, -1), offsets, (Ho, Wo), (sh, sw))
    if bias is not None:
        out += bias.data.reshape(1, C, 1, 1)

    def backward(g):
        # g dilated by the stride into zeroed full padded rows, against the
        # Hankel view hankel[b, c, u, v, p] = flat[b, c, u·Wp + v + p]:
        # sample (i, j) of g sits at p = i·sh·Wp + j·sw, which the view maps
        # to padded pixel (i·sh + u, j·sw + v).
        P = Ho * sh * Wp
        gd = np.zeros((B, C, Ho, sh * Wp), dtype=g.dtype)
        gd[:, :, :, : sw * (Wo - 1) + 1 : sw] = g
        s0, s1, s2 = flat.strides
        hankel = np.ndarray((B, C, kh, kw, P), flat.dtype, buffer=flat,
                            strides=(s0, s1, Wp * s2, s2, s2))
        hankel.flags.writeable = False
        gw = np.einsum("bcp,bcuvp->cuv", gd.reshape(B, C, P), hankel)
        del gd, hankel
        gx = None
        if x.requires_grad:
            Gh, Gw = H + kh - 1, W + kw - 1
            size = B * C * (Gh * Gw + kw - 1)
            # flat is dead now, so the plane may overwrite it (this makes the
            # closure single-use, as the tape already is).
            buf = flat.reshape(-1)[:size] if flat.size >= size else np.empty(size, x.dtype)
            buf.fill(0)
            plane = buf.reshape(B, C, -1)
            rows, g_rows = _dilated_span(Ho, sh, kh - 1 - ph, Gh)
            cols, g_cols = _dilated_span(Wo, sw, kw - 1 - pw, Gw)
            plane[:, :, : Gh * Gw].reshape(B, C, Gh, Gw)[:, :, rows, cols] = g[:, :, g_rows, g_cols]
            offsets = [(kh - 1 - u) * Gw + kw - 1 - v for u in range(kh) for v in range(kw)]
            gx = _depthwise_mac(plane, Gw, wt.reshape(C, -1), offsets, (H, W), (1, 1))
        grads = [gx, gw.reshape(C, 1, kh, kw)]
        if bias is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        return tuple(grads)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _result("conv2d", inputs, out, backward)


def pool2d(x: Tensor, kind: str, kernel, stride=None) -> Tensor:
    """Average or max pooling; stride defaults to the kernel (non-overlapping).

    Max ties break toward the first element scanned in row-major kernel
    order, so the adjoint is deterministic.
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
    """Integer-factor repetition along H and W."""
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
# normalization


def norm2d(x: Tensor, gamma: Tensor, beta: Tensor, eps: float, groups: int | None = None,
           stats=None) -> tuple:
    """Normalize a [B,C,H,W] map, then scale by ``gamma`` and shift by ``beta`` (each (C,)).

    The statistics come from one of three sources:

    * by default, per channel over (B, H, W): batch norm in training;
    * ``groups=G``: per sample over each of G runs of C/G consecutive
      channels: group norm;
    * ``stats=(mean, var)``: given per-channel arrays of shape (C,): batch
      norm in eval mode.

    Every source computes ``(x - mean) / sqrt(var + eps) * gamma + beta``
    with the same operations in the same order, so statistics given back
    equal to a batch's reproduce that batch's output bit for bit. One tape
    node. The adjoint of x is ``inv·(ĝ − mean(ĝ) − x̂·mean(ĝ·x̂))`` with
    ĝ = g·gamma and inv = 1/sqrt(var + eps), the means running over each
    statistic's elements; with given statistics it is ``ĝ·inv``. The
    normalized map x̂ is recomputed from x in the adjoint, not kept.

    Returns ``(out, mean, var)``, the statistics used, with the biased
    variance: shaped (C,) for batch and given statistics, (B, G) for groups.
    """
    if x.ndim != 4:
        raise ShapeError(f"norm2d: expected rank-4 input, got {x.shape}")
    B, C, H, W = x.shape
    for name, t in (("gamma", gamma), ("beta", beta)):
        _check_same_dtype("norm2d", x, t)
        if t.shape != (C,):
            raise ShapeError(f"norm2d: {name} shape {t.shape} != ({C},), the channels of x {x.shape}")
    if groups is None:
        xs, axes, count = x.data, (0, 2, 3), B * H * W
    elif stats is not None:
        raise ShapeError("norm2d: given statistics are per channel, so groups must be None")
    elif groups < 1 or C % groups:
        raise ShapeError(f"norm2d: groups {groups} does not divide channels {C}")
    else:
        xs, axes, count = x.data.reshape(B, groups, -1), (2,), C // groups * H * W
    if stats is None:
        m = _mean_keepdims(xs, axes, count)
        centered = xs - m
        v = _mean_keepdims(centered * centered, axes, count)
    else:
        for name, s in zip(("mean", "var"), stats):
            if s.shape != (C,):
                raise ShapeError(f"norm2d: given {name} shape {s.shape} != ({C},)")
            if s.dtype != x.dtype:
                raise ShapeError(f"norm2d: dtype mismatch {x.dtype.name} vs given {name} {s.dtype.name}")
        m, v = (s.reshape(1, C, 1, 1) for s in stats)
        centered = xs - m
    std = np.sqrt(v + np.asarray(eps, dtype=x.dtype))
    gam = gamma.data.reshape(1, C, 1, 1)
    y = np.divide(centered, std, out=centered).reshape(B, C, H, W) * gam
    y += beta.data.reshape(1, C, 1, 1)

    def backward(g):
        xhat = (xs - m) / std
        g_gamma = (g * xhat.reshape(B, C, H, W)).sum(axis=(0, 2, 3))
        gx = (g * gam).reshape(xs.shape)
        if stats is None:
            dot = _mean_keepdims(gx * xhat, axes, count)
            gx -= _mean_keepdims(gx, axes, count)
            gx -= np.multiply(xhat, dot, out=xhat)
        gx *= 1.0 / std
        return gx.reshape(B, C, H, W), g_gamma, g.sum(axis=(0, 2, 3))

    out = _result("norm2d", (x, gamma, beta), y, backward)
    shape = (C,) if groups is None else (B, groups)
    return out, m.reshape(shape), v.reshape(shape)


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
