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


def _requires_grad(inputs) -> bool:
    for t in inputs:
        if t.requires_grad:
            return True
    return False


def _records(inputs) -> bool:
    """Whether ``_result`` records an op over ``inputs``: a tape is active and an input requires a gradient."""
    return bool(_TAPE_STACK) and _requires_grad(inputs)


def _result(op, inputs, data, backward):
    """Wrap ``data`` as the op's output; record it on the innermost tape if it needs a gradient."""
    out = Tensor.__new__(Tensor)
    out.data = data if data.flags.c_contiguous else np.ascontiguousarray(data)
    # With no tape the flag still passes on, so a tape opened later records ops on the output.
    out.requires_grad = _requires_grad(inputs)
    if out.requires_grad and _TAPE_STACK:
        _TAPE_STACK[-1].record(op, inputs, out, backward)
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


def _mean_keepdims(a, axes, count, more=()):
    """``a.mean(axis=axes, keepdims=True)`` for ``count`` reduced elements, byte for byte.

    These are the two ufunc calls ``ndarray.mean`` makes, including its
    division by an ``intp`` count (so a float32 sum is divided in float64
    and cast back), without its Python-level dispatch. The arrays in
    ``more``, shaped like the sum, are added to it in order before the division.
    """
    s = np.add.reduce(a, axis=axes, keepdims=True)
    for m in more:
        s += m
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


def channel_stats(parts) -> Tensor:
    """Channel mean and max, (B, 2, H, W), of the [B,C_i,H,W] ``parts`` joined along axis 1, as one node.

    Byte for byte ``concat([mean, max_reduce])`` over ``concat(parts, 1)``
    without building it: numpy's sum over the first part, then each later
    channel added in concat order, as numpy sums a channel axis (at H·W = 1
    it sums pairwise, so there the parts are joined first), divided as in
    ``_mean_keepdims``. The adjoint gives every part g_mean / ΣC_i, and g_max
    goes to the first max in concat order, ``max_reduce``'s tie rule: the
    first part holding the overall max wins.
    """
    parts = tuple(parts)
    if not parts:
        raise ShapeError("channel_stats: needs at least one part")
    for i, p in enumerate(parts):
        if p.ndim != 4:
            raise ShapeError(f"channel_stats: part {i} must be rank 4, got {p.shape}")
        _check_same_dtype("channel_stats", parts[0], p)
        for d, dim in ((0, "batch"), (2, "height"), (3, "width")):
            if p.shape[d] != parts[0].shape[d]:
                raise ShapeError(f"channel_stats: part {i} {dim} {p.shape[d]} != {parts[0].shape[d]} of part 0")
    xs = [p.data for p in parts]
    n = sum(x.shape[1] for x in xs)
    sums = xs if xs[0].shape[2] * xs[0].shape[3] > 1 else [np.concatenate(xs, axis=1)]
    mean = _mean_keepdims(sums[0], (1,), n, (x[:, c : c + 1] for x in sums[1:] for c in range(x.shape[1])))
    top = functools.reduce(np.maximum, [np.maximum.reduce(x, axis=1, keepdims=True) for x in xs])

    def backward(g):
        g_mean = g[:, :1] / n
        idx = [np.argmax(x, axis=1)[:, None] for x in xs]
        first = np.argmax(np.stack([np.take_along_axis(x, i, axis=1) for x, i in zip(xs, idx)]), axis=0)
        grads = []
        for k, (x, i) in enumerate(zip(xs, idx)):
            gx = np.zeros_like(x)
            np.put_along_axis(gx, i, np.where(first == k, g[:, 1:], 0), axis=1)
            gx += g_mean
            grads.append(gx)
        return tuple(grads)

    return _result("channel_stats", parts, np.concatenate([mean, top], axis=1), backward)


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


# Bytes of the column buffer above which an untaped im2col conv is lowered in
# blocks of output rows. Every conv of the toy recipe fits in one block (the
# largest, stage 1's stride-2 conv at B = 8 and 64², needs 1.77 MB): over a
# batch, smaller GEMMs may round otherwise.
_IM2COL_BYTES = 1 << 21


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride=1, padding=0, groups: int = 1) -> Tensor:
    """2-D cross-correlation of [B,Cin,H,W] with [Cout,Cin/groups,kh,kw].

    Output extent follows H' = floor((H + 2p - kh)/s) + 1 per axis. groups
    partitions channels; groups == Cin with one input channel per filter is
    the depthwise case. Stride, padding, and kernel may differ per axis.

    groups == Cin == Cout (one filter per channel) at stride 1, with padding
    below the kernel on both axes, runs ``_conv2d_depthwise``: banded GEMMs
    in 32-column blocks and 256 KiB channel chunks. Every depthwise conv in
    the model is of that kind. An unpadded stride-1 1x1 kernel runs
    ``_conv2d_1x1``, whose column buffer is the input itself. Everything
    else, a strided or over-padded depthwise conv included (at the cost of
    a kh*kw-fold column buffer), is lowered to im2col (Chellapilla et al.,
    2006) with the batch folded into the columns: a column buffer of shape
    (groups, Cin/groups*kh*kw, B*H'*W'), rows (c, u, v) and columns
    (b, i, j), always copied from a strided view of the padded input. The
    forward, the weight gradient and the column adjoint are then one
    ``np.matmul`` each over B*H'*W' columns, with the weight viewed as
    (groups, Cout/groups, Cin/groups*kh*kw). The output comes out channel-major and is copied once
    to (B, Cout, H', W'), and the adjoint copies g the other way; at B == 1
    neither copy is made. A conv that will not be recorded (no active tape,
    or no input that requires a gradient) keeps no column buffer, so when
    the buffer would pass ``_IM2COL_BYTES`` (2 MiB) the forward walks the
    output in the fewest blocks of rows of near-equal height: each block
    copies its windows into one reused buffer of at most that size (one row
    if a row alone is larger) and runs one GEMM into its rows of the output.
    A padded conv pads per block: the input rows a block reads are copied
    into one reused zeroed slab, (n - 1)*sh + kh rows of W + 2*pw columns
    for n output rows, and the block's windows are a view of it; no whole
    padded copy of the input is made. A recorded conv is the same loop with
    one block.
    A block's GEMM is the one-block product over fewer columns. At B == 1,
    blocks this large have rounded as the one-block product does (with
    OpenBLAS, ``infer``'s tiles keep every byte), but a GEMM over a few
    columns may round otherwise (at most 3.4e-7 of the largest output in
    float32 over the test geometries), and so may a block over a batch.
    The adjoint overwrites the buffer with the column adjoint and scatters
    it back onto the input with one strided add per tap (col2im), in tap
    order, through a transposed view of the zeroed padded
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
    if sh < 1 or sw < 1 or ph < 0 or pw < 0:
        raise ShapeError(f"conv2d: stride {(sh, sw)} must be positive and padding {(ph, pw)} non-negative")
    Ho = (H + 2 * ph - kh) // sh + 1
    Wo = (W + 2 * pw - kw) // sw + 1
    if kh < 1 or kw < 1 or Ho < 1 or Wo < 1:
        raise ShapeError(f"conv2d: kernel {(kh, kw)} is empty or exceeds padded input {(H + 2 * ph, W + 2 * pw)}")
    if bias is not None:
        _check_same_dtype("conv2d", x, bias)
        if bias.shape != (Cout,):
            raise ShapeError(f"conv2d: bias shape {bias.shape} != ({Cout},)")

    if groups == Cin == Cout and sh == sw == 1 and ph < kh and pw < kw:
        return _conv2d_depthwise(x, weight, bias, (ph, pw), (Ho, Wo))
    Cout_g, K, N = Cout // groups, Cin_g * kh * kw, Ho * Wo
    wg = weight.data.reshape(groups, Cout_g, K)
    if kh == kw == sh == sw == 1 and not (ph or pw):
        return _conv2d_1x1(x, weight, bias, wg)
    row = groups * K * B * Wo  # column buffer entries per output row
    rows = Ho
    inputs = (x, weight) if bias is None else (x, weight, bias)
    if row * Ho * x.data.itemsize > _IM2COL_BYTES and not _records(inputs):
        rows = max(1, _IM2COL_BYTES // (row * x.data.itemsize))
        rows = -(-Ho // -(-Ho // rows))  # as many blocks, of near-equal height
    # A block of n output rows reads (n - 1)*sh + kh padded input rows. Padded,
    # they are copied into a zeroed slab that every block reuses.
    src = x.data
    if ph or pw:
        src = np.zeros((B, Cin, (rows - 1) * sh + kh, W + 2 * pw), dtype=x.dtype)
    s0, s1, s2, s3 = src.strides
    buf = np.empty(row * rows, dtype=x.dtype)
    y = np.empty((B, Cout, Ho, Wo), dtype=x.dtype)
    for i0 in range(0, Ho, rows):
        n = min(rows, Ho - i0)
        r0 = i0 * sh - ph  # the input row under the block's first window row
        offset = r0 * s2
        if src is not x.data:
            offset, m = 0, (n - 1) * sh + kh
            lo = min(max(-r0, 0), m)  # slab rows lo .. hi - 1 hold input rows
            hi = min(max(H - r0, lo), m)
            src[:, :, lo:hi, pw : pw + W] = x.data[:, :, r0 + lo : r0 + hi]
            if hi < m and i0:  # an earlier block may have filled this block's bottom padding
                src[:, :, hi:m] = 0
        # Row (c, u, v) of the column buffer is input channel c seen through
        # tap (u, v); column (b, i, j) is output pixel (i0 + i, j) of sample b.
        windows = np.ndarray((Cin, kh, kw, B, n, Wo), src.dtype, buffer=src, offset=offset,
                             strides=(s1, s2, s3, s0, s2 * sh, s3 * sw))
        col = buf[: row * n].reshape(Cin, kh, kw, B, n, Wo)
        np.copyto(col, windows)
        col = col.reshape(groups, K, B * n * Wo)
        if B == 1:  # channel-major is y's own layout, so the GEMM writes its rows of y
            np.matmul(wg, col, out=y.reshape(groups, Cout_g, N)[:, :, i0 * Wo : (i0 + n) * Wo])
        else:
            y[:, :, i0 : i0 + n] = np.matmul(wg, col).reshape(Cout, B, n, Wo).transpose(1, 0, 2, 3)

    def backward(g):
        gt = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(groups, Cout_g, B * N)
        gw = np.matmul(gt, col.swapaxes(-1, -2))
        gx = None
        if x.requires_grad:
            # col is dead once gw is done, so the column adjoint overwrites it
            # (this makes the closure single-use, as the tape already is).
            gcol = np.matmul(wg.swapaxes(-1, -2), gt, out=col)
            gcol = gcol.reshape(Cin, kh, kw, B, Ho, Wo)
            gxp = np.zeros((B, Cin, H + 2 * ph, W + 2 * pw), dtype=x.dtype)
            gxt = gxp.transpose(1, 0, 2, 3)
            for u in range(kh):
                for v in range(kw):
                    gxt[:, :, u : u + sh * (Ho - 1) + 1 : sh, v : v + sw * (Wo - 1) + 1 : sw] += gcol[:, u, v]
            gx = np.ascontiguousarray(gxp[:, :, ph : ph + H, pw : pw + W])
        return gx, gw.reshape(weight.shape)

    return _conv_result(x, weight, bias, y, backward)


def _conv_result(x: Tensor, weight: Tensor, bias: Tensor | None, y, backward) -> Tensor:
    """Add the bias to ``y`` in place and record the conv; ``backward(g)`` returns ``(gx, gw)``."""
    if bias is None:
        return _result("conv2d", (x, weight), y, backward)
    y += bias.data.reshape(1, -1, 1, 1)
    return _result("conv2d", (x, weight, bias), y, lambda g: (*backward(g), g.sum(axis=(0, 2, 3))))


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

    def backward(g):
        gg = g.reshape(B, groups, Cout_g, H * W)
        gw = np.matmul(gg, col.swapaxes(-1, -2)).sum(axis=0)
        gx = None
        if x.requires_grad:
            gx = np.matmul(wg.swapaxes(-1, -2), gg).reshape(B, Cin, H, W)
        return gx, gw.reshape(weight.shape)

    return _conv_result(x, weight, bias, y, backward)


# Output columns per band block (a band grows as the square of its width),
# and bytes of the row buffer X per channel chunk; see _conv2d_depthwise.
_DW_BLOCK, _DW_CHUNK_BYTES = 32, 1 << 18


def _band_blocks(out_w, kw):
    """Block width bw, block count nb, and the plane columns that the nb blocks read."""
    bw = min(out_w, _DW_BLOCK)
    nb = -(-out_w // bw)
    return bw, nb, nb * bw - 1 + kw


def _band_diagonals(band, kw):
    """View (C, kh, kw, bw) of a (C, kh·span, bw) band: (c, u, v, j) is ``band[c, u·span + j + v, j]``."""
    C, rows, bw = band.shape
    span = bw - 1 + kw
    t0, t1, t2 = band.strides
    return np.ndarray((C, rows // span, kw, bw), band.dtype, buffer=band, strides=(t0, span * t1, t1, t1 + t2))


def _depthwise_band(w, bw):
    """The band (C, kh·span, bw) of the (C, kh, kw) kernels ``w``, written through its diagonals."""
    band = np.zeros((w.shape[0], w.shape[1] * (bw - 1 + w.shape[2]), bw), dtype=w.dtype)
    _band_diagonals(band, w.shape[2])[...] = w[..., None]
    return band


def _band_chunks(x, kernel, padding, out_hw):
    """Yield ``(c0, X)``: X (n, B·Ho·nb, kh·span) is the row-only im2col of channels c0 .. c0 + n − 1 of ``x``.

    Each chunk of channels is zero-padded by ``padding`` (and widened for the
    blocks) in one plane that every chunk reuses, so no whole padded copy of
    ``x`` is made.
    """
    B, C, H, W = x.shape
    (kh, kw), (ph, pw), (Ho, Wo) = kernel, padding, out_hw
    bw, nb, cols = _band_blocks(Wo, kw)
    span = bw - 1 + kw
    n = min(C, max(1, _DW_CHUNK_BYTES // (B * Ho * nb * kh * span * x.itemsize)))
    plane = np.zeros((n, B, H + 2 * ph, max(W + 2 * pw, cols)), dtype=x.dtype)
    p0, p1, p2, p3 = plane.strides
    rows = np.ndarray((n, B, Ho, nb, kh, span), x.dtype, buffer=plane, strides=(p0, p1, p2, bw * p3, p2, p3))
    rows.flags.writeable = False
    buf = np.empty(rows.shape, dtype=x.dtype)
    for c0 in range(0, C, n):
        m = min(n, C - c0)
        plane[:m, :, ph : ph + H, pw : pw + W] = x[:, c0 : c0 + m].transpose(1, 0, 2, 3)
        np.copyto(buf[:m], rows[:m])
        yield c0, buf[:m].reshape(m, B * Ho * nb, kh * span)


def _banded_conv(x, w, padding, out):
    """Fill ``out`` (B, C, Ho, Wo) with the depthwise correlation of ``x`` zero-padded by ``padding`` and ``w`` (C, kh, kw); return it."""
    B, C, Ho, Wo = out.shape
    for c0, xc in _band_chunks(x, w.shape[1:], padding, (Ho, Wo)):
        y = np.matmul(xc, _depthwise_band(w[c0 : c0 + len(xc)], min(Wo, _DW_BLOCK)))
        out[:, c0 : c0 + len(xc)] = y.reshape(len(xc), B, Ho, -1)[..., :Wo].transpose(1, 0, 2, 3)
    return out


def _conv2d_depthwise(x: Tensor, weight: Tensor, bias: Tensor | None, padding, out_hw) -> Tensor:
    """conv2d for groups == Cin == Cout at stride 1 with padding below the kernel: banded GEMMs.

    Along an output row a depthwise conv is a product with a banded
    (Toeplitz) matrix of the channel's kernel rows. The output columns are
    cut into nb blocks of bw = min(W', 32) that share one band T (kh·span,
    bw), ``T[u·span + j + v, j] = w[u, v]``, span = bw − 1 + kw. Per chunk
    of channels (about 256 KiB of X), ``_band_chunks`` zero-pads the chunk
    into one reused plane, widened with zeros for the last block, and copies
    the kh padded rows each output block reads into a row-only im2col X
    (n, B·H'·nb, kh·span); the forward is one batched ``X @ T`` written
    straight into the output. No whole padded plane is built or kept. The
    weight adjoint rebuilds X chunk by chunk from the input and sums
    M = Xᵀ·g along the band's diagonals. The input adjoint is the forward
    with the kernel flipped, run over g zero-padded by kh − 1 − ph rows and
    kw − 1 − pw columns, which the padding rule keeps non-negative. The
    GEMMs round differently from a per-tap accumulation. An input that does
    not require a gradient gets ``None``.
    """
    (ph, pw), (Ho, Wo) = padding, out_hw
    B, C, H, W = x.shape
    kh, kw = weight.shape[2:]
    wt = weight.data[:, 0]
    bw, nb, _ = _band_blocks(Wo, kw)
    out = _banded_conv(x.data, wt, padding, np.empty((B, C, Ho, Wo), dtype=x.dtype))

    def backward(g):
        gw = np.empty((C, kh, kw), dtype=x.dtype)
        for c0, xc in _band_chunks(x.data, (kh, kw), padding, (Ho, Wo)):
            gb = np.zeros((len(xc), B, Ho, nb * bw), dtype=g.dtype)
            gb[..., :Wo] = g[:, c0 : c0 + len(xc)].transpose(1, 0, 2, 3)
            diag = _band_diagonals(np.matmul(xc.swapaxes(1, 2), gb.reshape(len(xc), -1, bw)), kw)
            diag.flags.writeable = False
            gw[c0 : c0 + len(xc)] = diag.sum(axis=-1)
        del xc, gb, diag  # the last chunk's buffers, before the gather
        gx = None
        if x.requires_grad:
            gx = _banded_conv(g, wt[:, ::-1, ::-1], (kh - 1 - ph, kw - 1 - pw), np.empty_like(x.data))
        return gx, gw.reshape(weight.shape)

    return _conv_result(x, weight, bias, out, backward)


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
           stats=None, relu: bool = False) -> tuple:
    """Normalize a [B,C,H,W] map, then scale by ``gamma`` and shift by ``beta`` (each (C,)).

    The statistics come from one of three sources:

    * by default, per channel over (B, H, W): batch norm in training;
    * ``groups=G``: per sample over each of G runs of C/G consecutive
      channels: group norm;
    * ``stats=(mean, var)``: given per-channel arrays of shape (C,): batch
      norm in eval mode.

    Every source computes ``(x - mean) / sqrt(var + eps) * gamma + beta``
    in place in one buffer, with the same operations in the same order, so
    statistics given back equal to a batch's reproduce that batch's output
    bit for bit. ``relu=True`` then clamps the output at 0 in place, and
    the adjoint is masked with ``out > 0``: the same values and mask as a
    separate ``relu``, in one tape node.

    The normalized map x̂ is recomputed from x in the adjoint, not kept.
    With inv = 1/sqrt(var + eps) and n the elements of each statistic, the
    per-channel adjoints run on a (B, C, H·W) view: g_beta sums g along
    H·W and then over B, g_gamma is one ``einsum`` of g·x̂, and the adjoint
    of x is ``gamma·inv·(g − g_beta/n − x̂·g_gamma/n)`` (Ioffe & Szegedy,
    2015), or ``g·gamma·inv`` with given statistics. Group norm takes
    ``inv·(ĝ − mean(ĝ) − x̂·mean(ĝ·x̂))`` with ĝ = g·gamma over each group.

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
        y = xs - m
        v = _mean_keepdims(y * y, axes, count)
    else:
        for name, s in zip(("mean", "var"), stats):
            if s.shape != (C,):
                raise ShapeError(f"norm2d: given {name} shape {s.shape} != ({C},)")
            if s.dtype != x.dtype:
                raise ShapeError(f"norm2d: dtype mismatch {x.dtype.name} vs given {name} {s.dtype.name}")
        m, v = (s.reshape(1, C, 1, 1) for s in stats)
        y = xs - m
    std = np.sqrt(v + np.asarray(eps, dtype=x.dtype))
    y /= std
    y = y.reshape(B, C, H, W)
    y *= gamma.data.reshape(1, C, 1, 1)
    y += beta.data.reshape(1, C, 1, 1)
    if relu:
        np.maximum(y, 0, out=y)
    relu_out = y if relu else None  # the adjoint keeps the output only to mask g

    def backward(g):
        if relu_out is not None:
            g = g * (relu_out > 0)
        if groups is not None:
            xhat = (xs - m) / std
            g_gamma = (g * xhat.reshape(B, C, H, W)).sum(axis=(0, 2, 3))
            gx = (g * gamma.data.reshape(1, C, 1, 1)).reshape(xs.shape)
            dot = _mean_keepdims(gx * xhat, axes, count)
            gx -= _mean_keepdims(gx, axes, count)
            gx -= np.multiply(xhat, dot, out=xhat)
            gx *= 1.0 / std
            return gx.reshape(B, C, H, W), g_gamma, g.sum(axis=(0, 2, 3))
        g3 = g.reshape(B, C, H * W)
        xhat = xs.reshape(B, C, H * W) - m.reshape(1, C, 1)
        xhat /= std.reshape(1, C, 1)
        g_beta = g3.sum(axis=2).sum(axis=0)
        g_gamma = np.einsum("bcn,bcn->c", g3, xhat)
        scale = (gamma.data / std.reshape(C))[:, None]
        if stats is None:
            xhat *= (g_gamma / count)[:, None]
            gx = np.subtract(g3, xhat, out=xhat)
            gx -= (g_beta / count)[:, None]
            gx *= scale
        else:
            gx = np.multiply(g3, scale, out=xhat)
        return gx.reshape(B, C, H, W), g_gamma, g_beta

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
