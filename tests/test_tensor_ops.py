"""Checks of the tensor layer against naive references and finite differences."""

import itertools
import tracemalloc

import numpy as np
import pytest

from lightformer import ShapeError, Tape, Tensor, fileio, ops
from lightformer.gradcheck import PRIMITIVE_TOL, check_gradients
from lightformer.tensor import tensor
from lightformer.rng import stream

from oracles import (naive_bilinear, naive_conv2d, naive_matmul, naive_nearest,
                     naive_norm2d, naive_pool2d, naive_softmax, tap_conv2d)


def randt(rng, shape, dtype=np.float32):
    return Tensor(rng.standard_normal(shape), dtype=dtype)


class TestTensorBasics:
    def test_odd_dtypes_coerce_to_f32(self):
        assert Tensor(np.zeros((2, 2), dtype=np.float16)).dtype == np.float32
        assert Tensor([1, 2, 3]).dtype == np.float32
        assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64

    def test_rank_limit(self, tmp_path):
        # Tensors take any rank; only the file format caps it at 5.
        t = Tensor(np.arange(64, dtype=np.float32).reshape(2, 2, 2, 2, 2, 2))
        assert ops.reshape(t, (4, 16)).shape == (4, 16)
        assert ops.reshape(ops.reshape(t, (64,)), (2,) * 6).shape == (2,) * 6
        with pytest.raises(fileio.FormatError):
            fileio.write_tensor(tmp_path / "r6.lftr", t.data)
        assert not (tmp_path / "r6.lftr").exists()

    def test_module_name_not_shadowed(self):
        import lightformer
        import lightformer.tensor as m

        assert m.Tape is lightformer.Tape

    def test_item_requires_single_element(self):
        assert tensor([[2.5]]).item() == 2.5
        with pytest.raises(ValueError):
            tensor([1.0, 2.0]).item()

    def test_contiguous_storage(self):
        base = np.arange(12, dtype=np.float32).reshape(3, 4)
        t = Tensor(base[:, ::2])
        assert t.data.flags["C_CONTIGUOUS"]

    def test_mixed_dtype_rejected(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        b = Tensor(np.ones((2, 2), dtype=np.float64))
        with pytest.raises(ShapeError, match="dtype"):
            ops.add(a, b)

    def test_scalar_tensor_is_rank_zero(self):
        assert Tensor(2.5).shape == ()
        assert ops.sum_(Tensor(np.ones((3, 3), dtype=np.float32))).shape == ()


class TestBroadcasting:
    def test_singleton_dims_ok(self):
        rng = stream(7, "bcast")
        a = randt(rng, (2, 3, 4, 5))
        b = randt(rng, (1, 3, 1, 1))
        out = ops.add(a, b)
        np.testing.assert_allclose(out.data, a.data + b.data, rtol=1e-6)

    def test_unequal_rank_rejected(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32))
        b = Tensor(np.ones((3,), dtype=np.float32))
        with pytest.raises(ShapeError):
            ops.add(a, b)

    def test_mismatched_dim_rejected(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32))
        b = Tensor(np.ones((2, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            ops.mul(a, b)

    def test_scalar_broadcasts_freely(self):
        a = Tensor(np.full((2, 2, 2), 3.0, dtype=np.float32))
        out = ops.mul(a, 0.5)
        np.testing.assert_allclose(out.data, 1.5)

    def test_python_float_keeps_dtype(self):
        a = Tensor(np.ones((2, 2), dtype=np.float64))
        assert ops.add(a, 1.0).dtype == np.float64


# groups == cin == cout takes conv2d's depthwise path; every other grouping
# takes the im2col path. dtype defaults to float32.
CONV_GEOMETRIES = [
    dict(cin=3, cout=4, kernel=(1, 1)),
    dict(cin=3, cout=4, kernel=(3, 3), padding=1),
    dict(cin=3, cout=4, kernel=(3, 3), stride=2, padding=1),
    dict(cin=4, cout=4, kernel=(3, 3), padding=1, groups=4),
    dict(cin=4, cout=6, kernel=(3, 3), groups=2),
    dict(cin=3, cout=2, kernel=(1, 3), padding=(0, 1)),
    dict(cin=2, cout=3, kernel=(5, 5), padding=2),
    dict(cin=3, cout=2, kernel=(3, 3), stride=(2, 1), padding=(1, 0)),
    dict(cin=4, cout=4, kernel=(3, 3), stride=2, padding=1, groups=4),
    dict(cin=4, cout=4, kernel=(3, 5), padding=(1, 2), groups=4),
    dict(cin=4, cout=4, kernel=(3, 3), stride=2, padding=1, groups=4, dtype=np.float64),
    dict(cin=4, cout=4, kernel=(3, 5), stride=(2, 1), padding=(1, 2), groups=4, dtype=np.float64),
    dict(cin=3, cout=6, kernel=(3, 3), padding=1, groups=3),  # one input channel, two filters each
    dict(cin=3, cout=4, kernel=(1, 1), stride=2),  # a 1x1 whose column buffer is a copy, not the input
    dict(cin=16, cout=4, kernel=(3, 3), stride=2, padding=1),  # K = 144 rows against N = 16 columns
    dict(cin=4, cout=6, kernel=(3, 3), stride=2, padding=1, groups=2),
    dict(cin=3, cout=4, kernel=(3, 3), padding=1, dtype=np.float64),
    dict(cin=4, cout=4, kernel=(3, 3), groups=4),  # depthwise, unpadded
    dict(cin=4, cout=4, kernel=(3, 3), padding=3, groups=4),  # padding >= kernel: the adjoint crops g
    dict(cin=4, cout=4, kernel=(3, 2), stride=2, padding=(3, 2), groups=4, dtype=np.float64),
]


def _conv_case(rng, geometry, use_bias, dtype=None, requires_grad=False):
    g = dict(geometry)
    cin, cout = g.pop("cin"), g.pop("cout")
    kernel = g.pop("kernel")
    own_dtype = g.pop("dtype", np.float32)
    dtype = dtype or own_dtype
    groups = g.get("groups", 1)
    shapes = [(2, cin, 7, 8), (cout, cin // groups, *kernel)] + ([(cout,)] if use_bias else [])
    tensors = [Tensor(rng.standard_normal(s), dtype=dtype, requires_grad=requires_grad) for s in shapes]
    x, w, b = tensors + [None] * (3 - len(tensors))
    return x, w, b, g


@pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
@pytest.mark.parametrize("use_bias", [False, True])
def test_conv2d_matches_naive(geometry, use_bias):
    rng = stream(11, "conv", str(sorted(geometry.items())), str(use_bias))
    x, w, b, g = _conv_case(rng, geometry, use_bias)
    out = ops.conv2d(x, w, b, **g)
    ref = naive_conv2d(x.data.astype(np.float64), w.data.astype(np.float64),
                       None if b is None else b.data.astype(np.float64),
                       g.get("stride", 1), g.get("padding", 0), g.get("groups", 1))
    assert out.shape == ref.shape and out.dtype == x.dtype
    tol = 1e-12 if x.dtype == np.float64 else 2e-5
    np.testing.assert_allclose(out.data, ref, rtol=tol, atol=tol)


@pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
def test_conv2d_float64_matches_naive(geometry):
    rng = stream(11, "conv.f64", str(sorted(geometry.items())))
    x, w, b, g = _conv_case(rng, geometry, True, dtype=np.float64)
    ref = naive_conv2d(x.data, w.data, b.data, g.get("stride", 1), g.get("padding", 0), g.get("groups", 1))
    np.testing.assert_allclose(ops.conv2d(x, w, b, **g).data, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
def test_conv2d_adjoint_dot_product(geometry):
    # conv is bilinear in (x, w): <conv(x, w), g> == <x, gx> == <w, gw>.
    rng = stream(13, "conv.dot", str(sorted(geometry.items())))
    x, w, _, g = _conv_case(rng, geometry, False, dtype=np.float64, requires_grad=True)
    with Tape() as tape:
        y = ops.conv2d(x, w, None, **g)
    direction = rng.standard_normal(y.shape)
    gx, gw = tape.nodes[-1].backward(direction)
    assert gx.shape == x.shape and gw.shape == w.shape
    dot = np.vdot(y.data, direction)
    np.testing.assert_allclose(np.vdot(x.data, gx), dot, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(np.vdot(w.data, gw), dot, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
@pytest.mark.parametrize("use_bias", [False, True])
def test_conv2d_adjoint_matches_finite_differences(geometry, use_bias):
    rng = stream(12, "conv.fd", str(sorted(geometry.items())), str(use_bias))
    x, w, b, g = _conv_case(rng, geometry, use_bias, dtype=np.float64, requires_grad=True)
    wrt = [t for t in (x, w, b) if t is not None]
    result = check_gradients(lambda: ops.conv2d(x, w, b, **g), wrt, tol=PRIMITIVE_TOL, name="conv2d")
    assert result.ok, str(result)


# The 3x5 stride-2 case keeps its original ids; stride 1 reads full rows.
# In the 7x7 case a few weight gradients nearly cancel, so only its weight
# check adds a floor of rtol times the largest weight gradient.
DEPTHWISE_PATH_CASES = [
    pytest.param(dtype, kernel, stride, padding, floor, id=f"{tag}{np.dtype(dtype).name}")
    for tag, kernel, stride, padding, floor in (("", (3, 5), 2, (1, 2), False),
                                                ("7x7-stride1-", (7, 7), 1, (3, 3), True),
                                                ("3x5-stride1-", (3, 5), 1, (1, 2), False))
    for dtype in (np.float32, np.float64)
]


@pytest.mark.parametrize("dtype,kernel,stride,padding,floor", DEPTHWISE_PATH_CASES)
def test_conv2d_depthwise_bitwise_matches_grouped_path(dtype, kernel, stride, padding, floor):
    # Cout = 2*Cin in the per-tap grouped oracle. With the odd filters zeroed,
    # its even channels make the same products and sums as the depthwise path;
    # only the weight adjoint's dot products may round differently.
    rng = stream(14, "conv.paths", np.dtype(dtype).name)
    C = 5
    x = Tensor(rng.standard_normal((2, C, 9, 11)), dtype=dtype, requires_grad=True)
    w = Tensor(rng.standard_normal((C, 1, *kernel)), dtype=dtype, requires_grad=True)
    b = Tensor(rng.standard_normal((C,)), dtype=dtype)
    out_hw = tuple((n + 2 * p - k) // stride + 1 for n, p, k in zip((9, 11), padding, kernel))
    direction = rng.standard_normal((2, C, *out_hw)).astype(dtype)
    w2 = np.zeros((2 * C, 1, *kernel), dtype=dtype)
    b2 = np.zeros(2 * C, dtype=dtype)
    direction2 = np.zeros((2, 2 * C, *out_hw), dtype=dtype)
    w2[0::2], b2[0::2], direction2[:, 0::2] = w.data, b.data, direction
    with Tape() as tape:
        y = ops.conv2d(x, w, b, stride=stride, padding=padding, groups=C)
        loss = ops.sum_(ops.mul(y, Tensor(direction)))
    grads = tape.backward(loss)
    y2, gx2, gw2, _ = tap_conv2d(x.data, w2, b2, direction2, stride=stride, padding=padding, groups=C)
    np.testing.assert_array_equal(y.data, y2[:, 0::2])
    np.testing.assert_array_equal(grads[x], gx2)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    atol = tol * np.abs(gw2).max() if floor else 0
    np.testing.assert_allclose(grads[w], gw2[0::2], rtol=tol, atol=atol)


# (kernel, stride, padding): stride 1 and 2, no padding, and padding as
# wide as the kernel or wider, where the gather crops g instead of padding it.
DEPTHWISE_GATHER_CASES = [((3, 3), 1, 1), ((7, 7), 1, 3), ((3, 3), 1, 0), ((3, 3), 1, 3),
                          ((3, 5), 2, (1, 2)), ((3, 3), 2, 0), ((3, 2), (2, 3), (4, 2)), ((1, 3), 1, (0, 1))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,stride,padding", DEPTHWISE_GATHER_CASES)
def test_conv2d_depthwise_input_adjoint_is_tap_oracle_bitwise(dtype, kernel, stride, padding):
    # The gather adds w*0 for every tap that misses g, where the oracle
    # scatters nothing. With negative weights those products are -0; the
    # bytes must still agree, signed zeros included, also over the region
    # where g is exactly zero.
    rng = stream(16, "conv.gather", np.dtype(dtype).name, str((kernel, stride, padding)))
    C = 6
    x = Tensor(rng.standard_normal((2, C, 9, 10)), dtype=dtype, requires_grad=True)
    w = Tensor(rng.standard_normal((C, 1, *kernel)), dtype=dtype, requires_grad=True)
    w.data[0] = -np.abs(w.data[0])
    with Tape() as tape:
        y = ops.conv2d(x, w, None, stride=stride, padding=padding, groups=C)
    g = rng.standard_normal(y.shape).astype(dtype)
    g[:, :, : y.shape[2] // 2] = 0.0
    g[:, 1] = 0.0
    gx, _ = tape.nodes[-1].backward(g)
    _, gx_ref, _, _ = tap_conv2d(x.data, w.data, None, g, stride=stride, padding=padding, groups=C)
    assert gx.shape == gx_ref.shape and gx.dtype == gx_ref.dtype
    assert gx.tobytes() == gx_ref.tobytes()
    assert not np.signbit(gx[:, 1]).any()


@pytest.mark.parametrize("geometry", [dict(kernel=(3, 3), padding=1, cout=5),
                                      dict(kernel=(1, 1), cout=5),
                                      dict(kernel=(3, 3), padding=1, groups=4, cout=4)])
def test_conv2d_input_without_grad_gets_no_adjoint(geometry):
    # The weight and bias adjoints must not depend on whether the input
    # needs one of its own.
    g = dict(geometry)
    kernel, cout = g.pop("kernel"), g.pop("cout")
    rng = stream(17, "conv.nograd", str(sorted(geometry.items())))
    x_data = rng.standard_normal((3, 4, 6, 7)).astype(np.float32)
    w = Tensor(rng.standard_normal((cout, 4 // g.get("groups", 1), *kernel)), dtype=np.float32, requires_grad=True)
    b = Tensor(rng.standard_normal(cout), dtype=np.float32, requires_grad=True)
    adjoints = []
    for requires_grad in (False, True):
        with Tape() as tape:
            y = ops.conv2d(Tensor(x_data, requires_grad=requires_grad), w, b, **g)
        adjoints.append(tape.nodes[-1].backward(np.cos(np.arange(y.size, dtype=np.float32)).reshape(y.shape)))
    (gx_off, gw_off, gb_off), (gx_on, gw_on, gb_on) = adjoints
    assert gx_off is None and gx_on.shape == x_data.shape
    assert gw_off.tobytes() == gw_on.tobytes() and gb_off.tobytes() == gb_on.tobytes()


def test_conv2d_1x1_adjoint_leaves_input_intact():
    # An unpadded stride-1 1x1 conv's column buffer is x.data itself; the
    # adjoint must not write the column adjoint into it.
    rng = stream(15, "conv.alias")
    x = Tensor(rng.standard_normal((2, 3, 5, 6)), dtype=np.float32, requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 1, 1)), dtype=np.float32, requires_grad=True)
    before = x.data.copy()
    with Tape() as tape:
        loss = ops.sum_(ops.mul(ops.conv2d(x, w), ops.conv2d(x, w)))
    grads = tape.backward(loss)
    np.testing.assert_array_equal(x.data, before)
    assert np.abs(grads[x]).max() > 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("groups", [1, 2])
def test_conv2d_1x1_column_alias_is_read_only(dtype, groups):
    # The window view of an unpadded stride-1 1x1 conv is x.data itself, and
    # only its read-only flag keeps the adjoint from writing the column
    # adjoint over it. After the backward, x.data is byte-identical and
    # still writeable, and gx is the plain transposed product.
    rng = stream(18, "conv.alias.flag", str(groups), np.dtype(dtype).name)
    x = Tensor(rng.standard_normal((2, 4, 5, 6)), dtype=dtype, requires_grad=True)
    w = Tensor(rng.standard_normal((6, 4 // groups, 1, 1)), dtype=dtype, requires_grad=True)
    before = x.data.tobytes()
    with Tape() as tape:
        y = ops.conv2d(x, w, groups=groups)
    g = rng.standard_normal(y.shape).astype(dtype)
    gx, _ = tape.nodes[-1].backward(g)
    assert x.data.tobytes() == before and x.data.flags.writeable
    wg = w.data.reshape(groups, 6 // groups, 4 // groups)
    ref = np.einsum("goc,bgohw->bgchw", wg, g.reshape(2, groups, 6 // groups, 5, 6)).reshape(x.shape)
    np.testing.assert_allclose(gx, ref, rtol=1e-5, atol=1e-5)


def test_conv2d_im2col_memory():
    # Taped, a 3x3 conv holds one column buffer (9x the input) for its
    # adjoint, and the adjoint writes the column adjoint back into it, so the
    # peak is that buffer plus the padded-input adjoint and a few map-sized
    # arrays. A separate column adjoint would add another buffer.
    B, C, H, W = 2, 8, 32, 32
    x = Tensor(np.ones((B, C, H, W), dtype=np.float32), requires_grad=True)
    w = Tensor(np.ones((C, C, 3, 3), dtype=np.float32), requires_grad=True)
    g = np.ones((B, C, H, W), dtype=np.float32)
    col_bytes = 9 * x.data.nbytes
    padded_bytes = B * C * (H + 2) * (W + 2) * 4
    tracemalloc.start()
    try:
        with Tape() as tape:
            ops.conv2d(x, w, None, padding=1)
        tape.nodes[-1].backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < col_bytes + 5 * padded_bytes


def test_conv2d_depthwise_forward_memory():
    # Untaped, the depthwise path holds the padded input, the output and one
    # product buffer, where a column buffer would hold kh*kw copies of the input.
    x = Tensor(np.ones((1, 16, 128, 128), dtype=np.float32))
    w = Tensor(np.ones((16, 1, 7, 7), dtype=np.float32))
    tracemalloc.start()
    try:
        ops.conv2d(x, w, None, padding=3, groups=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * x.data.nbytes


def test_conv2d_depthwise_adjoint_memory():
    # Taped, a depthwise conv holds its padded input for the weight adjoint.
    # The input adjoint's zero-padded g then reuses that dead buffer, so the
    # peak is the padded input, the output, the input adjoint and two
    # channel blocks of about 256 KiB, not another padded plane on top.
    B, C, H, W = 2, 16, 64, 64
    x = Tensor(np.ones((B, C, H, W), dtype=np.float32), requires_grad=True)
    w = Tensor(np.ones((C, 1, 7, 7), dtype=np.float32), requires_grad=True)
    g = np.ones((B, C, H, W), dtype=np.float32)
    padded_bytes = B * C * ((H + 6) * (W + 6) + 6) * 4
    tracemalloc.start()
    try:
        with Tape() as tape:
            ops.conv2d(x, w, None, padding=3, groups=C)
        tape.nodes[-1].backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < padded_bytes + 2 * x.data.nbytes + 2.5 * 2**18


def test_conv2d_shape_errors():
    x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
    w_bad_cin = Tensor(np.zeros((2, 4, 1, 1), dtype=np.float32))
    with pytest.raises(ShapeError, match="channel"):
        ops.conv2d(x, w_bad_cin)
    w_too_big = Tensor(np.zeros((2, 3, 7, 7), dtype=np.float32))
    with pytest.raises(ShapeError):
        ops.conv2d(x, w_too_big)
    w = Tensor(np.zeros((2, 3, 1, 1), dtype=np.float32))
    bias_bad = Tensor(np.zeros((3,), dtype=np.float32))
    with pytest.raises(ShapeError):
        ops.conv2d(x, w, bias_bad)


@pytest.mark.parametrize("kind", ["avg", "max"])
@pytest.mark.parametrize("kernel,stride", [
    ((2, 2), None),
    ((2, 1), None),
    ((1, 3), None),
    ((2, 2), 1),
    ((3, 3), (2, 2)),
])
def test_pool2d_matches_naive(kind, kernel, stride):
    rng = stream(13, "pool", kind, str(kernel), str(stride))
    x = randt(rng, (2, 3, 6, 6))
    out = ops.pool2d(x, kind, kernel, stride=stride)
    ref = naive_pool2d(x.data, kind, kernel, stride)
    np.testing.assert_allclose(out.data, ref, rtol=1e-5, atol=1e-7)


def test_pool2d_rejects_oversized_kernel():
    x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        ops.pool2d(x, "avg", (3, 3))


def test_global_avg_of_onehot_channels():
    # A one-hot spatial map pools to 1/(H*W) per channel.
    x = np.zeros((1, 4, 2, 2), dtype=np.float32)
    x[0, :, 0, 0] = 1.0
    out = ops.pool2d(Tensor(x), "avg", (2, 2))
    np.testing.assert_allclose(out.data, np.full((1, 4, 1, 1), 0.25, np.float32))


class TestMatmul:
    def test_plain(self):
        rng = stream(17, "mm")
        a = randt(rng, (5, 3))
        b = randt(rng, (3, 4))
        np.testing.assert_allclose(ops.matmul(a, b).data, naive_matmul(a.data, b.data),
                                   rtol=1e-5, atol=1e-6)

    def test_batched(self):
        rng = stream(17, "mmb")
        a = randt(rng, (2, 3, 4, 5))
        b = randt(rng, (2, 3, 5, 2))
        np.testing.assert_allclose(ops.matmul(a, b).data, naive_matmul(a.data, b.data),
                                   rtol=1e-5, atol=1e-6)

    def test_batch_dims_must_match(self):
        a = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
        b = Tensor(np.zeros((3, 4, 5), dtype=np.float32))
        with pytest.raises(ShapeError):
            ops.matmul(a, b)

    def test_inner_dim_must_match(self):
        a = Tensor(np.zeros((2, 3), dtype=np.float32))
        b = Tensor(np.zeros((4, 5), dtype=np.float32))
        with pytest.raises(ShapeError):
            ops.matmul(a, b)


class TestSoftmax:
    def test_matches_reference_and_sums_to_one(self):
        rng = stream(19, "sm")
        x = randt(rng, (3, 5, 7))
        out = ops.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data, naive_softmax(x.data, -1), rtol=1e-6)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_stable_for_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0, 1000.0]], dtype=np.float32))
        out = ops.softmax(x, axis=1)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, 1.0 / 3.0, rtol=1e-6)


class TestShapeOps:
    def test_reshape_roundtrip(self):
        rng = stream(23, "rs")
        x = randt(rng, (2, 3, 4))
        back = ops.reshape(ops.reshape(x, (6, 4)), (2, 3, 4))
        np.testing.assert_array_equal(back.data, x.data)

    def test_reshape_size_mismatch(self):
        with pytest.raises(ShapeError):
            ops.reshape(Tensor(np.zeros((2, 3), dtype=np.float32)), (4, 2))

    def test_permute_matches_numpy(self):
        rng = stream(23, "pm")
        x = randt(rng, (2, 3, 4, 5))
        np.testing.assert_array_equal(ops.permute(x, (0, 2, 3, 1)).data,
                                      x.data.transpose(0, 2, 3, 1))

    def test_concat_split_roundtrip(self):
        rng = stream(23, "cs")
        x = randt(rng, (2, 7, 3))
        parts = ops.split(x, (2, 4, 1), axis=1)
        assert [p.shape[1] for p in parts] == [2, 4, 1]
        np.testing.assert_array_equal(ops.concat(list(parts), axis=1).data, x.data)

    def test_split_sizes_must_cover(self):
        x = Tensor(np.zeros((2, 7, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            ops.split(x, (2, 4), axis=1)

    def test_pad_crop_roundtrip(self):
        rng = stream(23, "pc")
        x = randt(rng, (1, 2, 3, 4))
        padded = ops.pad2d(x, (1, 2, 0, 3))
        assert padded.shape == (1, 2, 6, 7)
        assert padded.data[0, 0, 0, 0] == 0.0
        back = ops.crop2d(padded, 1, 0, 3, 4)
        np.testing.assert_array_equal(back.data, x.data)


class TestElementwise:
    def test_clamp_min(self):
        x = tensor([-1.0, 0.05, 2.0])
        np.testing.assert_allclose(ops.clamp_min(x, 0.1).data, [0.1, 0.1, 2.0])

    def test_relu_and_sigmoid_values(self):
        x = tensor([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(ops.relu(x).data, [0.0, 0.0, 3.0])
        np.testing.assert_allclose(ops.sigmoid(x).data,
                                   1.0 / (1.0 + np.exp([2.0, 0.0, -3.0])), rtol=1e-6)

    def test_gelu_fixed_points(self):
        x = tensor([0.0, 100.0, -100.0])
        out = ops.gelu(x).data
        assert out[0] == 0.0
        np.testing.assert_allclose(out[1], 100.0, rtol=1e-6)
        np.testing.assert_allclose(out[2], 0.0, atol=1e-6)

    def test_reduce_channel(self):
        x = Tensor(np.array([[[[1.0, 2.0]], [[3.0, 0.0]]]], dtype=np.float32))
        np.testing.assert_allclose(ops.reduce_channel(x, "mean").data, [[[[2.0, 1.0]]]])
        np.testing.assert_allclose(ops.reduce_channel(x, "max").data, [[[[3.0, 2.0]]]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mean_is_ndarray_mean_bitwise(self, dtype):
        rng = stream(19, "mean", np.dtype(dtype).name)
        for shape in [(5,), (3, 7), (1, 4, 4, 4), (2, 3, 7, 9), (2, 6, 1, 2, 2, 3), (4, 65, 33)]:
            x = Tensor(rng.standard_normal(shape) * 10.0 + 3.0, dtype=dtype)
            subsets = [None] + [axes for r in range(1, x.ndim + 1)
                                for axes in itertools.combinations(range(x.ndim), r)]
            for axes in subsets + [-1] + ([(0, -1)] if x.ndim > 1 else []):
                for keepdims in (False, True):
                    out = ops.mean(x, axes=axes, keepdims=keepdims)
                    ref = np.asarray(x.data.mean(axis=axes, keepdims=keepdims))
                    assert out.data.shape == ref.shape and out.dtype == ref.dtype
                    assert out.data.tobytes() == ref.tobytes(), (shape, axes, keepdims)

    def test_mean_divides_like_ndarray_mean_past_float32_integers(self):
        # 2**24 + 3 is not a float32: a sum divided by a python-int count
        # would round the count to float32 and, for this value, the quotient.
        x = np.broadcast_to(np.float32(0.7), (2 ** 24 + 3,))
        out = ops._mean_keepdims(x, (0,), x.size)
        assert out.tobytes() == x.mean(axis=(0,), keepdims=True).tobytes()

    def test_max_reduce_values(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0], [4.0, 0.0, 4.0]], dtype=np.float32))
        out = ops.max_reduce(x, axis=1)
        np.testing.assert_allclose(out.data, [5.0, 4.0])

    @pytest.mark.parametrize("axis", [0, 1, -1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_max_reduce_is_np_max(self, axis, keepdims):
        x = randt(stream(16, "max", str(axis), str(keepdims)), (3, 5, 4, 6))
        out = ops.max_reduce(x, axis=axis, keepdims=keepdims)
        ref = np.max(x.data, axis=axis, keepdims=keepdims)
        assert out.data.shape == ref.shape and out.dtype == ref.dtype
        assert out.data.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("keepdims", [False, True])
    def test_max_reduce_tie_adjoint_goes_to_first_max(self, keepdims):
        x = Tensor(np.array([[4.0, 0.0, 4.0], [1.0, 7.0, 7.0]]), requires_grad=True)
        with Tape() as tape:
            out = ops.max_reduce(x, axis=1, keepdims=keepdims)
        g = np.array([[2.0], [3.0]], dtype=np.float32)
        (gx,) = tape.nodes[-1].backward(g if keepdims else g[:, 0])
        np.testing.assert_array_equal(out.data.ravel(), [4.0, 7.0])
        np.testing.assert_array_equal(gx, [[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])


# (in_hw, out_hw): the decoder's 2x CFFM, 4x head and 32x aux-head resizes,
# then an uneven ratio, a size-1 axis and an identity.
RESIZE_GEOMETRIES = [
    ((8, 8), (16, 16)),
    ((16, 16), (64, 64)),
    ((2, 2), (64, 64)),
    ((3, 5), (5, 7)),
    ((1, 4), (3, 9)),
    ((4, 6), (4, 6)),
]
RESIZE_IDS = ["2x", "4x", "32x", "uneven", "size1", "same"]


class TestResize:
    def test_bilinear_1d_frozen_values(self):
        # 1x2 -> 1x4 with half-pixel centers: [0, 0.25, 0.75, 1].
        x = Tensor(np.array([[[[0.0, 1.0]]]], dtype=np.float32))
        out = ops.upsample_bilinear(x, (1, 4))
        np.testing.assert_allclose(out.data[0, 0, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-6)

    def test_bilinear_matches_naive(self):
        rng = stream(29, "bl")
        x = randt(rng, (2, 3, 3, 5))
        for out_hw in [(6, 10), (5, 7), (3, 5)]:
            out = ops.upsample_bilinear(x, out_hw)
            np.testing.assert_allclose(out.data, naive_bilinear(x.data, out_hw),
                                       rtol=1e-5, atol=1e-6)

    def test_bilinear_upscale_only(self):
        x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            ops.upsample_bilinear(x, (2, 8))

    @pytest.mark.parametrize("in_hw, out_hw", RESIZE_GEOMETRIES, ids=RESIZE_IDS)
    def test_bilinear_float64_matches_naive(self, in_hw, out_hw):
        x = randt(stream(30, "bl.f64", str(in_hw)), (2, 3, *in_hw), dtype=np.float64)
        out = ops.upsample_bilinear(x, out_hw)
        assert out.shape == (2, 3, *out_hw) and out.dtype == np.float64
        np.testing.assert_allclose(out.data, naive_bilinear(x.data, out_hw), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bilinear_same_size_is_bit_exact(self, dtype):
        x = randt(stream(30, "bl.same"), (2, 3, 5, 7), dtype=dtype)
        np.testing.assert_array_equal(ops.upsample_bilinear(x, (5, 7)).data, x.data)

    @pytest.mark.parametrize("in_hw, out_hw", RESIZE_GEOMETRIES, ids=RESIZE_IDS)
    def test_bilinear_adjoint_dot_product(self, in_hw, out_hw):
        # <resize(x), g> == <x, resize^T(g)> for the tape's adjoint.
        rng = stream(30, "bl.dot", str(in_hw))
        x = Tensor(rng.standard_normal((2, 3, *in_hw)), dtype=np.float64, requires_grad=True)
        g = rng.standard_normal((2, 3, *out_hw))
        with Tape() as tape:
            y = ops.upsample_bilinear(x, out_hw)
        (gx,) = tape.nodes[-1].backward(g)
        assert gx.shape == x.shape
        np.testing.assert_allclose(np.vdot(y.data, g), np.vdot(x.data, gx), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("in_hw, out_hw", RESIZE_GEOMETRIES, ids=RESIZE_IDS)
    def test_bilinear_adjoint_matches_finite_differences(self, in_hw, out_hw):
        x = Tensor(stream(30, "bl.fd", str(in_hw)).standard_normal((1, 2, *in_hw)), dtype=np.float64,
                   requires_grad=True)
        result = check_gradients(lambda: ops.upsample_bilinear(x, out_hw), [x], tol=PRIMITIVE_TOL,
                                 name="upsample_bilinear")
        assert result.ok, str(result)

    def test_bilinear_matrices_are_read_only(self):
        x = randt(stream(30, "bl.ro"), (1, 2, 3, 5))
        before = ops.upsample_bilinear(x, (5, 7)).data
        for n_in, n_out in ((3, 5), (5, 7)):
            a = ops._bilinear_matrix(n_in, n_out, x.dtype)
            with pytest.raises(ValueError):
                a[0, 0] = 7.0
            with pytest.raises(ValueError):
                a.T[0, 0] = 7.0
        np.testing.assert_array_equal(ops.upsample_bilinear(x, (5, 7)).data, before)

    def test_nearest_matches_naive(self):
        rng = stream(29, "nn")
        x = randt(rng, (2, 2, 2, 3))
        out = ops.nearest_upsample(x, (2, 3))
        np.testing.assert_array_equal(out.data, naive_nearest(x.data, (2, 3)))


class TestNorm2d:
    MODES = ("batch", "group", "given")

    @staticmethod
    def _case(mode, dtype):
        """One (3, 6, 5, 7) input, off-centre and off-scale, with its output
        adjoint; ``group`` uses 3 groups of 2 channels."""
        rng = stream(33, "norm2d", mode)
        c = 6
        x = rng.standard_normal((3, c, 5, 7)) * 3 + 1.5
        gamma, beta = rng.standard_normal(c), rng.standard_normal(c)
        g = rng.standard_normal(x.shape)
        stats = (rng.standard_normal(c), np.abs(rng.standard_normal(c)) + 0.5) if mode == "given" else None
        groups = 3 if mode == "group" else None
        ref = naive_norm2d(x, gamma, beta, 1e-5, g, groups=groups, stats=stats)
        xt, gt, bt = (Tensor(a, dtype=dtype, requires_grad=True) for a in (x, gamma, beta))
        given = None if stats is None else tuple(s.astype(dtype) for s in stats)
        with Tape() as tape:
            y, m, v = ops.norm2d(xt, gt, bt, 1e-5, groups=groups, stats=given)
            loss = ops.sum_(ops.mul(y, Tensor(g, dtype=dtype)))
        assert len(tape.nodes) == 3  # norm2d, mul, sum
        grads = tape.backward(loss)
        return (y.data, m, v, grads[xt], grads[gt], grads[bt]), ref

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_composed_oracle_float64(self, mode):
        got, ref = self._case(mode, np.float64)
        for name, a, r in zip(("out", "mean", "var", "gx", "g_gamma", "g_beta"), got, ref):
            assert a.shape == r.shape, name
            np.testing.assert_allclose(a, r, rtol=1e-12, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_composed_oracle_float32(self, mode):
        # 16 float32 epsilons of the reference's scale (at least 1); over 30
        # seeds of this case the largest error was 3.9e-7.
        bound = 16 * np.finfo(np.float32).eps
        got, ref = self._case(mode, np.float32)
        for name, a, r in zip(("out", "mean", "var", "gx", "g_gamma", "g_beta"), got, ref):
            assert a.dtype == np.float32, name
            np.testing.assert_allclose(a, r, rtol=0, atol=bound * max(1.0, np.abs(r).max()), err_msg=name)

    def test_shape_errors(self):
        x = Tensor(np.zeros((2, 4, 3, 3), dtype=np.float32))
        c4 = Tensor(np.ones(4, dtype=np.float32))
        c3 = Tensor(np.ones(3, dtype=np.float32))
        c4_64 = Tensor(np.ones(4), dtype=np.float64)
        stat = np.ones(4, dtype=np.float32)
        bad = [
            ((Tensor(np.zeros((2, 4, 3), dtype=np.float32)), c4, c4), {}, "rank-4"),
            ((x, c3, c4), {}, "gamma shape"),
            ((x, c4, c3), {}, "beta shape"),
            ((x, c4_64, c4), {}, "dtype"),
            ((x, c4, c4), {"groups": 3}, "groups 3 does not divide"),
            ((x, c4, c4), {"groups": 0}, "groups 0 does not divide"),
            ((x, c4, c4), {"stats": (stat[:3], stat)}, "given mean shape"),
            ((x, c4, c4), {"stats": (stat, stat.astype(np.float64))}, "given var"),
            ((x, c4, c4), {"groups": 2, "stats": (stat, stat)}, "groups must be None"),
        ]
        for args, kwargs, needle in bad:
            with pytest.raises(ShapeError, match=needle):
                ops.norm2d(*args, 1e-5, **kwargs)


class TestDunders:
    def test_arithmetic_operators(self):
        rng = stream(31, "dund")
        a = randt(rng, (2, 3))
        b = randt(rng, (2, 3))
        np.testing.assert_allclose((a + b).data, a.data + b.data, rtol=1e-6)
        np.testing.assert_allclose((a - b).data, a.data - b.data, rtol=1e-6)
        np.testing.assert_allclose((a * 2.0).data, a.data * 2.0, rtol=1e-6)
        np.testing.assert_allclose((-a).data, -a.data)
