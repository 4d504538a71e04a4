"""Checks of the tensor layer against naive references and finite differences."""

import itertools
import tracemalloc

import numpy as np
import pytest

from lightformer import ShapeError, Tape, Tensor, fileio, ops
from lightformer.gradcheck import PRIMITIVE_TOL, check_gradients
from lightformer.rng import stream

from oracles import (batch_major_conv2d, naive_bilinear, naive_conv2d, naive_matmul, naive_nearest,
                     naive_norm2d, naive_pool2d, naive_softmax, tap_conv2d, tap_depthwise_weight_adjoint)


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

    def test_every_export_resolves(self):
        # A star import raises AttributeError for any name in __all__ that
        # does not resolve.
        exec("from lightformer import *", {})

    def test_item_requires_single_element(self):
        assert Tensor([[2.5]], dtype=np.float32).item() == 2.5
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0], dtype=np.float32).item()

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


# groups == cin == cout at stride 1 with padding below the kernel takes
# conv2d's depthwise path; every other geometry, strided or over-padded
# depthwise ones included, takes the im2col path. dtype defaults to float32.
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
    dict(cin=4, cout=4, kernel=(3, 3), padding=3, groups=4),  # depthwise, padding >= kernel: im2col
    dict(cin=4, cout=4, kernel=(3, 2), stride=2, padding=(3, 2), groups=4, dtype=np.float64),
    dict(cin=4, cout=4, kernel=(2, 3), stride=3, padding=(0, 4), groups=4, dtype=np.float64),
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


# The 3x5 stride-2 case keeps its original ids; it runs the im2col path,
# and the two stride-1 cases the depthwise path. Both round differently
# from the per-tap oracle; the largest differences seen over these cases,
# the gather cases and the long-row cases below were 2.8e-7 (float32) and
# 6.1e-16 (float64) of the largest magnitude.
DEPTHWISE_PATH_CASES = [
    pytest.param(dtype, kernel, stride, padding, id=f"{tag}{np.dtype(dtype).name}")
    for tag, kernel, stride, padding in (("", (3, 5), 2, (1, 2)),
                                         ("7x7-stride1-", (7, 7), 1, (3, 3)),
                                         ("3x5-stride1-", (3, 5), 1, (1, 2)))
    for dtype in (np.float32, np.float64)
]
DEPTHWISE_TOL = {np.float32: 1e-5, np.float64: 1e-12}


def assert_close_to_largest(actual, desired, dtype):
    """``actual`` is within DEPTHWISE_TOL[dtype] of the largest magnitude of ``desired``."""
    assert actual.shape == desired.shape and actual.dtype == desired.dtype
    np.testing.assert_allclose(actual, desired, rtol=0, atol=DEPTHWISE_TOL[dtype] * np.abs(desired).max())


@pytest.mark.parametrize("dtype,kernel,stride,padding", DEPTHWISE_PATH_CASES)
def test_conv2d_depthwise_bitwise_matches_grouped_path(dtype, kernel, stride, padding):
    # Cout = 2*Cin in the per-tap grouped oracle. With the odd filters zeroed,
    # its even channels are the depthwise conv. The name is from when the
    # two matched bit for bit; they now agree to DEPTHWISE_TOL.
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
    assert_close_to_largest(y.data, y2[:, 0::2], dtype)
    assert_close_to_largest(grads[x], gx2, dtype)
    assert_close_to_largest(grads[w], gw2[0::2], dtype)


# (kernel, stride, padding): stride 1 and 2, no padding, and padding as
# wide as the kernel or wider. The strided and over-padded cases run the
# im2col path, the others the depthwise gather.
DEPTHWISE_GATHER_CASES = [((3, 3), 1, 1), ((7, 7), 1, 3), ((3, 3), 1, 0), ((3, 3), 1, 3),
                          ((3, 5), 2, (1, 2)), ((3, 3), 2, 0), ((3, 2), (2, 3), (4, 2)), ((1, 3), 1, (0, 1))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,stride,padding", DEPTHWISE_GATHER_CASES)
def test_conv2d_depthwise_input_adjoint_is_tap_oracle_bitwise(dtype, kernel, stride, padding):
    # The gather adds w*0 for every tap that misses g, where the oracle
    # scatters nothing; col2im adds w*0 for the zeros of g. Where the
    # oracle's adjoint is exactly zero, also over the region where g is
    # zero, the gather's must be too, and a channel whose g is all zero gets
    # no negative zeros. The name is from when the two matched bit for bit;
    # they now agree to DEPTHWISE_TOL.
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
    assert_close_to_largest(gx, gx_ref, dtype)
    np.testing.assert_array_equal(gx[gx_ref == 0], 0)
    assert not np.signbit(gx[:, 1]).any()


# Output rows of several 32-column band blocks with a ragged tail:
# (kernel, stride, padding, (H, W)). Their W' are 70, 70, 67 and 66. The
# two strided cases run the im2col path. On the depthwise path, the 7x7
# case at width 66 has blocks of 32, 32 and 2 columns, so its last block
# is narrower than its kernel.
DEPTHWISE_LONG_ROW_CASES = [((7, 7), 1, 3, (6, 70)), ((3, 5), (2, 1), (1, 2), (7, 70)),
                            ((3, 5), 3, (1, 2), (7, 200)), ((7, 7), 1, 3, (6, 66))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,stride,padding,hw", DEPTHWISE_LONG_ROW_CASES)
def test_conv2d_depthwise_long_rows_match_tap_oracles(dtype, kernel, stride, padding, hw):
    rng = stream(22, "conv.dw.long", np.dtype(dtype).name, str((kernel, stride, padding)))
    C = 3
    x = Tensor(rng.standard_normal((2, C, *hw)), dtype=dtype, requires_grad=True)
    w = Tensor(rng.standard_normal((C, 1, *kernel)), dtype=dtype, requires_grad=True)
    with Tape() as tape:
        y = ops.conv2d(x, w, None, stride=stride, padding=padding, groups=C)
    assert y.shape[3] > 2 * ops._DW_BLOCK and y.shape[3] % ops._DW_BLOCK
    g = rng.standard_normal(y.shape).astype(dtype)
    gx, gw = tape.nodes[-1].backward(g)
    y_ref, gx_ref, _, _ = tap_conv2d(x.data, w.data, None, g, stride=stride, padding=padding, groups=C)
    assert_close_to_largest(y.data, y_ref, dtype)
    assert_close_to_largest(gx, gx_ref, dtype)
    assert_close_to_largest(gw, tap_depthwise_weight_adjoint(x.data, g, kernel, stride, padding), dtype)


@pytest.mark.parametrize("kernel,stride,padding,hw", DEPTHWISE_LONG_ROW_CASES)
def test_conv2d_depthwise_long_rows_match_finite_differences(kernel, stride, padding, hw):
    rng = stream(23, "conv.dw.long.fd", str((kernel, stride, padding)))
    x = Tensor(rng.standard_normal((1, 2, *hw)), dtype=np.float64, requires_grad=True)
    w = Tensor(rng.standard_normal((2, 1, *kernel)), dtype=np.float64, requires_grad=True)
    b = Tensor(rng.standard_normal((2,)), dtype=np.float64, requires_grad=True)
    result = check_gradients(lambda: ops.conv2d(x, w, b, stride=stride, padding=padding, groups=2),
                             [x, w, b], tol=PRIMITIVE_TOL, name="conv2d.depthwise.long")
    assert result.ok, str(result)


# (kernel, bw): a kernel narrower than the block and one wider.
@pytest.mark.parametrize("kernel,bw", [((3, 5), 4), ((3, 7), 3)])
def test_depthwise_band_matches_loop_toeplitz(kernel, bw):
    rng = stream(24, "conv.dw.band", str((kernel, bw, 1)))
    kh, kw = kernel
    w = rng.standard_normal((3, kh, kw)).astype(np.float32)
    span = bw - 1 + kw
    ref = np.zeros((3, kh * span, bw), dtype=np.float32)
    for c in range(3):
        for u in range(kh):
            for v in range(kw):
                for j in range(bw):
                    ref[c, u * span + j + v, j] = w[c, u, v]
    band = ops._depthwise_band(w, bw)
    assert band.dtype == w.dtype
    np.testing.assert_array_equal(band, ref)


# (kernel, stride, padding, banded): "same" padding at stride 1 runs the
# banded kernel; a stride above 1, or padding as wide as the kernel on
# either axis, runs im2col.
DEPTHWISE_ROUTES = [((3, 3), 1, 1, True), ((7, 7), 1, 3, True), ((1, 3), 1, (0, 1), True),
                    ((3, 3), 2, 1, False), ((5, 5), (1, 2), 2, False),
                    ((3, 3), 1, 3, False), ((3, 5), 1, (1, 5), False)]


@pytest.mark.parametrize("kernel,stride,padding,banded", DEPTHWISE_ROUTES)
def test_conv2d_routes_only_stride1_narrow_padding_to_depthwise(monkeypatch, kernel, stride, padding, banded):
    calls, depthwise = [], ops._conv2d_depthwise

    def counted(*args):
        calls.append(args)
        return depthwise(*args)

    monkeypatch.setattr(ops, "_conv2d_depthwise", counted)
    rng = stream(25, "conv.dw.route", str((kernel, stride, padding)))
    C = 4
    x = Tensor(rng.standard_normal((2, C, 9, 10)), dtype=np.float64)
    w = Tensor(rng.standard_normal((C, 1, *kernel)), dtype=np.float64)
    y = ops.conv2d(x, w, None, stride=stride, padding=padding, groups=C)
    assert len(calls) == int(banded)
    np.testing.assert_allclose(y.data, naive_conv2d(x.data, w.data, None, stride, padding, C), rtol=1e-12, atol=1e-12)


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
    # The column buffer of an unpadded stride-1 1x1 conv is x.data itself.
    # After the backward, x.data is byte-identical and still writeable, and
    # gx is the plain transposed product.
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


@pytest.mark.parametrize("kernel", [(3, 3), (3, 1)])
def test_conv2d_full_window_column_alias_is_read_only(kernel):
    # With one sample, a kernel as tall as its unpadded input and as wide or
    # one column wide makes the folded window view contiguous, the layout of
    # x.data itself. The column buffer is still a copy, so the adjoint's
    # column gradient, written into that buffer, leaves x.data intact.
    rng = stream(19, "conv.alias.full", str(kernel))
    x = Tensor(rng.standard_normal((1, 2, 3, 3)), dtype=np.float64, requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2, *kernel)), dtype=np.float64, requires_grad=True)
    before = x.data.tobytes()
    with Tape() as tape:
        y = ops.conv2d(x, w)
    g = rng.standard_normal(y.shape)
    gx, gw = tape.nodes[-1].backward(g)
    assert x.data.tobytes() == before and x.data.flags.writeable
    _, gx_ref, gw_ref, _ = batch_major_conv2d(x.data, w.data, None, g)
    np.testing.assert_allclose(gx, gx_ref, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(gw, gw_ref, rtol=1e-13, atol=1e-13)


# Dense and grouped geometries for the folded lowering: stride 2 with
# asymmetric padding, a 1x3 kernel, a plain padded 3x3, and a padded 1x1
# (its column buffer is a copy, so it is folded too).
DENSE_FOLD_CASES = [((3, 3), 2, (1, 2)), ((1, 3), 1, (0, 1)), ((3, 3), 1, 1), ((1, 1), 1, (1, 0))]
# At B > 1 the GEMMs run over other matrix shapes and may round otherwise;
# the largest differences seen were below 3e-7 (float32) and 5e-16
# (float64) of the largest magnitude.
FOLD_TOL = {np.float32: 2e-6, np.float64: 1e-14}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("groups", [1, 2])
@pytest.mark.parametrize("kernel,stride,padding", DENSE_FOLD_CASES)
def test_conv2d_dense_matches_batch_major_oracle(dtype, batch, groups, kernel, stride, padding):
    # One sample runs the same GEMMs as the batch-major lowering, so every
    # byte agrees; over a batch, y, gx and gw agree to FOLD_TOL.
    rng = stream(20, "conv.fold", np.dtype(dtype).name, str((batch, groups, kernel, stride, padding)))
    x = Tensor(rng.standard_normal((batch, 4, 9, 10)), dtype=dtype, requires_grad=True)
    w = Tensor(rng.standard_normal((6, 4 // groups, *kernel)), dtype=dtype, requires_grad=True)
    b = Tensor(rng.standard_normal(6), dtype=dtype, requires_grad=True)
    with Tape() as tape:
        y = ops.conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
    g = rng.standard_normal(y.shape).astype(dtype)
    gx, gw, gb = tape.nodes[-1].backward(g)
    refs = batch_major_conv2d(x.data, w.data, b.data, g, stride, padding, groups)
    for got, ref in zip((y.data, gx, gw, gb), refs):
        assert got.shape == ref.shape and got.dtype == ref.dtype
        if batch == 1:
            assert got.tobytes() == ref.tobytes()
        else:
            np.testing.assert_allclose(got, ref, rtol=0, atol=FOLD_TOL[dtype] * np.abs(ref).max())


def _geometry_args(geometry):
    """``(kernel, stride, padding)`` of a CONV_GEOMETRIES entry, each as a pair."""
    return geometry["kernel"], ops._pair(geometry.get("stride", 1)), ops._pair(geometry.get("padding", 0))


def _is_im2col(geometry):
    """Whether ``conv2d`` lowers this CONV_GEOMETRIES entry to im2col: neither the depthwise nor the 1x1 path."""
    (kh, kw), (sh, sw), (ph, pw) = _geometry_args(geometry)
    channels = geometry.get("groups", 1), geometry["cin"], geometry["cout"]
    depthwise = channels[0] == channels[1] == channels[2] and sh == sw == 1 and ph < kh and pw < kw
    return not depthwise and not (kh == kw == sh == sw == 1 and not (ph or pw))


IM2COL_GEOMETRIES = [g for g in CONV_GEOMETRIES if _is_im2col(g)]


def _counted_gemms(monkeypatch):
    """Count ``np.matmul`` calls from here on; returns the list the calls append to."""
    calls, matmul = [], np.matmul

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    return calls


@pytest.mark.parametrize("geometry", IM2COL_GEOMETRIES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("requires_grad", [False, True])
def test_conv2d_untaped_blocks_match_one_block(monkeypatch, geometry, dtype, rows, batch, requires_grad):
    # With no tape nothing keeps the column buffer, so at a budget of `rows`
    # output rows the forward runs one GEMM per block of at most that many.
    # One sample's block is, byte for byte, the one-block GEMM of the input
    # rows it reads. Against the one-block conv of the whole input, GEMMs
    # over so few columns may round otherwise: the largest differences seen
    # were 3.4e-7 (float32) and 5.2e-16 (float64) of the largest magnitude.
    (kh, kw), (sh, sw), (ph, pw) = _geometry_args(geometry)
    rng = stream(26, "conv.blocks", str(sorted(geometry.items())), np.dtype(dtype).name, str(requires_grad))
    x, w, b, g = _conv_case(rng, geometry, True, dtype=dtype, requires_grad=requires_grad)
    x = Tensor(x.data[:batch], requires_grad=requires_grad)
    whole = ops.conv2d(x, w, b, **g)
    Cin = x.shape[1]
    Ho, Wo = whole.shape[2:]
    monkeypatch.setattr(ops, "_IM2COL_BYTES", rows * Cin * kh * kw * batch * Wo * x.data.itemsize)
    gemms = _counted_gemms(monkeypatch)
    blocked = ops.conv2d(x, w, b, **g)
    monkeypatch.undo()
    assert Ho >= 2 and len(gemms) == -(-Ho // rows)  # so one row per block is at least two blocks
    assert blocked.requires_grad == requires_grad and blocked.data.flags.c_contiguous
    np.testing.assert_allclose(blocked.data, whole.data, rtol=0, atol=FOLD_TOL[dtype] * np.abs(whole.data).max())
    if batch == 1:
        xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        i0 = 0
        for cols in gemms:
            n = cols[-1] // Wo
            rows_in = np.ascontiguousarray(xp[:, :, i0 * sh : (i0 + n - 1) * sh + kh])
            ref = batch_major_conv2d(rows_in, w.data, b.data, np.zeros((1, w.shape[0], n, Wo), dtype),
                                     (sh, sw), 0, g.get("groups", 1))[0]
            assert blocked.data[:, :, i0 : i0 + n].tobytes() == ref.tobytes()
            i0 += n
        assert i0 == Ho


@pytest.mark.parametrize("geometry", IM2COL_GEOMETRIES)
@pytest.mark.parametrize("grad_input", ["x", "w"])
def test_conv2d_taped_lowering_is_one_block(monkeypatch, geometry, grad_input):
    # A recorded conv keeps its column buffer for the adjoint, so however
    # small the budget it runs one copy and one GEMM, records one node, and
    # its output and adjoints are those of the default budget.
    rng = stream(27, "conv.taped", str(sorted(geometry.items())), grad_input)
    x, w, b, g = _conv_case(rng, geometry, True, dtype=np.float64)
    (x if grad_input == "x" else w).requires_grad = True
    direction = None
    results = []
    for budget in (ops._IM2COL_BYTES, 1):
        monkeypatch.setattr(ops, "_IM2COL_BYTES", budget)
        gemms = _counted_gemms(monkeypatch)
        with Tape() as tape:
            y = ops.conv2d(x, w, b, **g)
        assert len(gemms) == 1 and [n.op for n in tape.nodes] == ["conv2d"]
        monkeypatch.undo()
        direction = rng.standard_normal(y.shape) if direction is None else direction
        results.append([y.data] + [a for a in tape.nodes[0].backward(direction) if a is not None])
    assert [a.tobytes() for a in results[0]] == [a.tobytes() for a in results[1]]


@pytest.mark.parametrize("padding", [(1, 1), (2, 0), (0, 3)])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [3, 7])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("budget", [1, 1 << 30])
def test_conv2d_block_padding_matches_padded_input(monkeypatch, padding, stride, kernel, batch, budget):
    # Each block pads only the input rows it reads, in one reused slab. Its
    # column buffer holds what a block of the whole zero-padded input would,
    # so the conv is, byte for byte, the unpadded conv of that padded input
    # under the same blocks. At a budget of 1 every block is one output row,
    # so the first and last blocks read padding rows, and later blocks reuse
    # rows an earlier one filled.
    rng = stream(30, "conv.block.padding", str((padding, stride, kernel, batch)))
    x = Tensor(rng.standard_normal((batch, 3, 12, 11)), dtype=np.float32)
    w = Tensor(rng.standard_normal((4, 3, kernel, kernel)), dtype=np.float32)
    b = Tensor(rng.standard_normal(4), dtype=np.float32)
    (ph, pw) = padding
    xp = Tensor(np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))))
    monkeypatch.setattr(ops, "_IM2COL_BYTES", budget)
    gemms = _counted_gemms(monkeypatch)
    y = ops.conv2d(x, w, b, stride=stride, padding=padding)
    blocks = len(gemms)
    ref = ops.conv2d(xp, w, b, stride=stride)
    assert len(gemms) == 2 * blocks and blocks == (y.shape[2] if budget == 1 else 1)
    assert y.data.tobytes() == ref.data.tobytes()


def test_conv2d_dense_forward_memory(monkeypatch):
    # Untaped, a dense conv lowers im2col in blocks of at most _IM2COL_BYTES
    # and pads only the input rows a block reads, so the peak is the output,
    # one block and one block's padded slab, where one column buffer would
    # hold 9/4 copies of the input (56.6 MB) and a whole padded copy of the
    # input would add 25.4 MB. This is stage 1's stride-2 conv on a 1024²
    # tile: blocks of 9 output rows, whose slab holds 19 padded input rows.
    # Its blocks round as the one-block GEMM does.
    rng = stream(28, "conv.dense.memory")
    x = Tensor(rng.standard_normal((1, 24, 512, 512)), dtype=np.float32)
    w = Tensor(rng.standard_normal((24, 24, 3, 3)), dtype=np.float32)
    slab_bytes = 24 * 19 * 514 * 4
    tracemalloc.start()
    try:
        y = ops.conv2d(x, w, None, stride=2, padding=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < y.data.nbytes + ops._IM2COL_BYTES + slab_bytes + 2**18
    monkeypatch.setattr(ops, "_IM2COL_BYTES", 1 << 30)
    assert y.data.tobytes() == ops.conv2d(x, w, None, stride=2, padding=1).data.tobytes()


def test_conv2d_dense_weight_adjoint_memory():
    # The weight gradient of the folded lowering is one GEMM over B*H'*W'
    # columns. Summing per-sample products over the batch would first build a
    # (B, groups, Cout/groups, K) temporary: 10.6 MB for this conv, whose
    # gradient is 1.3 MB.
    B, C, H, W = 8, 192, 2, 2
    x = Tensor(np.ones((B, C, H, W), dtype=np.float32), requires_grad=True)
    w = Tensor(np.ones((C, C, 3, 3), dtype=np.float32), requires_grad=True)
    g = np.ones((B, C, H, W), dtype=np.float32)
    col_bytes = 9 * x.data.nbytes
    with Tape() as tape:
        ops.conv2d(x, w, None, padding=1)
    tracemalloc.start()
    try:
        tape.nodes[-1].backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < col_bytes + g.nbytes + w.data.nbytes + 2**18


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
    # Untaped, the depthwise path holds the output and one chunk's padded
    # plane, row buffer and products, where a column buffer would hold kh*kw
    # copies of the input.
    x = Tensor(np.ones((1, 16, 128, 128), dtype=np.float32))
    w = Tensor(np.ones((16, 1, 7, 7), dtype=np.float32))
    tracemalloc.start()
    try:
        ops.conv2d(x, w, None, padding=3, groups=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * x.data.nbytes


@pytest.mark.parametrize("kernel", [3, 7])
def test_conv2d_depthwise_untaped_memory(kernel):
    # Untaped, the depthwise path pads one chunk of channels at a time into a
    # reused plane, so beyond the output it holds one chunk's padded plane,
    # its row buffer X and at most two chunks' GEMM products (256 KiB each
    # here, the last one and the next). At 1x32x256² every chunk is one
    # channel; a whole padded plane would add about 8.5 MiB. The input is
    # made before tracing starts.
    x = Tensor(np.ones((1, 32, 256, 256), dtype=np.float32))
    w = Tensor(np.ones((32, 1, kernel, kernel), dtype=np.float32))
    p = kernel // 2
    _, nb, cols = ops._band_blocks(256, kernel)
    plane_bytes = (256 + 2 * p) * cols * 4
    row_bytes = 256 * nb * kernel * (ops._DW_BLOCK - 1 + kernel) * 4
    assert row_bytes > ops._DW_CHUNK_BYTES  # so a chunk is one channel
    tracemalloc.start()
    try:
        y = ops.conv2d(x, w, None, padding=p, groups=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < y.data.nbytes + plane_bytes + row_bytes + 2**20


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,padding", [((3, 3), (1, 1)), ((7, 7), (3, 3)), ((3, 5), (0, 2)), ((1, 3), (0, 1))])
@pytest.mark.parametrize("channels", [1, 2])
def test_conv2d_depthwise_chunks_match_one_chunk(monkeypatch, dtype, kernel, padding, channels):
    # Each chunk of channels is padded on its own, so the forward and both
    # adjoints are, byte for byte, those of one chunk over all channels. The
    # budget makes the forward's chunks one channel each, or two with a
    # ragged last one. Both agree with naive_conv2d and the tap oracles to
    # DEPTHWISE_TOL.
    rng = stream(31, "conv.dw.chunks", np.dtype(dtype).name, str((kernel, padding)))
    C = 5
    x = Tensor(rng.standard_normal((2, C, 9, 10)), dtype=dtype, requires_grad=True)
    w = Tensor(rng.standard_normal((C, 1, *kernel)), dtype=dtype, requires_grad=True)
    b = Tensor(rng.standard_normal(C), dtype=dtype, requires_grad=True)
    Ho = 9 + 2 * padding[0] - kernel[0] + 1
    bw, nb, _ = ops._band_blocks(10 + 2 * padding[1] - kernel[1] + 1, kernel[1])
    row_bytes = 2 * Ho * nb * kernel[0] * (bw - 1 + kernel[1]) * x.data.itemsize  # one channel's X
    g = None
    results = []
    for budget in (1 << 30, channels * row_bytes):
        monkeypatch.setattr(ops, "_DW_CHUNK_BYTES", budget)
        gemms = _counted_gemms(monkeypatch)
        with Tape() as tape:
            y = ops.conv2d(x, w, b, padding=padding, groups=C)
        g = rng.standard_normal(y.shape).astype(dtype) if g is None else g
        gx, gw, gb = tape.nodes[-1].backward(g)
        monkeypatch.undo()
        results.append((len(gemms), [y.data, gx, gw, gb]))
    (one, whole), (several, chunked) = results
    assert one == 3 and several > one  # a forward, a weight adjoint and an input adjoint GEMM per chunk
    assert [a.tobytes() for a in chunked] == [a.tobytes() for a in whole]
    assert_close_to_largest(chunked[0], naive_conv2d(x.data, w.data, b.data, 1, padding, C).astype(dtype), dtype)
    _, gx_ref, _, _ = tap_conv2d(x.data, w.data, None, g, stride=1, padding=padding, groups=C)
    assert_close_to_largest(chunked[1], gx_ref, dtype)
    assert_close_to_largest(chunked[2], tap_depthwise_weight_adjoint(x.data, g, kernel, 1, padding), dtype)


def test_conv2d_depthwise_adjoint_memory():
    # Taped, a depthwise conv keeps no padded copy of its input: the weight
    # adjoint rebuilds each chunk's rows from the input, and the input
    # adjoint pads g one chunk at a time. So the peak is the output, the
    # input adjoint, one chunk's row buffer X (266 KiB here) with its padded
    # plane, and small per-chunk products; a whole padded plane (613 KiB)
    # would not fit.
    B, C, H, W = 2, 16, 64, 64
    x = Tensor(np.ones((B, C, H, W), dtype=np.float32), requires_grad=True)
    w = Tensor(np.ones((C, 1, 7, 7), dtype=np.float32), requires_grad=True)
    g = np.ones((B, C, H, W), dtype=np.float32)
    tracemalloc.start()
    try:
        with Tape() as tape:
            ops.conv2d(x, w, None, padding=3, groups=C)
        tape.nodes[-1].backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * x.data.nbytes + 2 * 2**18


# Strides 1, 2 and 3, non-square kernels, and padding wider than the kernel.
DEPTHWISE_WEIGHT_CASES = [((3, 5), 1, (1, 2)), ((3, 5), 2, (1, 2)), ((3, 5), 3, (1, 2)), ((3, 3), 2, 4),
                          ((2, 3), 3, (3, 4)), ((3, 2), (2, 3), (4, 2)), ((7, 7), 1, 3), ((1, 3), 1, (0, 1))]
# The banded GEMM sums each tap's products in another order than the
# per-tap einsum; the largest differences seen were below 2e-7 (float32)
# and 5e-16 (float64) of the largest weight gradient.
DEPTHWISE_WEIGHT_TOL = {np.float32: 1e-5, np.float64: 1e-14}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,stride,padding", DEPTHWISE_WEIGHT_CASES)
def test_conv2d_depthwise_weight_adjoint_matches_tap_oracle(dtype, kernel, stride, padding):
    rng = stream(21, "conv.dw.weight", np.dtype(dtype).name, str((kernel, stride, padding)))
    C = 5
    x = Tensor(rng.standard_normal((2, C, 11, 12)), dtype=dtype, requires_grad=True)
    w = Tensor(rng.standard_normal((C, 1, *kernel)), dtype=dtype, requires_grad=True)
    with Tape() as tape:
        y = ops.conv2d(x, w, None, stride=stride, padding=padding, groups=C)
    g = rng.standard_normal(y.shape).astype(dtype)
    _, gw = tape.nodes[-1].backward(g)
    ref = tap_depthwise_weight_adjoint(x.data, g, kernel, stride, padding)
    assert gw.shape == ref.shape and gw.dtype == ref.dtype
    np.testing.assert_allclose(gw, ref, rtol=0, atol=DEPTHWISE_WEIGHT_TOL[dtype] * np.abs(ref).max())


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
    # Negative padding and empty kernels, on the dense and the depthwise path.
    w_dw = Tensor(np.zeros((3, 1, 3, 3), dtype=np.float32))
    for weight, groups in ((Tensor(np.zeros((2, 3, 3, 3), dtype=np.float32)), 1), (w_dw, 3)):
        for padding in (-1, (0, -1)):
            with pytest.raises(ShapeError, match="padding"):
                ops.conv2d(x, weight, padding=padding, groups=groups)
    for shape, groups in (((2, 3, 0, 1), 1), ((2, 3, 1, 0), 1), ((3, 1, 0, 3), 3), ((3, 1, 3, 0), 3)):
        with pytest.raises(ShapeError, match="kernel"):
            ops.conv2d(x, Tensor(np.zeros(shape, dtype=np.float32)), groups=groups)


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
        x = Tensor([-1.0, 0.05, 2.0], dtype=np.float32)
        np.testing.assert_allclose(ops.clamp_min(x, 0.1).data, [0.1, 0.1, 2.0])

    def test_relu_and_sigmoid_values(self):
        x = Tensor([-2.0, 0.0, 3.0], dtype=np.float32)
        np.testing.assert_allclose(ops.relu(x).data, [0.0, 0.0, 3.0])
        np.testing.assert_allclose(ops.sigmoid(x).data,
                                   1.0 / (1.0 + np.exp([2.0, 0.0, -3.0])), rtol=1e-6)

    def test_gelu_fixed_points(self):
        x = Tensor([0.0, 100.0, -100.0], dtype=np.float32)
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


def _composed_channel_stats(parts):
    joined = ops.concat(parts, axis=1)
    return ops.concat([ops.mean(joined, axes=1, keepdims=True), ops.max_reduce(joined, axis=1, keepdims=True)], axis=1)


def _stats_and_adjoints(fn, arrays, g):
    parts = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        y = fn(parts)
        loss = ops.sum_(ops.mul(y, Tensor(g)))
        nodes = [n.op for n in tape.nodes]
    grads = tape.backward(loss)
    return y.data, [grads[p] for p in parts], nodes


class TestChannelStats:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("hw", [(1, 1), (2, 3), (5, 4)])
    @pytest.mark.parametrize("channels", [(3,), (2, 3), (4, 1, 2), (9, 7)])
    @pytest.mark.parametrize("values", ["normal", "ties", "signed_zeros", "nan"])
    def test_matches_composed_bytes(self, dtype, batch, hw, channels, values):
        """Forward and adjoints equal concat -> mean/max_reduce -> concat byte for byte.

        Rounded values tie inside a part and across the boundary between
        parts; signed zeros tie with each other; a NaN in a later part wins
        the max as ``argmax`` has it."""
        rng = stream(26, "channel_stats", np.dtype(dtype).name, str(batch), str(hw), str(channels), values)
        arrays = [(rng.standard_normal((batch, c, *hw)) * 10.0 ** rng.uniform(-3, 3, (batch, c, *hw))).astype(dtype)
                  for c in channels]
        g = rng.standard_normal((batch, 2, *hw)).astype(dtype)
        if values in ("ties", "signed_zeros"):
            arrays = [np.clip(np.round(a), -2, 2) for a in arrays]
        if values == "signed_zeros":
            arrays = [np.where(a > 0, dtype(-0.0), a * 0) for a in arrays]
            g[...] = -0.0  # -0 only where the max term and the mean term are both -0
        if values == "nan":
            arrays[-1][:, -1, 0, 0] = np.nan
        y_ref, g_ref, _ = _stats_and_adjoints(_composed_channel_stats, arrays, g)
        y, grads, nodes = _stats_and_adjoints(ops.channel_stats, arrays, g)
        assert nodes == ["channel_stats", "mul", "sum"]
        assert y.dtype == dtype and y.shape == (batch, 2, *hw)
        assert y.tobytes() == y_ref.tobytes()
        for gx, gx_ref in zip(grads, g_ref, strict=True):
            assert gx.dtype == dtype and gx.tobytes() == gx_ref.tobytes()

    def test_tie_rule_first_part_holding_the_max(self):
        # Pixel 0: 5 ties inside part 0 and across into part 1, so part 0's
        # first 5 takes g_max. Pixel 1: part 1 alone holds the max 4, twice.
        a = np.array([[[[3.0, 1.0]], [[5.0, 2.0]], [[5.0, 0.0]]]])
        b = np.array([[[[5.0, 4.0]], [[1.0, 4.0]]]])
        g = np.array([[[[10.0, 20.0]], [[2.0, 3.0]]]])
        y, (ga, gb), _ = _stats_and_adjoints(ops.channel_stats, [a, b], g)
        np.testing.assert_array_equal(y, [[[[19.0 / 5, 11.0 / 5]], [[5.0, 4.0]]]])
        np.testing.assert_array_equal(ga[0, :, 0], [[2.0, 4.0], [4.0, 4.0], [2.0, 4.0]])
        np.testing.assert_array_equal(gb[0, :, 0], [[2.0, 7.0], [2.0, 4.0]])

    @pytest.mark.parametrize("other, needle", [
        (np.zeros((2, 3, 4)), "part 1 must be rank 4"),
        (np.zeros((2, 3, 4, 5), dtype=np.float32), "dtype mismatch float64 vs float32"),
        (np.zeros((1, 3, 4, 5)), "part 1 batch 1 != 2 of part 0"),
        (np.zeros((2, 3, 3, 5)), "part 1 height 3 != 4 of part 0"),
        (np.zeros((2, 3, 4, 6)), "part 1 width 6 != 5 of part 0"),
    ])
    def test_shape_errors(self, other, needle):
        with pytest.raises(ShapeError, match=f"channel_stats: {needle}"):
            ops.channel_stats([Tensor(np.zeros((2, 2, 4, 5))), Tensor(other)])

    def test_needs_a_part(self):
        with pytest.raises(ShapeError, match="channel_stats: needs at least one part"):
            ops.channel_stats([])


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

    # The toy train step's 12 batch-norm input shapes, then B = 1, H·W = 1 and C = 1.
    PER_CHANNEL_SHAPES = [(8, 16, 2, 2), (8, 16, 4, 4), (8, 16, 8, 8), (8, 24, 16, 16),
                          (8, 24, 32, 32), (8, 32, 2, 2), (8, 32, 4, 4), (8, 32, 8, 8),
                          (8, 32, 16, 16), (8, 48, 8, 8), (8, 96, 4, 4), (8, 192, 2, 2),
                          (1, 16, 8, 8), (8, 16, 1, 1), (8, 1, 8, 8)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", PER_CHANNEL_SHAPES,
                             ids=["x".join(map(str, s)) for s in PER_CHANNEL_SHAPES])
    def test_per_channel_matches_oracle(self, shape, dtype):
        """Batch and given statistics, with and without the fused ReLU, against
        the composed oracle followed by ``np.maximum(·, 0)``.

        The oracle runs in float64 on the op's own rounded inputs. Where its
        pre-activation lies within 1e-3 of 0 the output adjoint is 0, so the
        op's mask and the oracle's cannot disagree there. Tolerance: 64
        float32 epsilons (7.6e-6) or 1e-12 in float64, times the reference's
        scale (at least 1). Over 20 seeds the largest errors were 21 float32
        and 110 float64 epsilons, both in g_gamma at C = 1, whose 512 terms
        the op sums in one ``einsum``.
        """
        bound = 64 * np.finfo(np.float32).eps if dtype == np.float32 else 1e-12
        c = shape[1]
        for mode, relu in itertools.product(("batch", "given"), (False, True)):
            rng = stream(34, "norm2d.per_channel", mode, str(relu), str(shape))

            def draw(shape_, scale=1.0, shift=0.0):
                return (rng.standard_normal(shape_) * scale + shift).astype(dtype).astype(np.float64)

            x, gamma, beta, g = draw(shape, 3.0, 1.5), draw(c), draw(c), draw(shape)
            stats = (draw(c), np.abs(draw(c)) + 0.5) if mode == "given" else None
            pre = naive_norm2d(x, gamma, beta, 1e-5, g, stats=stats)[0]
            if relu:
                g[np.abs(pre) < 1e-3] = 0.0
            ref = list(naive_norm2d(x, gamma, beta, 1e-5, g * (pre > 0) if relu else g, stats=stats))
            if relu:
                ref[0] = np.maximum(ref[0], 0)
            xt, gt, bt = (Tensor(a, dtype=dtype, requires_grad=True) for a in (x, gamma, beta))
            given = None if stats is None else tuple(s.astype(dtype) for s in stats)
            with Tape() as tape:
                y, m, v = ops.norm2d(xt, gt, bt, 1e-5, stats=given, relu=relu)
                loss = ops.sum_(ops.mul(y, Tensor(g, dtype=dtype)))
            assert [n.op for n in tape.nodes] == ["norm2d", "mul", "sum"]
            grads = tape.backward(loss)
            got = (y.data, m, v, grads[xt], grads[gt], grads[bt])
            for name, a, r in zip(("out", "mean", "var", "gx", "g_gamma", "g_beta"), got, ref):
                assert a.dtype == dtype and a.shape == r.shape, name
                np.testing.assert_allclose(a, r, rtol=0, atol=bound * max(1.0, np.abs(r).max()),
                                           err_msg=f"{name} {mode} relu={relu}")

    @pytest.mark.parametrize("mode", ["batch", "given", "group"])
    def test_fused_relu_finite_differences(self, mode):
        """The fused node's adjoints of x, gamma and beta by central
        differences, at a point where every pre-activation lies at least 1e-3
        from the ReLU's kink and both signs occur."""
        rng = stream(35, "norm2d.relu.fd", mode)
        x = Tensor(rng.standard_normal((2, 3, 4, 3)) * 2 + 1, dtype=np.float64, requires_grad=True)
        gamma, beta = (Tensor(rng.standard_normal(3), dtype=np.float64, requires_grad=True)
                       for _ in range(2))
        stats = (rng.standard_normal(3), np.abs(rng.standard_normal(3)) + 0.5) if mode == "given" else None
        groups = 1 if mode == "group" else None  # one group of all three channels
        pre = ops.norm2d(x, gamma, beta, 1e-5, groups=groups, stats=stats)[0].data
        assert np.abs(pre).min() >= 1e-3 and (pre < 0).any() and (pre > 0).any()
        result = check_gradients(lambda: ops.norm2d(x, gamma, beta, 1e-5, groups=groups, stats=stats,
                                                     relu=True)[0],
                                 [x, gamma, beta], tol=PRIMITIVE_TOL, name=f"norm2d.relu.{mode}")
        assert result.ok, str(result)

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
