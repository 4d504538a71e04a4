"""Block-level behavior: shuffle maps, attention invariants, gates, SISM,
fusion wiring, normalization freezing, and frozen parameter counts."""

import numpy as np
import pytest

from lightformer import ops
from lightformer import blocks as bl
from lightformer.gradcheck import COMPOSITE_TOL, PRIMITIVE_TOL, check_gradients
from lightformer.params import ParamStore
from lightformer.rng import stream
from lightformer.tensor import ShapeError, Tape, Tensor

from oracles import naive_window_attention


def _rand(shape, seed=0, scale=1.0):
    return Tensor(stream(seed, "test.blocks").standard_normal(shape) * scale,
                  dtype=np.float64)


def _build(ctor, seed=0, dtype=np.float64):
    store = ParamStore()
    mod = ctor(store)
    store.init(seed, dtype=dtype)
    return mod, store


def test_conv2d_takes_numpy_integer_geometry():
    x = _rand((1, 2, 7, 7))
    a, _ = _build(lambda s: bl.Conv2d(s, "c", 2, 3, kernel=3, stride=2, padding=1))
    b, _ = _build(lambda s: bl.Conv2d(s, "c", 2, 3, kernel=np.int64(3), stride=np.int64(2),
                                      padding=np.int64(1)))
    assert b.weight.shape == (3, 2, 3, 3)
    assert b.forward(x).data.tobytes() == a.forward(x).data.tobytes()


class TestChannelShuffle:
    # Closed form: output channel j reads input channel (j % g) * (C/g) + j // g.
    FROZEN = {
        (8, 2): [0, 4, 1, 5, 2, 6, 3, 7],
        (8, 4): [0, 2, 4, 6, 1, 3, 5, 7],
        (12, 3): [0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11],
    }

    @pytest.mark.parametrize("channels,groups", sorted(FROZEN))
    def test_frozen_permutations(self, channels, groups):
        x = Tensor(np.arange(channels, dtype=np.float32).reshape(1, channels, 1, 1))
        out = bl.channel_shuffle(x, groups)
        assert out.data[0, :, 0, 0].astype(int).tolist() == self.FROZEN[(channels, groups)]

    def test_groups_one_is_identity(self):
        x = _rand((2, 6, 3, 3))
        assert bl.channel_shuffle(x, 1) is x

    @pytest.mark.parametrize("channels,groups", [(8, 2), (8, 4), (12, 3), (16, 4)])
    def test_inverse_pair(self, channels, groups):
        """Shuffling with g and then with C/g restores the original order."""
        x = _rand((2, channels, 4, 5))
        back = bl.channel_shuffle(bl.channel_shuffle(x, groups), channels // groups)
        np.testing.assert_array_equal(back.data, x.data)

    def test_spatial_layout_untouched(self):
        x = _rand((1, 4, 6, 7))
        out = bl.channel_shuffle(x, 2)
        np.testing.assert_array_equal(out.data[0, 1], x.data[0, 2])


class TestWindowAttention:
    def test_window_size_one_identity(self):
        """Single-token windows: probs are exactly 1 and, with an identity
        value projection, the attention map is the input itself; the two
        axis pools then each pass it through, so the output is 2x."""
        c = 4
        attn, store = _build(lambda s: bl.WindowAttention(s, "wa", c, window_size=1, heads=1))
        w = np.zeros((3 * c, c, 1, 1))
        w[2 * c:] = np.eye(c).reshape(c, c, 1, 1)  # V block = identity, Q/K = 0
        store["wa.qkv.weight"].data = w
        x = Tensor(stream(3, "wa").standard_normal((2, c, 5, 6)))
        with bl.capture() as maps:
            out = attn.forward(x)
        record = maps["wa.probs"]
        np.testing.assert_array_equal(record["probs"], np.ones_like(record["probs"]))
        np.testing.assert_array_equal(out.data, 2.0 * x.data)

    def test_equal_qk_uniform_average(self):
        """Constant Q and K logits reduce each window to its plain V mean."""
        c = 2
        ws = 4
        attn, store = _build(lambda s: bl.WindowAttention(s, "wa", c, window_size=ws, heads=1))
        w = np.zeros((3 * c, c, 1, 1))
        w[2 * c:] = np.eye(c).reshape(c, c, 1, 1)
        store["wa.qkv.weight"].data = w
        x = Tensor(stream(4, "wa").standard_normal((1, c, ws, ws)))
        with bl.capture() as maps:
            attn.forward(x)
        probs = maps["wa.probs"]["probs"]
        np.testing.assert_allclose(probs, 1.0 / (ws * ws), rtol=0, atol=1e-7)

    def test_rows_sum_to_one(self):
        attn, _ = _build(lambda s: bl.WindowAttention(s, "wa", 8, window_size=4, heads=2))
        x = _rand((2, 8, 8, 12), seed=5)
        with bl.capture() as maps:
            attn.forward(x)
        sums = maps["wa.probs"]["probs"].sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_matches_naive_oracle(self):
        """Batch, window and head bookkeeping against per-window loops on a
        padded input with a 2x3 window grid; the captured probs are laid out
        (batch, row, col, head)-major, as the entropy maps read them."""
        attn, store = _build(lambda s: bl.WindowAttention(s, "wa", 8, window_size=4, heads=2),
                             seed=21)
        x = _rand((2, 8, 7, 9), seed=22)
        with bl.capture() as maps:
            out = attn.forward(x)
        want, want_probs = naive_window_attention(x.data, store["wa.qkv.weight"].data, 4, 2)
        np.testing.assert_allclose(out.data, want, rtol=1e-10, atol=1e-12)
        got_probs = maps["wa.probs"]["probs"].reshape(want_probs.shape)
        np.testing.assert_allclose(got_probs, want_probs, rtol=1e-10, atol=1e-12)

    def test_stays_in_window_layout(self):
        """One QKV partition and two per-window axis means: an unpadded
        forward records 21 tape nodes and no pooling or upsampling op."""
        attn, _ = _build(lambda s: bl.WindowAttention(s, "wa", 8, window_size=4, heads=2))
        with Tape() as tape:
            attn.forward(_rand((2, 8, 8, 12), seed=7))
        recorded = [node.op for node in tape.nodes]
        assert len(recorded) == 21
        assert not [op for op in recorded if op.startswith(("pool2d", "nearest_upsample"))]

    def test_padded_multi_head_adjoint(self):
        """Finite differences through the padding, two heads, the window
        partition and the axis means: 5x7 pads to 6x9 at window size 3."""
        attn, store = _build(lambda s: bl.WindowAttention(s, "wa", 4, window_size=3, heads=2),
                             seed=31)
        x = Tensor(stream(32, "test.blocks").standard_normal((2, 4, 5, 7)), requires_grad=True)
        result = check_gradients(lambda: attn.forward(x), [x, store["wa.qkv.weight"]],
                                 tol=COMPOSITE_TOL, name="window_attention.padded")
        assert result.ok, str(result)

    def test_tile_swap_equivariance(self):
        """Windows are independent: swapping two window-aligned input tiles
        swaps the corresponding output tiles bit for bit."""
        ws = 4
        attn, _ = _build(lambda s: bl.WindowAttention(s, "wa", 4, window_size=ws, heads=2))
        x = stream(6, "wa").standard_normal((1, 4, 8, 8))
        swapped = x.copy()
        swapped[:, :, :ws, :ws], swapped[:, :, ws:, ws:] = (
            x[:, :, ws:, ws:].copy(), x[:, :, :ws, :ws].copy())
        out = attn.forward(Tensor(x)).data
        out_swapped = attn.forward(Tensor(swapped)).data
        np.testing.assert_array_equal(out_swapped[:, :, :ws, :ws], out[:, :, ws:, ws:])
        np.testing.assert_array_equal(out_swapped[:, :, ws:, ws:], out[:, :, :ws, :ws])
        np.testing.assert_array_equal(out_swapped[:, :, :ws, ws:], out[:, :, :ws, ws:])

    def test_padding_matches_explicit(self):
        """A 5x7 input behaves exactly like its zero-padded 8x8 twin cropped back."""
        attn, _ = _build(lambda s: bl.WindowAttention(s, "wa", 4, window_size=4, heads=1))
        x = stream(7, "wa").standard_normal((1, 4, 5, 7))
        padded = np.zeros((1, 4, 8, 8))
        padded[:, :, :5, :7] = x
        out = attn.forward(Tensor(x)).data
        out_padded = attn.forward(Tensor(padded)).data
        np.testing.assert_array_equal(out, out_padded[:, :, :5, :7])


class TestGates:
    def test_normalized_sums_to_one(self):
        gate, store = _build(lambda s: bl.GateWeights(s, "g"))
        for seed in range(20):
            rng = stream(seed, "gates")
            store["g.alpha"].data = rng.standard_normal((1,)) * 5
            store["g.beta"].data = rng.standard_normal((1,)) * 5
            wa, wb = gate.normalized()
            assert abs(wa.item() + wb.item() - 1.0) < 1e-7
            assert (wa.item() > wb.item()) == (store["g.alpha"].data[0] > store["g.beta"].data[0])

    def test_equal_raw_gives_half(self):
        gate, store = _build(lambda s: bl.GateWeights(s, "g"))
        store["g.alpha"].data = np.full((1,), 0.7)
        store["g.beta"].data = np.full((1,), 0.7)
        wa, wb = gate.normalized()
        assert wa.item() == pytest.approx(0.5, abs=1e-9)
        assert wb.item() == pytest.approx(0.5, abs=1e-9)

    def test_saturation(self):
        gate, store = _build(lambda s: bl.GateWeights(s, "g"))
        store["g.alpha"].data = np.full((1,), 20.0)
        store["g.beta"].data = np.zeros((1,))
        wa, _ = gate.normalized()
        assert wa.item() >= 1.0 - 1e-8


class TestECA:
    def test_per_channel_scaling(self):
        """The gate is one scalar per (batch, channel) inside (0, 1)."""
        eca, _ = _build(lambda s: bl.ECA(s, "eca", 6))
        x = stream(8, "eca").standard_normal((2, 6, 4, 4)) + 3.0
        out = eca.forward(Tensor(x)).data
        ratio = out / x
        for b in range(2):
            for c in range(6):
                vals = ratio[b, c]
                assert np.allclose(vals, vals.flat[0], atol=1e-6)
                assert 0.0 < vals.flat[0] < 1.0

    def test_kernel_reach(self):
        """With k=3, changing channel 5's content cannot move channel 0's gate."""
        eca, _ = _build(lambda s: bl.ECA(s, "eca", 8))
        x = stream(9, "eca").standard_normal((1, 8, 3, 3))
        bumped = x.copy()
        bumped[:, 5] += 10.0
        a = eca.forward(Tensor(x)).data
        b = eca.forward(Tensor(bumped)).data
        np.testing.assert_array_equal(a[:, 0], b[:, 0])
        assert not np.allclose(a[:, 4], b[:, 4])


class TestLocalBranch:
    def test_doubles_channels(self):
        cfg = bl.BlockConfig(channels=8, window_size=2, heads=2)
        branch, _ = _build(lambda s: bl.LocalBranch(s, "lb", 4, cfg))
        out = branch.forward(_rand((2, 4, 6, 6)), train=True)
        assert out.shape == (2, 8, 6, 6)

    def test_zero_input_stays_zero(self):
        """At init (zero norm shifts, zero biases) a zero map cannot create signal."""
        cfg = bl.BlockConfig(channels=8, window_size=2, heads=2)
        branch, _ = _build(lambda s: bl.LocalBranch(s, "lb", 4, cfg))
        out = branch.forward(Tensor(np.zeros((1, 4, 5, 5), dtype=np.float64)), train=True)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_gate_path_is_product(self):
        """The second half equals gate_out(gate_in(t)) * t computed by hand."""
        cfg = bl.BlockConfig(channels=4, window_size=2, heads=2, norm="none")
        branch, store = _build(lambda s: bl.LocalBranch(s, "lb", 2, cfg))
        x = _rand((1, 2, 4, 4), seed=11)
        out = branch.forward(x, train=False)
        t = ops.relu(ops.conv2d(x, store["lb.refine.conv.weight"], store["lb.refine.conv.bias"]))
        gate = ops.conv2d(ops.conv2d(t, store["lb.gate_in.weight"], store["lb.gate_in.bias"]),
                          store["lb.gate_out.weight"], store["lb.gate_out.bias"])
        np.testing.assert_allclose(out.data[:, 2:], (gate.data * t.data), rtol=1e-6)


class TestLCRM:
    def test_fusion_wiring(self):
        """With both branches stubbed to pass-throughs, the block reduces to
        eca(shuffle(fuse(concat(xg, xl, xl))))."""
        cfg = bl.BlockConfig(channels=8, window_size=2, heads=2, norm="none")
        lcrm, _ = _build(lambda s: bl.LCRM(s, "m", cfg))
        lcrm.global_branch.forward = lambda x, train=False: x
        lcrm.local_branch.forward = lambda x, train=False: ops.concat([x, x], axis=1)
        x = _rand((1, 8, 4, 4), seed=12)
        out = lcrm.forward(x, train=False)
        xg, xl = ops.split(x, (4, 4), axis=1)
        manual = ops.concat([xg, xl, xl], axis=1)
        manual = lcrm.fuse.forward(manual, train=False)
        manual = bl.channel_shuffle(manual, cfg.shuffle_groups)
        manual = lcrm.eca.forward(manual)
        np.testing.assert_array_equal(out.data, manual.data)

    def test_rejects_wrong_width(self):
        cfg = bl.BlockConfig(channels=8, window_size=2, heads=2)
        lcrm, _ = _build(lambda s: bl.LCRM(s, "m", cfg))
        with pytest.raises(ShapeError, match="8 channels"):
            lcrm.forward(_rand((1, 6, 4, 4)), train=False)

    def test_output_shape_preserved(self):
        cfg = bl.BlockConfig(channels=8, window_size=2, heads=2)
        lcrm, _ = _build(lambda s: bl.LCRM(s, "m", cfg))
        out = lcrm.forward(_rand((2, 8, 6, 6), seed=13), train=True)
        assert out.shape == (2, 8, 6, 6)


class TestCFFM:
    def test_requires_exact_double(self):
        cfg = bl.BlockConfig(channels=4, window_size=2, heads=2)
        cffm, _ = _build(lambda s: bl.CFFM(s, "f", cfg, in_channels=6))
        deep = _rand((1, 4, 4, 4))
        with pytest.raises(ShapeError, match="2x"):
            cffm.forward(deep, _rand((1, 6, 9, 8)), train=False)

    def test_equal_gates_average(self):
        """alpha == beta makes the mix the plain average of the two streams."""
        cfg = bl.BlockConfig(channels=4, window_size=2, heads=2, norm="none")
        cffm, store = _build(lambda s: bl.CFFM(s, "f", cfg, in_channels=4))
        deep = _rand((1, 4, 3, 3), seed=14)
        shallow = _rand((1, 4, 6, 6), seed=15)
        up = ops.upsample_bilinear(deep, (6, 6))
        skip = cffm.proj.forward(shallow, train=False)
        mixed = cffm.forward(deep, shallow, train=False)
        w_deep, _ = cffm.gate.normalized()
        assert w_deep.item() == pytest.approx(0.5)
        # Feed the hand-built average through the tail layers for comparison.
        z = ops.mul(ops.add(up, skip), 0.5)
        z = cffm.fuse_dw_norm.forward(cffm.fuse_dw.forward(z), train=False)
        z = cffm.fuse_pw.forward(z, train=False)
        z = cffm.eca.forward(z)
        np.testing.assert_allclose(mixed.data, z.data, rtol=1e-6)

    def test_output_at_skip_resolution(self):
        cfg = bl.BlockConfig(channels=4, window_size=2, heads=2)
        cffm, _ = _build(lambda s: bl.CFFM(s, "f", cfg, in_channels=10))
        out = cffm.forward(_rand((2, 4, 3, 5)), _rand((2, 10, 6, 10)), train=True)
        assert out.shape == (2, 4, 6, 10)


class TestSISM:
    def test_zero_gates_identity(self):
        """Zero-initialized output gates make the whole module bit-exact identity."""
        cfg = bl.BlockConfig(channels=8, window_size=2, heads=2)
        sism, _ = _build(lambda s: bl.SISM(s, "s", cfg))
        x = _rand((2, 8, 6, 6), seed=16)
        out = sism.forward(x, train=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_straight_line_oracle(self):
        """Full numpy re-derivation of the forward on a (1,4,8,8) input."""
        cfg = bl.BlockConfig(channels=4, window_size=2, heads=2)
        sism, store = _build(lambda s: bl.SISM(s, "s", cfg))
        rng = stream(17, "sism")
        for name, t in store.trainable():
            t.data = rng.standard_normal(t.shape) * 0.3
        x = rng.standard_normal((1, 4, 8, 8))

        def conv(v, name, groups=1, pad=0):
            w, b = store[f"{name}.weight"].data, store[f"{name}.bias"].data
            out_t = ops.conv2d(Tensor(v), Tensor(w), Tensor(b),
                               padding=pad, groups=groups)
            return out_t.data

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        mid = conv(conv(x, "s.mid.dw", groups=4, pad=2), "s.mid.pw")
        lng = conv(conv(mid, "s.long.dw", groups=4, pad=3), "s.long.pw")
        mixed = np.concatenate([conv(mid, "s.mix.mid"), conv(lng, "s.mix.long")], axis=1)
        stats = np.concatenate([mixed.mean(axis=1, keepdims=True),
                                mixed.max(axis=1, keepdims=True)], axis=1)
        gate = sig(conv(stats, "s.stat", pad=3))
        mid = mid * gate[:, :1]
        lng = lng * gate[:, 1:]
        attn = sig(conv(mid + lng, "s.attn"))
        detail = conv(x, "s.detail.dw", groups=4, pad=1)
        expected = (x + detail * store["s.gates.alpha"].data[0]
                    + (x * attn) * store["s.gates.beta"].data[0])
        got = sism.forward(Tensor(x), train=False)
        np.testing.assert_allclose(got.data, expected, rtol=1e-6, atol=1e-8)

    def test_stage_gate_in_unit_interval(self):
        cfg = bl.BlockConfig(channels=4, window_size=2, heads=2)
        sism, store = _build(lambda s: bl.SISM(s, "s", cfg))
        rng = stream(18, "sism")
        for _, t in store.trainable():
            t.data = rng.standard_normal(t.shape) * 0.1
        with bl.capture() as maps:
            sism.forward(Tensor(rng.standard_normal((1, 4, 5, 5))))
        attn = maps["s.attn"]
        assert attn.shape == (1, 1, 5, 5)
        assert attn.min() > 0.0 and attn.max() < 1.0

    def test_untrained_attention_is_half(self):
        """The zero-initialized attention conv gives sigmoid(0) = 0.5 everywhere."""
        cfg = bl.BlockConfig(channels=4, window_size=2, heads=2)
        sism, _ = _build(lambda s: bl.SISM(s, "s", cfg))
        with bl.capture() as maps:
            sism.forward(_rand((1, 4, 4, 4), seed=19))
        np.testing.assert_array_equal(maps["s.attn"], 0.5)


class TestBlockConfig:
    def test_collects_all_violations(self):
        with pytest.raises(ValueError) as err:
            bl.BlockConfig(channels=7, window_size=0, heads=3, shuffle_groups=5,
                           eca_kernel=4, norm="instance", activation="swish")
        message = str(err.value)
        for needle in ("channels", "window_size", "eca_kernel", "norm", "activation"):
            assert needle in message

    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="heads"):
            bl.BlockConfig(channels=12, heads=4)
        bl.BlockConfig(channels=16, heads=4)

    def test_defaults_valid(self):
        cfg = bl.BlockConfig(channels=64)
        assert cfg.window_size == 4 and cfg.heads == 4


class TestNormalization:
    def test_batchnorm_freeze_bit_exact(self):
        """With momentum forced to 1, one training pass writes the batch
        statistics into the buffers and the eval pass reproduces the same
        output bit for bit."""
        bn, _ = _build(lambda s: bl.BatchNorm2d(s, "bn", 4))
        bn.momentum = 1.0
        x = Tensor(stream(20, "bn").standard_normal((3, 4, 5, 5)))
        out_train = bn.forward(x, train=True)
        out_eval = bn.forward(x, train=False)
        np.testing.assert_array_equal(out_train.data, out_eval.data)

    def test_batchnorm_running_stats_move(self):
        bn, store = _build(lambda s: bl.BatchNorm2d(s, "bn", 2))
        x = Tensor(stream(21, "bn").standard_normal((4, 2, 3, 3)) + 5.0)
        bn.forward(x, train=True)
        assert store["bn.running_mean"].data.mean() > 0.4
        bn.forward(x, train=False)
        assert store["bn.running_mean"].data.mean() > 0.4  # eval never updates

    def test_groupnorm_is_stateless(self):
        gn, store = _build(lambda s: bl.GroupNorm2d(s, "gn", 4, groups=2))
        assert store.buffers() == []
        x = Tensor(stream(22, "gn").standard_normal((2, 4, 4, 4)))
        np.testing.assert_array_equal(gn.forward(x, train=True).data,
                                      gn.forward(x, train=False).data)

    def test_groupnorm_normalizes(self):
        gn, _ = _build(lambda s: bl.GroupNorm2d(s, "gn", 6, groups=3))
        x = Tensor(stream(23, "gn").standard_normal((1, 6, 8, 8)) * 4 + 7)
        out = gn.forward(x, train=True).data
        grouped = out.reshape(1, 3, 2 * 64)
        np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-6)
        np.testing.assert_allclose(grouped.std(axis=2), 1.0, atol=1e-3)

    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("kind", ["batch", "group"])
    def test_one_tape_node(self, kind, train):
        norm, _ = _build(lambda s: bl.make_norm(s, "n", 4, kind))
        with Tape() as tape:
            norm.forward(_rand((2, 4, 3, 3), seed=24), train=train)
        assert [n.op for n in tape.nodes] == ["norm2d"]

    def test_batchnorm_eval_adjoint(self):
        """Eval mode normalizes with the running buffers, and x, gamma and
        beta all keep their adjoints."""
        bn, store = _build(lambda s: bl.BatchNorm2d(s, "bn", 3))
        rng = stream(25, "bn.eval")
        store["bn.running_mean"].data = rng.standard_normal(3)
        store["bn.running_var"].data = np.abs(rng.standard_normal(3)) + 0.5
        gamma, beta = store["bn.gamma"], store["bn.beta"]
        gamma.data = rng.standard_normal(3)
        beta.data = rng.standard_normal(3)
        x = Tensor(rng.standard_normal((2, 3, 4, 3)), requires_grad=True)
        result = check_gradients(lambda: bn.forward(x, train=False), [x, gamma, beta],
                                 tol=PRIMITIVE_TOL, name="batchnorm.eval")
        assert result.ok, str(result)

    def test_groupnorm_adjoint_three_groups(self):
        gn, store = _build(lambda s: bl.GroupNorm2d(s, "gn", 6, groups=3))
        rng = stream(26, "gn.fd")
        gamma, beta = store["gn.gamma"], store["gn.beta"]
        gamma.data = rng.standard_normal(6)
        beta.data = rng.standard_normal(6)
        x = Tensor(rng.standard_normal((2, 6, 3, 4)) * 2 + 1, requires_grad=True)
        result = check_gradients(lambda: gn.forward(x, train=True), [x, gamma, beta],
                                 tol=PRIMITIVE_TOL, name="groupnorm.g3")
        assert result.ok, str(result)


class TestFrozenParamCounts:
    """Counts pinned after hand-derivation; a drift here is an architecture change."""

    def test_split_lcrm(self):
        store = ParamStore()
        bl.LCRM(store, "m", bl.BlockConfig(channels=64), channel_split=True)
        assert store.total_params() == 23523

    def test_unsplit_lcrm(self):
        store = ParamStore()
        bl.LCRM(store, "m", bl.BlockConfig(channels=64), channel_split=False)
        assert store.total_params() == 79683

    def test_sism(self):
        store = ParamStore()
        bl.SISM(store, "s", bl.BlockConfig(channels=64))
        assert store.total_params() == 22409

    def test_reduction_band(self):
        assert 0.69 <= 1 - 23523 / 79683 <= 0.73
