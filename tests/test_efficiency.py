"""Analytic cost model: agreement with the live parameter store and with
the MACs a forward executes, additivity, scaling behavior, and the frozen
split-vs-full-width comparison."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lightformer import efficiency as eff
from lightformer import network as net
from lightformer import ops
from lightformer.blocks import LCRM, SISM, BlockConfig, LocalBranch
from lightformer.params import ParamStore
from lightformer.rng import stream
from lightformer.tensor import Tensor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TOY = net.DecoderConfig(num_classes=3, encoder_channels=(24, 48, 96, 192),
                        decode_channels=32,
                        block=BlockConfig(channels=32, window_size=4, heads=4))
DEFAULT6 = net.DecoderConfig(num_classes=6)


class TestDualRoute:
    """The cost rows cover every trainable tensor exactly once: their
    parameter total equals the initialized store's, in total and per row."""

    @pytest.mark.parametrize("cfg, frozen", [
        (TOY, 702_565),
        (DEFAULT6, 4_858_585),
    ])
    def test_analytic_matches_store(self, cfg, frozen):
        store = net.build_model(cfg, seed=0).store
        live = sum(t.data.size for _, t in store.trainable())
        assert eff.count_params(cfg) == live == frozen

    def test_agreement_on_odd_configs(self):
        for cfg in (
            net.DecoderConfig(num_classes=2, encoder_channels=(8, 8, 16, 16),
                              decode_channels=8,
                              block=BlockConfig(channels=8, window_size=2, heads=2)),
            net.DecoderConfig(num_classes=19, aux_heads=False),
            net.DecoderConfig(num_classes=7, decode_channels=128,
                              block=BlockConfig(channels=128, norm="group",
                                                eca_kernel=5, sism_kernels=(3, 5, 5, 3))),
        ):
            store = net.build_model(cfg, seed=1).store
            live = sum(t.data.size for _, t in store.trainable())
            assert eff.count_params(cfg) == live

    def test_each_row_matches_its_store_entries(self):
        for cfg in (TOY, DEFAULT6, net.DecoderConfig(num_classes=6, aux_heads=False),
                    net.DecoderConfig(num_classes=6, block=BlockConfig(norm="none"))):
            rows = eff.model_cost(cfg, (64, 64)).rows
            names = [r.name for r in rows]
            assert len(set(names)) == len(names)
            covered = dict.fromkeys(names, 0)
            for entry, t in net.build_model(cfg, seed=0).store.trainable():
                owners = [n for n in names if entry == n or entry.startswith(n + ".")]
                assert len(owners) == 1, (entry, owners)
                covered[owners[0]] += t.size
            assert covered == {r.name: r.params for r in rows}

    def test_params_ignore_resolution_and_batch(self):
        assert eff.model_cost(TOY, (64, 64), 1).params == \
            eff.model_cost(TOY, (256, 192), 8).params

    def test_pricing_allocates_no_parameters(self):
        """Unset store entries are read-only zero-stride placeholders, so
        pricing the width-64 model (4.86 M parameters, 18.5 MiB as float32)
        allocates almost nothing, and a write before ``init`` raises."""
        tracemalloc.start()
        try:
            assert eff.model_cost(DEFAULT6, (64, 64)).params == 4_858_585
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"model_cost peak {peak / 2**20:.1f} MiB"
        store = ParamStore()
        w = store.add("w", (2, 3), ("ones",))
        assert (w.shape, w.size, w.dtype) == ((2, 3), 6, np.float32)
        with pytest.raises(ValueError):
            w.data += 1
        store.init(seed=0)
        w.data += 1
        np.testing.assert_array_equal(w.data, np.full((2, 3), 2.0, dtype=np.float32))


class TestAdditivity:
    def test_report_totals_are_row_sums(self):
        rep = eff.model_cost(TOY, (64, 64), batch=2)
        assert rep.params == sum(r.params for r in rep.rows)
        assert rep.macs == sum(r.macs for r in rep.rows)
        assert rep.ops == sum(r.ops for r in rep.rows)
        assert rep.flops == 2 * rep.macs

    def test_lcrm_equals_its_pieces(self):
        cfg = BlockConfig(channels=64)
        lcrm = LCRM(ParamStore(), "m", cfg)
        whole = eff.block_cost(lcrm, (16, 16), 2)
        parts = eff.CostReport()
        for piece in (lcrm.global_branch, lcrm.local_branch, lcrm.fuse):
            parts.rows += eff.block_cost(piece, (16, 16), 2).rows
        parts.add("m.shuffle", ops=2 * 64 * 16 * 16)
        parts.rows += eff.block_cost(lcrm.eca, (16, 16), 2).rows
        assert (whole.params, whole.macs, whole.flops, whole.ops) == \
            (parts.params, parts.macs, parts.flops, parts.ops)

    def test_model_is_encoder_plus_decoder(self):
        model = net.Model(TOY, ParamStore())
        enc = eff.block_cost(model.encoder, (64, 64), 2)
        dec = eff.block_cost(model.decoder, (64, 64), 2)
        whole = eff.model_cost(TOY, (64, 64), 2)
        assert whole.params == enc.params + dec.params
        assert whole.macs == enc.macs + dec.macs

    def test_flops_double_macs_per_row(self):
        rep = eff.model_cost(TOY, (64, 64))
        for row in rep.rows:
            assert row.flops == 2 * row.macs
        assert rep.flops == 2 * rep.macs


class TestScaling:
    def test_params_scale_near_quadratic_in_width(self):
        """Pointwise convs dominate, so doubling every width multiplies the
        parameter count by a bit under 4 (depthwise and norm terms are
        linear)."""
        for c in (64, 128):
            small = net.DecoderConfig(num_classes=3, decode_channels=c,
                                      block=BlockConfig(channels=c))
            big = net.DecoderConfig(
                num_classes=3,
                encoder_channels=tuple(2 * v for v in small.encoder_channels),
                decode_channels=2 * c, block=BlockConfig(channels=2 * c))
            ratio = eff.count_params(big) / eff.count_params(small)
            assert 3.6 <= ratio <= 4.0

    def test_conv_stack_macs_scale_exactly_with_area(self):
        """Convolutions cost exactly 4x at doubled resolution. The exact law
        only covers conv-only stacks: attention pads small maps to the window
        and the channel-gate conv runs on pooled vectors, so neither follows
        the area."""
        cfg = TOY.block
        encoder = net.StubEncoder(ParamStore(), "encoder", TOY)
        sism = SISM(ParamStore(), "s", cfg)
        local = LocalBranch(ParamStore(), "l", 16, cfg)
        for build in (
            lambda hw: eff.block_cost(encoder, hw),
            lambda hw: eff.block_cost(sism, hw, 4),
            lambda hw: eff.block_cost(local, hw, 4),
        ):
            assert build((128, 128)).macs == 4 * build((64, 64)).macs

    def test_full_model_ratio_is_near_but_not_exact(self):
        base, _ = eff.count_flops(TOY, (64, 64))
        quad, _ = eff.count_flops(TOY, (128, 128))
        assert quad != 4 * base
        assert quad == pytest.approx(4 * base, rel=0.01)

    def test_macs_scale_linearly_with_batch(self):
        one = eff.model_cost(TOY, (64, 64), batch=1)
        five = eff.model_cost(TOY, (64, 64), batch=5)
        assert five.macs == 5 * one.macs
        assert five.params == one.params
        assert len(five.rows) == len(one.rows)
        for a, b in zip(one.rows, five.rows):
            assert b == eff.CostRow(a.name, a.params, 5 * a.macs, 5 * a.ops)

    def test_count_flops_wraps_model_cost(self):
        macs, flops = eff.count_flops(DEFAULT6, (64, 64), batch=3)
        rep = eff.model_cost(DEFAULT6, (64, 64), batch=3)
        assert (macs, flops) == (rep.macs, rep.flops)

    def test_resolution_must_divide_32(self):
        with pytest.raises(ValueError, match="32"):
            eff.model_cost(TOY, (48, 64))

    @pytest.mark.parametrize("hw, batch", [((-32, 64), 1), ((64, 0), 1), ((64, 64), 0)])
    def test_sides_and_batch_must_be_positive(self, hw, batch):
        with pytest.raises(ValueError, match="positive"):
            eff.model_cost(TOY, hw, batch)


def _count_executed_macs(monkeypatch) -> list:
    """Wrap ``ops.conv2d`` and ``ops.matmul`` to tally the MACs they run."""
    count = [0]
    conv2d, matmul = ops.conv2d, ops.matmul

    def counted_conv2d(x, weight, *args, **kwargs):
        y = conv2d(x, weight, *args, **kwargs)
        b, cout, ho, wo = y.shape
        _, cin_g, kh, kw = weight.shape
        count[0] += b * cout * ho * wo * cin_g * kh * kw
        return y

    def counted_matmul(a, b):
        count[0] += int(np.prod(a.shape[:-1])) * a.shape[-1] * b.shape[-1]
        return matmul(a, b)

    monkeypatch.setattr(ops, "conv2d", counted_conv2d)
    monkeypatch.setattr(ops, "matmul", counted_matmul)
    return count


class TestExecutedMacs:
    """The MAC column equals what a training forward runs through conv2d
    and matmul, including windows padded at sides the window does not divide."""

    @pytest.mark.parametrize("cfg", [
        TOY,
        net.DecoderConfig(num_classes=4, encoder_channels=(8, 16, 16, 24), decode_channels=12,
                          block=BlockConfig(channels=12, window_size=3, heads=2, norm="group")),
    ], ids=["toy", "group_window3"])
    @pytest.mark.parametrize("batch, hw", [(2, (64, 64)), (1, (64, 96))])
    def test_forward_runs_the_reported_macs(self, monkeypatch, cfg, batch, hw):
        model = net.build_model(cfg, seed=0)
        image = Tensor(stream(5, "macs").standard_normal((batch, 3, *hw)).astype(np.float32))
        count = _count_executed_macs(monkeypatch)
        model.forward(image, train=True)
        assert count[0] == eff.model_cost(cfg, hw, batch).macs


class TestChannelManagement:
    ROWS = eff.report_channel_management()

    def test_frozen_counts_at_width_64(self):
        row = self.ROWS[0]
        assert row.shape == (4, 64, 128, 128)
        assert row.params_split == 23_523
        assert row.params_base == 79_683
        assert row.macs_split == 1_562_379_008
        assert row.macs_base == 5_272_240_896

    def test_reductions_sit_in_the_documented_band(self):
        expected = {
            (4, 64, 128, 128): (0.7048, 0.7037),
            (4, 64, 256, 256): (0.7048, 0.7037),
            (4, 128, 128, 128): (0.7076, 0.7070),
            (4, 128, 256, 256): (0.7076, 0.7070),
        }
        for row in self.ROWS:
            dp, dm = expected[row.shape]
            assert row.param_reduction == pytest.approx(dp, abs=5e-4)
            assert row.mac_reduction == pytest.approx(dm, abs=5e-4)

    def test_params_independent_of_shape_within_width(self):
        by_width = {}
        for row in self.ROWS:
            by_width.setdefault(row.shape[1], set()).add(
                (row.params_base, row.params_split))
        assert all(len(v) == 1 for v in by_width.values())


class TestRendering:
    def test_csv_header_and_total(self):
        rep = eff.model_cost(TOY, (64, 64))
        lines = rep.as_csv().splitlines()
        assert lines[0] == "layer,params,macs,flops"
        assert len(lines) == len(rep.rows) + 2
        last = lines[-1].split(",")
        assert last[0] == "TOTAL"
        assert [int(v) for v in last[1:]] == [rep.params, rep.macs, rep.flops]
        for line in lines[1:-1]:
            name, p, m, f = line.split(",")
            assert int(f) == 2 * int(m)

    def test_text_report_carries_every_row(self):
        rep = eff.block_cost(net.Decoder(ParamStore(), "decoder", TOY), (64, 64))
        text = rep.as_text()
        for row in rep.rows:
            assert row.name in text

    def test_channel_management_table_formats(self):
        text = eff.format_channel_management(self.rows())
        assert "4x64x128x128" in text
        assert "70.5%" in text

    @staticmethod
    def rows():
        return eff.report_channel_management()


def _run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result


def test_cost_analysis_demo_runs():
    assert "params(2C)/params(C)" in _run_demo("cost_analysis.py").stdout


@pytest.mark.parametrize("name, claim", [
    ("blocks_tour.py", "SISM at init is the identity: True"),
    ("sliding_window.py", "window >= image reproduces direct inference: True"),
])
def test_fast_demo_claims_hold(name, claim):
    lines = _run_demo(name).stdout.splitlines()
    assert claim in lines
    assert [line for line in lines if line.rstrip().endswith("False")] == []
