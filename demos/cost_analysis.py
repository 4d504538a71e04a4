"""Walk the analytic cost model from one conv to the whole decoder.

Every layer prices itself with its ``cost`` method, reading its widths,
kernels and strides from its own (uninitialized, zero-filled) weights; no
forward runs, which is what makes the split-vs-full-width comparison and
the scaling-law checks instant. Conventions: FLOPs = 2 x MACs, parameters
count trainable scalars only, and the non-multiply work (norms,
activations, resizes, gates) is tallied in a separate ops column rather
than silently dropped.
"""

from lightformer import efficiency as eff
from lightformer import network as net
from lightformer.blocks import BlockConfig, Conv2d
from lightformer.params import ParamStore


def main():
    # One 3x3 conv, checked by hand first: 16->32 channels on a 64x64 map
    # (padding 1 keeps the size) costs 32 * 16 * 9 MACs per output pixel.
    conv = Conv2d(ParamStore(), "demo.conv", 16, 32, 3, padding=1)
    (row,) = eff.block_cost(conv, (64, 64), batch=1).rows
    print(f"3x3 conv 16->32 @ 64x64: {row.params} params, {row.macs:,} MACs")
    assert row.macs == 32 * 16 * 9 * 64 * 64

    # The full default decoder with its stub encoder, priced per layer.
    cfg = net.DecoderConfig(num_classes=3)
    report = eff.model_cost(cfg, (64, 64), batch=1)
    print(f"\nfull model @ 64x64: {report.params:,} params, "
          f"{report.macs:,} MACs, {report.flops:,} FLOPs")
    print("ten most expensive rows by MACs:")
    for row in sorted(report.rows, key=lambda r: r.macs, reverse=True)[:10]:
        print(f"  {row.name:<40s} {row.macs:>12,}")

    # The rows must cover exactly the trainable tensors of a live store.
    store = net.build_model(cfg, seed=0).store
    live = sum(t.data.size for _, t in store.trainable())
    print(f"\nanalytic params {eff.count_params(cfg):,} == live store {live:,}")
    assert eff.count_params(cfg) == live

    # Splitting the refinement block to half width cuts roughly 71% of both
    # parameters and MACs; the table below is the shipped comparison.
    print("\nsplit vs full-width refinement block:")
    print(eff.format_channel_management(eff.report_channel_management()))

    # Quadratic width scaling: doubling every channel multiplies parameters
    # by just under 4 (depthwise convs and norms scale linearly).
    small = net.DecoderConfig(num_classes=3)
    big = net.DecoderConfig(
        num_classes=3,
        encoder_channels=tuple(2 * c for c in small.encoder_channels),
        decode_channels=2 * small.decode_channels,
        block=BlockConfig(channels=2 * small.decode_channels))
    ratio = eff.count_params(big) / eff.count_params(small)
    print(f"\nparams(2C)/params(C) = {ratio:.3f}")


if __name__ == "__main__":
    main()
