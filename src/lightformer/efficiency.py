"""Static parameter and MAC/FLOP accounting for every layer and block.

The rows come from each block's own ``cost(rep, hw)`` method (see
``blocks``/``network``), which prices one image from the widths, kernels,
groups, biases and strides of the layer it prices. ``block_cost`` then
multiplies every row's ``macs`` and ``ops`` by the batch, in that one place;
every row is linear in it. The entry points here build an uninitialized
model or refinement block and collect those rows; no forward runs.
Conventions:

* FLOPs = 2 x MACs, always; the headline comparisons are ratios, so the
  convention cancels. MACs count convolutions and the two attention
  matmuls only.
* Bias additions, normalization, activations, softmax, pooling, resizes,
  residual adds, and gate multiplies are tallied in a separate non-MAC
  ``ops`` column as one unit per produced element per pass; they never
  enter the FLOP column.
* Parameter counts include trainable scalars only, matching
  ``ParamStore.total_params`` (running statistics are buffers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .blocks import LCRM, BlockConfig
from .network import INPUT_MULTIPLE, DecoderConfig, Model
from .params import ParamStore


@dataclass(frozen=True)
class CostRow:
    name: str
    params: int
    macs: int
    ops: int = 0

    @property
    def flops(self) -> int:
        return 2 * self.macs


class CostReport:
    """Ordered per-layer rows plus column totals."""

    def __init__(self):
        self.rows: list[CostRow] = []

    def add(self, name: str, params: int = 0, macs: int = 0, ops: int = 0) -> None:
        self.rows.append(CostRow(name, int(params), int(macs), int(ops)))

    @property
    def params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def macs(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def flops(self) -> int:
        return 2 * self.macs

    @property
    def ops(self) -> int:
        return sum(r.ops for r in self.rows)

    def as_text(self) -> str:
        width = max([len(r.name) for r in self.rows] + [len("TOTAL")]) + 2
        lines = [f"{'layer':<{width}}{'params':>12}{'macs':>16}{'flops':>16}{'other ops':>16}"]
        for r in self.rows:
            lines.append(f"{r.name:<{width}}{r.params:>12}{r.macs:>16}{r.flops:>16}{r.ops:>16}")
        lines.append(f"{'TOTAL':<{width}}{self.params:>12}{self.macs:>16}{self.flops:>16}{self.ops:>16}")
        return "\n".join(lines)

    def as_csv(self) -> str:
        lines = ["layer,params,macs,flops"]
        for r in self.rows:
            lines.append(f"{r.name},{r.params},{r.macs},{r.flops}")
        lines.append(f"TOTAL,{self.params},{self.macs},{self.flops}")
        return "\n".join(lines)


def block_cost(block, hw, batch: int = 1) -> CostReport:
    """The rows ``block.cost`` adds for one image at ``hw``, with ``macs`` and
    ``ops`` scaled to a forward of ``batch`` images."""
    rep = CostReport()
    block.cost(rep, hw)
    rep.rows = [replace(r, macs=r.macs * batch, ops=r.ops * batch) for r in rep.rows]
    return rep


def model_cost(cfg: DecoderConfig, input_hw, batch: int = 1) -> CostReport:
    """Rows of one training forward of the full model, from an uninitialized
    ``Model``; the MAC columns include the auxiliary heads when enabled."""
    h, w = input_hw
    if h < 1 or w < 1 or batch < 1:
        raise ValueError(f"input sides and batch must be positive, got {input_hw} at batch {batch}")
    if h % INPUT_MULTIPLE or w % INPUT_MULTIPLE:
        raise ValueError(f"input height and width must be divisible by {INPUT_MULTIPLE}, "
                         f"got {input_hw}")
    return block_cost(Model(cfg, ParamStore()), input_hw, batch)


def count_params(cfg: DecoderConfig) -> int:
    """Trainable scalars of the full model; resolution-independent."""
    return model_cost(cfg, (64, 64), batch=1).params


def count_flops(cfg: DecoderConfig, input_hw, batch: int = 1) -> tuple:
    """(macs, flops) of one training forward at ``input_hw``."""
    rep = model_cost(cfg, input_hw, batch)
    return (rep.macs, rep.flops)


TABLE_SHAPES = ((4, 64, 128, 128), (4, 64, 256, 256), (4, 128, 128, 128), (4, 128, 256, 256))


@dataclass(frozen=True)
class ChannelManagementRow:
    shape: tuple
    params_base: int
    params_split: int
    macs_base: int
    macs_split: int

    @property
    def param_reduction(self) -> float:
        return 1.0 - self.params_split / self.params_base

    @property
    def mac_reduction(self) -> float:
        return 1.0 - self.macs_split / self.macs_base


def report_channel_management(shapes=TABLE_SHAPES) -> list:
    """Split vs full-width refinement block cost at each (B, C, H, W)."""
    rows = []
    for b, c, h, w in shapes:
        cfg = BlockConfig(channels=c)
        split = block_cost(LCRM(ParamStore(), "lcrm", cfg, channel_split=True), (h, w), b)
        base = block_cost(LCRM(ParamStore(), "lcrm", cfg, channel_split=False), (h, w), b)
        rows.append(ChannelManagementRow(
            shape=(b, c, h, w),
            params_base=base.params, params_split=split.params,
            macs_base=base.macs, macs_split=split.macs,
        ))
    return rows


def format_channel_management(rows) -> str:
    header = (f"{'shape':<20}{'P_base':>12}{'P_split':>12}{'dP':>9}"
              f"{'MAC_base':>16}{'MAC_split':>16}{'dMAC':>9}")
    lines = [header]
    for r in rows:
        shape = "x".join(str(v) for v in r.shape)
        lines.append(f"{shape:<20}{r.params_base:>12}{r.params_split:>12}"
                     f"{r.param_reduction:>8.1%}"
                     f"{r.macs_base:>16}{r.macs_split:>16}{r.mac_reduction:>8.1%}")
    return "\n".join(lines)


def channel_management_csv(rows) -> str:
    lines = ["shape,params_base,params_split,param_reduction,macs_base,macs_split,mac_reduction"]
    for r in rows:
        shape = "x".join(str(v) for v in r.shape)
        lines.append(f"{shape},{r.params_base},{r.params_split},{r.param_reduction:.4f},"
                     f"{r.macs_base},{r.macs_split},{r.mac_reduction:.4f}")
    return "\n".join(lines)
