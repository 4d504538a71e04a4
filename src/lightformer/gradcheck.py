"""Finite-difference verification of every adjoint in the package.

The analytic route is the tape; the numeric route is a float64 central
difference with per-element step 1e-4 * (1 + |x|). A case is a no-arg
closure returning an output tensor; the checker perturbs the listed
``wrt`` tensors in place, projects the output onto a fixed random
direction to get a scalar, and compares element by element. The reported
error is max |ga - gn| / max(1, |ga|, |gn|), relative for large
gradients and absolute near zero. Coordinates whose straddle window
happens to contain a ReLU kink are re-probed at finer steps; see
``check_gradients``.

``run_suite`` evaluates every primitive and composite case (at least five
random small instances each, tensors no larger than 4x4x6x6) and is the
engine behind the ``gradcheck`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import ops
from .rng import stream
from .tensor import Tape, Tensor

PRIMITIVE_TOL = 1e-5
COMPOSITE_TOL = 1e-4
REL_STEP = 1e-4


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float
    checked: int

    @property
    def ok(self) -> bool:
        return self.max_err < self.tol

    def __str__(self) -> str:
        verdict = "ok  " if self.ok else "FAIL"
        return f"{verdict} {self.name:<44s} err {self.max_err:.3e} (tol {self.tol:.0e}, {self.checked} coords)"


def _projection(shape, seed: int, dtype) -> np.ndarray:
    return stream(seed, "gradcheck.projection").standard_normal(shape).astype(dtype)


def check_gradients(
    fn: Callable[[], Tensor],
    wrt: Sequence[Tensor],
    tol: float = PRIMITIVE_TOL,
    name: str = "",
    seed: int = 0,
    max_coords: int | None = None,
) -> CheckResult:
    """Compare tape adjoints of ``fn`` against central differences.

    ``fn`` must be deterministic and close over the ``wrt`` tensors, whose
    float64 data is perturbed in place for the numeric route. When
    ``max_coords`` is set, at most that many coordinates per tensor are
    probed (seeded choice), which keeps whole-network checks tractable.
    """
    for t in wrt:
        if t.dtype != np.float64:
            raise ValueError(f"{name or 'gradcheck'}: finite differences need float64 inputs, got {t.dtype}")
        if not t.requires_grad:
            raise ValueError(f"{name or 'gradcheck'}: tensor in wrt does not require grad")

    with Tape() as tape:
        out = fn()
        direction = _projection(out.shape, seed, out.dtype)
        loss = ops.sum_(ops.mul(out, Tensor(direction)))
    grads = tape.backward(loss)

    def loss_value() -> float:
        return float((fn().data * direction).sum())

    worst = 0.0
    checked = 0
    for t in wrt:
        analytic = grads.get(t)
        if analytic is None:
            analytic = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        a_flat = analytic.reshape(-1)
        idx = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            idx = stream(seed, "gradcheck.coords", name).choice(flat.size, size=max_coords, replace=False)
        for i in idx:
            keep = flat[i]
            err = np.inf
            # Piecewise-linear activations make the coarse difference invalid
            # when a kink falls inside the straddle window, so coordinates
            # failing at the coarse step are re-probed with finer steps. A
            # wrong adjoint fails at every step size (the numeric estimate
            # converges to the true derivative); only straddle artifacts
            # shrink with h. Whole-network cases stack enough kinks that a
            # coordinate can still straddle one at 1/64 of the base step.
            for shrink in (1.0, 16.0, 64.0, 256.0):
                h = REL_STEP * (1.0 + abs(keep)) / shrink
                flat[i] = keep + h
                up = loss_value()
                flat[i] = keep - h
                down = loss_value()
                flat[i] = keep
                numeric = (up - down) / (2.0 * h)
                err = abs(a_flat[i] - numeric) / max(1.0, abs(a_flat[i]), abs(numeric))
                if err < tol:
                    break
            worst = max(worst, err)
            checked += 1
    return CheckResult(name=name, max_err=worst, tol=tol, checked=checked)


def _randn(rng, shape, scale=1.0) -> Tensor:
    return Tensor(rng.standard_normal(shape) * scale, dtype=np.float64, requires_grad=True)


def _randpos(rng, shape, offset=0.5) -> Tensor:
    return Tensor(np.abs(rng.standard_normal(shape)) + offset, dtype=np.float64, requires_grad=True)


def op_cases(seed: int, instance: int):
    """One bundle of primitive-op cases; shapes jitter with the instance index."""
    rng = stream(seed, "gradcheck.ops", str(instance))
    B = 1 + instance % 2
    C = (2, 4, 6)[instance % 3]
    H = 3 + instance % 3
    W = 4 + instance % 2
    cases = []

    def case(name, fn, wrt, tol=PRIMITIVE_TOL):
        cases.append((f"{name}#{instance}", fn, wrt, tol))

    a = _randn(rng, (B, C, H, W))
    b = _randn(rng, (B, C, H, W))
    row = _randn(rng, (1, C, 1, 1))
    case("add", lambda: ops.add(a, b), [a, b])
    case("add.broadcast", lambda: ops.add(a, row), [a, row])
    case("sub", lambda: ops.sub(a, b), [a, b])
    case("mul", lambda: ops.mul(a, b), [a, b])
    case("mul.broadcast", lambda: ops.mul(a, row), [a, row])
    denom = _randpos(rng, (B, C, H, W))
    case("div", lambda: ops.div(a, denom), [a, denom])
    case("neg", lambda: ops.neg(a), [a])

    x1 = _randn(rng, (C, H, W))
    case("exp", lambda: ops.exp(x1), [x1])
    pos = _randpos(rng, (C, H, W))
    case("log", lambda: ops.log(pos), [pos])
    case("sqrt", lambda: ops.sqrt(pos), [pos])
    case("relu", lambda: ops.relu(x1), [x1])
    case("gelu", lambda: ops.gelu(x1), [x1])
    case("sigmoid", lambda: ops.sigmoid(x1), [x1])
    case("clamp_min", lambda: ops.clamp_min(x1, 0.1), [x1])
    case("softmax.axis1", lambda: ops.softmax(a, 1), [a])
    case("softmax.last", lambda: ops.softmax(x1, -1), [x1])

    case("sum.all", lambda: ops.sum_(a), [a])
    case("sum.keepdims", lambda: ops.sum_(a, axes=(0, 2, 3), keepdims=True), [a])
    case("mean.channel", lambda: ops.mean(a, axes=1), [a])
    case("max_reduce", lambda: ops.max_reduce(a, axis=1, keepdims=True), [a])
    case("reduce_channel.mean", lambda: ops.reduce_channel(a, "mean"), [a])
    case("reduce_channel.max", lambda: ops.reduce_channel(a, "max"), [a])

    case("reshape", lambda: ops.reshape(a, (B, C * H, W)), [a])
    case("permute", lambda: ops.permute(a, (0, 2, 3, 1)), [a])
    c1 = _randn(rng, (B, 2, H, W))
    case("concat", lambda: ops.concat([a, c1], axis=1), [a, c1])
    case("split", lambda: ops.concat([p * float(i + 1) for i, p in enumerate(ops.split(a, (1, C - 1), axis=1))], 1), [a])
    case("pad2d", lambda: ops.pad2d(a, (0, 2, 1, 0)), [a])
    case("crop2d", lambda: ops.crop2d(a, 1, 1, H - 1, W - 2), [a])

    m1 = _randn(rng, (H, W))
    m2 = _randn(rng, (W, C))
    case("matmul", lambda: ops.matmul(m1, m2), [m1, m2])
    bm1 = _randn(rng, (B, 2, H, W))
    bm2 = _randn(rng, (B, 2, W, 3))
    case("matmul.batched", lambda: ops.matmul(bm1, bm2), [bm1, bm2])

    w11 = _randn(rng, (3, C, 1, 1), scale=0.5)
    bias = _randn(rng, (3,))
    case("conv2d.1x1", lambda: ops.conv2d(a, w11, bias), [a, w11, bias])
    w33 = _randn(rng, (3, C, 3, 3), scale=0.3)
    case("conv2d.3x3.pad", lambda: ops.conv2d(a, w33, None, stride=1, padding=1), [a, w33])
    case("conv2d.3x3.stride2", lambda: ops.conv2d(a, w33, bias, stride=2, padding=1), [a, w33, bias])
    wdw = _randn(rng, (C, 1, 3, 3), scale=0.3)
    case("conv2d.depthwise", lambda: ops.conv2d(a, wdw, None, padding=1, groups=C), [a, wdw])
    wg = _randn(rng, (4, C // 2, 1, 1), scale=0.5)
    case("conv2d.groups2", lambda: ops.conv2d(a, wg, None, groups=2), [a, wg])
    wrow = _randn(rng, (2, C, 1, 3), scale=0.5)
    case("conv2d.1x3", lambda: ops.conv2d(a, wrow, None, padding=(0, 1)), [a, wrow])

    p = _randn(rng, (B, 2, 4, 6))
    case("pool2d.avg", lambda: ops.pool2d(p, "avg", 2), [p])
    case("pool2d.max", lambda: ops.pool2d(p, "max", 2), [p])
    case("pool2d.avg.axis_h", lambda: ops.pool2d(p, "avg", (2, 1)), [p])
    case("pool2d.avg.axis_w", lambda: ops.pool2d(p, "avg", (1, 3)), [p])
    case("pool2d.max.overlap", lambda: ops.pool2d(p, "max", 2, stride=1), [p])

    u = _randn(rng, (B, 2, 3, 4))
    case("upsample_bilinear", lambda: ops.upsample_bilinear(u, (6, 8)), [u])
    case("upsample_bilinear.uneven", lambda: ops.upsample_bilinear(u, (5, 9)), [u])
    case("nearest_upsample", lambda: ops.nearest_upsample(u, (2, 3)), [u])
    return cases


def block_cases(seed: int, instance: int):
    """Composite cases: blocks, losses, and the tiny end-to-end decoder."""
    from . import blocks as bl
    from . import network as net
    from . import training as tr
    from .params import ParamStore

    rng = stream(seed, "gradcheck.blocks", str(instance))
    cases = []

    def case(name, fn, wrt, tol=COMPOSITE_TOL, max_coords=None):
        cases.append((f"{name}#{instance}", fn, wrt, tol, max_coords))

    def build(ctor, channels, **cfg_kw):
        cfg = bl.BlockConfig(channels=channels, window_size=2, heads=2, **cfg_kw)
        store = ParamStore()
        mod = ctor(store, cfg)
        store.init(seed=seed + instance, dtype=np.float64)
        params = [t for _, t in store.trainable()]
        return mod, params

    C = 4
    x = _randn(rng, (1, C, 4, 4), scale=0.8)

    eca, eca_params = build(lambda s, c: bl.ECA(s, "eca", c.channels, c.eca_kernel), C)
    case("eca", lambda: eca.forward(x), [x] + eca_params)

    norm = "group" if instance % 2 else "batch"
    lcrm, lcrm_params = build(lambda s, c: bl.LCRM(s, "lcrm", c), C, norm=norm)
    case(f"lcrm.{norm}", lambda: lcrm.forward(x, train=True), [x] + lcrm_params, max_coords=8)

    attn, attn_params = build(lambda s, c: bl.WindowAttention(s, "wa", c.channels, c.window_size, c.heads), C)
    case("window_attention", lambda: attn.forward(x), [x] + attn_params)

    glob, glob_params = build(lambda s, c: bl.GlobalBranch(s, "gb", c.channels, c), C, norm="group")
    case("global_branch", lambda: glob.forward(x, train=True), [x] + glob_params, max_coords=8)

    loc, loc_params = build(lambda s, c: bl.LocalBranch(s, "lb", c.channels, c), C, norm="group")
    case("local_branch", lambda: loc.forward(x, train=True), [x] + loc_params, max_coords=8)

    case("channel_shuffle", lambda: bl.channel_shuffle(x, groups=2), [x])

    deep = _randn(rng, (1, C, 2, 2), scale=0.8)
    shallow = _randn(rng, (1, 6, 4, 4), scale=0.8)
    cffm, cffm_params = build(lambda s, c: bl.CFFM(s, "cffm", c, in_channels=6), C, norm="group")
    case("cffm", lambda: cffm.forward(deep, shallow, train=True), [deep, shallow] + cffm_params, max_coords=8)

    sx = _randn(rng, (1, C, 6, 6), scale=0.8)
    sism, sism_params = build(lambda s, c: bl.SISM(s, "sism", c), C)
    # The spatial-attention conv is zero-initialized by design; nudge it off
    # zero so the product path has signal to differentiate through.
    for name, t in sism.store.trainable():
        if t.data.size and not t.data.any():
            t.data += stream(seed, "gradcheck.sism", name, str(instance)).standard_normal(t.shape) * 0.2
    case("sism", lambda: sism.forward(sx, train=True), [sx] + sism_params, max_coords=8)

    bn = bl.BatchNorm2d(ParamStore(), "bn", C)
    bn.store.init(seed=seed, dtype=np.float64)
    bnx = _randn(rng, (3, C, 3, 3))
    case("batchnorm.train", lambda: bn.forward(bnx, train=True), [bnx] + [t for _, t in bn.store.trainable()])

    gn = bl.GroupNorm2d(ParamStore(), "gn", C, groups=2)
    gn.store.init(seed=seed, dtype=np.float64)
    case("groupnorm", lambda: gn.forward(bnx, train=True), [bnx] + [t for _, t in gn.store.trainable()])

    K = 3
    logits = _randn(rng, (2, K, 4, 4))
    labels = stream(seed, "gradcheck.labels", str(instance)).integers(0, K, size=(2, 4, 4))
    labels[0, 0, 0] = 255
    case("cross_entropy", lambda: tr.cross_entropy_loss(logits, labels), [logits])
    case("dice", lambda: tr.dice_loss(logits, labels), [logits])
    aux = [_randn(rng, (2, K, 4, 4)) for _ in range(3)]
    case("total_loss", lambda: tr.total_loss(logits, aux, labels, train=True).total, [logits] + aux)

    # End-to-end: total_loss through encoder + decoder at a tiny shape.
    # Group norm (batch statistics are degenerate at B=1 over a 1x1 deepest
    # map, which makes central differences ill-posed; see decisions ledger).
    dcfg = net.DecoderConfig(
        encoder_channels=(4, 4, 8, 8),
        decode_channels=4,
        num_classes=K,
        block=bl.BlockConfig(channels=4, window_size=2, heads=2, norm="group"),
    )
    model = net.build_model(dcfg, seed=seed + instance, dtype=np.float64)
    # The 1x1 deepest map makes the group statistics degenerate, so the
    # norm output is identically zero and zero-init shifts land exactly on
    # relu kinks, where no derivative exists. Evaluate at a generic point.
    for pname, t in model.store.trainable():
        if t.data.size and not t.data.any():
            t.data += stream(seed, "gradcheck.e2e.nudge", pname, str(instance)).standard_normal(t.shape) * 0.1
    img = _randn(rng, (1, 3, 32, 32), scale=0.5)
    lab = stream(seed, "gradcheck.e2e", str(instance)).integers(0, K, size=(1, 32, 32))

    def e2e():
        logits_full, aux_full = model.forward(img, train=True)
        return tr.total_loss(logits_full, aux_full, lab, train=True).total

    wrt = [img] + [t for _, t in model.store.trainable()]
    case("decoder.total_loss.e2e", e2e, wrt, max_coords=2)
    return cases


def run_suite(op_filter: str | None = None, seed: int = 0, instances: int = 5, include_blocks: bool = True):
    """Run every case ``instances`` times; returns the list of CheckResults."""
    results = []
    for inst in range(instances):
        bundles = [op_cases(seed, inst)]
        if include_blocks:
            bundles.append(block_cases(seed, inst))
        for bundle in bundles:
            for entry in bundle:
                name, fn, wrt, tol = entry[0], entry[1], entry[2], entry[3]
                max_coords = entry[4] if len(entry) > 4 else None
                if op_filter and op_filter not in name:
                    continue
                results.append(
                    check_gradients(fn, wrt, tol=tol, name=name, seed=seed + inst, max_coords=max_coords)
                )
    return results
