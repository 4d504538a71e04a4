"""Decoder building blocks.

The refinement block splits its input in half along channels, runs a
windowed-attention global branch and a gated convolutional local branch
on the halves, then fuses, shuffles, and channel-gates the result. The
fusion blocks merge a deep feature map with a skip connection through a
learned two-way softmax gate, and the final spatial module sharpens the
last map with multi-scale depthwise context and a sigmoid spatial gate.

All blocks register parameters against a shared ParamStore under a dotted
prefix and keep only Tensor handles, so checkpoint IO and the optimizer
never need to walk module objects.

Every layer and block also prices itself: ``cost(rep, hw, batch)`` adds
its rows to an ``efficiency.CostReport`` in forward order, each named by the
prefix its parameters carry, and returns its output (H, W). Parameters and
MACs come from the layer's own weights, strides and padding; the
conventions are in ``efficiency``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .params import ParamStore
from .tensor import ShapeError, Tensor


@dataclass(frozen=True)
class BlockConfig:
    """Hyperparameters shared by every block at one decode width."""

    channels: int = 64
    window_size: int = 4
    heads: int = 4
    shuffle_groups: int = 2
    eca_kernel: int = 3
    sism_kernels: tuple = (5, 7, 7, 3)
    norm: str = "batch"
    activation: str = "relu"
    ffn_ratio: int = 4

    def __post_init__(self):
        problems = []
        c = self.channels
        if c <= 0 or c % 2 != 0:
            problems.append(f"channels must be a positive even number, got {c}")
        if self.heads < 1:
            problems.append(f"heads must be >= 1, got {self.heads}")
        elif c % 2 == 0 and c > 0 and (c // 2) % self.heads != 0:
            problems.append(f"channels/2 ({c // 2}) must be divisible by heads ({self.heads})")
        if self.window_size < 1:
            problems.append(f"window_size must be >= 1, got {self.window_size}")
        if self.shuffle_groups < 1 or (c > 0 and c % self.shuffle_groups != 0):
            problems.append(f"shuffle_groups ({self.shuffle_groups}) must divide channels ({c})")
        if self.eca_kernel < 1 or self.eca_kernel % 2 == 0:
            problems.append(f"eca_kernel must be odd and >= 1, got {self.eca_kernel}")
        ks = self.sism_kernels
        if len(ks) != 4 or any(int(k) < 1 or int(k) % 2 == 0 for k in ks):
            problems.append(f"sism_kernels must be four odd sizes, got {ks}")
        if self.norm not in ("batch", "group", "none"):
            problems.append(f"norm must be 'batch', 'group', or 'none', got {self.norm!r}")
        if self.activation not in ("relu", "gelu"):
            problems.append(f"activation must be 'relu' or 'gelu', got {self.activation!r}")
        if self.ffn_ratio < 1:
            problems.append(f"ffn_ratio must be >= 1, got {self.ffn_ratio}")
        if problems:
            raise ValueError("invalid BlockConfig:\n  " + "\n  ".join(problems))


def _activation(name: str):
    return {"relu": ops.relu, "gelu": ops.gelu}[name]


class Conv2d:
    """Thin wrapper owning a conv weight (and optional bias) in the store."""

    def __init__(self, store: ParamStore, prefix: str, in_channels: int, out_channels: int,
                 kernel=1, stride=1, padding=0, groups: int = 1, bias: bool = True,
                 zero_init: bool = False):
        kh, kw = ops._pair(kernel)
        if in_channels % groups or out_channels % groups:
            raise ShapeError(f"{prefix}: groups={groups} must divide channels "
                             f"({in_channels} -> {out_channels})")
        fan_in = (in_channels // groups) * kh * kw
        w_init = ("zeros",) if zero_init else ("kaiming", fan_in)
        self.weight = store.add(f"{prefix}.weight",
                                (out_channels, in_channels // groups, kh, kw), w_init)
        self.bias = store.add(f"{prefix}.bias", (out_channels,), ("zeros",)) if bias else None
        self.prefix = prefix
        self.stride = stride
        self.padding = padding
        self.groups = groups

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias, stride=self.stride,
                          padding=self.padding, groups=self.groups)

    def cost(self, rep, hw, batch: int) -> tuple:
        cout, _, kh, kw = self.weight.shape
        (sh, sw), (ph, pw) = ops._pair(self.stride), ops._pair(self.padding)
        ho = (hw[0] + 2 * ph - kh) // sh + 1
        wo = (hw[1] + 2 * pw - kw) // sw + 1
        if self.bias is None:
            rep.add(self.prefix, params=self.weight.size, macs=self.weight.size * ho * wo * batch)
        else:
            rep.add(self.prefix, params=self.weight.size + self.bias.size,
                    macs=self.weight.size * ho * wo * batch, ops=batch * cout * ho * wo)
        return (ho, wo)


class Identity:
    """``norm="none"``: passes its input through and prices a zero row."""

    def __init__(self, prefix: str):
        self.prefix = prefix

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return x

    def cost(self, rep, hw, batch: int) -> tuple:
        rep.add(self.prefix)
        return hw


class BatchNorm2d:
    """Per-channel normalization over (batch, height, width), one ``ops.norm2d`` node.

    Training mode normalizes with batch statistics and folds them into the
    running buffers with momentum 0.1; the running variance stores the same
    biased batch estimate used for normalization. Eval mode hands the
    buffers to the same op, which computes ``(x - m) / sqrt(v + eps)``
    exactly as training does, so freezing immediately after one training
    pass with momentum 1 reproduces that pass bit for bit on the same
    batch. Both modes have adjoints for x, gamma and beta. For forward-only
    inference, ``fold_batch_norms`` instead merges each eval batch norm that
    follows a conv into that conv's weight and bias.
    """

    def __init__(self, store: ParamStore, prefix: str, channels: int,
                 eps: float = 1e-5, momentum: float = 0.1):
        self.store = store
        self.prefix = prefix
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = store.add(f"{prefix}.gamma", (channels,), ("ones",))
        self.beta = store.add(f"{prefix}.beta", (channels,), ("zeros",))
        self.running_mean = store.add(f"{prefix}.running_mean", (channels,),
                                      ("zeros",), trainable=False)
        self.running_var = store.add(f"{prefix}.running_var", (channels,),
                                     ("ones",), trainable=False)

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        stats = None if train else (self.running_mean.data, self.running_var.data)
        y, m, v = ops.norm2d(x, self.gamma, self.beta, self.eps, stats=stats)
        if train:
            mom = self.momentum
            self.running_mean.data = (1.0 - mom) * self.running_mean.data + mom * m
            self.running_var.data = (1.0 - mom) * self.running_var.data + mom * v
        return y

    def cost(self, rep, hw, batch: int) -> tuple:
        rep.add(self.prefix, params=self.gamma.size + self.beta.size,
                ops=batch * self.channels * hw[0] * hw[1])
        return hw


class GroupNorm2d:
    """Stateless per-sample normalization over channel groups, one
    ``ops.norm2d`` node; train == eval."""

    def __init__(self, store: ParamStore, prefix: str, channels: int,
                 groups: int | None = None, eps: float = 1e-5):
        if groups is None:
            groups = next(g for g in (8, 4, 2, 1) if channels % g == 0)
        if channels % groups:
            raise ShapeError(f"{prefix}: groups={groups} must divide channels={channels}")
        self.store = store
        self.prefix = prefix
        self.channels = channels
        self.groups = groups
        self.eps = eps
        self.gamma = store.add(f"{prefix}.gamma", (channels,), ("ones",))
        self.beta = store.add(f"{prefix}.beta", (channels,), ("zeros",))

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return ops.norm2d(x, self.gamma, self.beta, self.eps, groups=self.groups)[0]

    cost = BatchNorm2d.cost


def make_norm(store: ParamStore, prefix: str, channels: int, kind: str):
    if kind == "batch":
        return BatchNorm2d(store, prefix, channels)
    if kind == "group":
        return GroupNorm2d(store, prefix, channels)
    if kind == "none":
        return Identity(prefix)
    raise ValueError(f"unknown norm kind {kind!r}")


class ConvNormAct:
    """conv -> norm -> activation; the conv drops its bias when a norm follows."""

    def __init__(self, store: ParamStore, prefix: str, in_channels: int, out_channels: int,
                 kernel=1, stride=1, padding=0, groups: int = 1,
                 norm: str = "batch", activation: str | None = "relu"):
        self.prefix = prefix
        self.conv = Conv2d(store, f"{prefix}.conv", in_channels, out_channels, kernel,
                           stride=stride, padding=padding, groups=groups,
                           bias=(norm == "none"))
        self.norm = make_norm(store, f"{prefix}.norm", out_channels, norm)
        self.act = _activation(activation) if activation else None

    def fold_norm(self) -> None:
        self.norm = fold_into_conv(self.conv, self.norm)

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        y = self.norm.forward(self.conv.forward(x), train)
        return self.act(y) if self.act else y

    def cost(self, rep, hw, batch: int) -> tuple:
        hw = self.norm.cost(rep, self.conv.cost(rep, hw, batch), batch)
        if self.act:
            rep.add(f"{self.prefix}.act", ops=batch * self.conv.weight.shape[0] * hw[0] * hw[1])
        return hw


def fold_into_conv(conv: Conv2d, norm):
    """The layer to run after ``conv`` once an eval batch ``norm`` is folded into it.

    With ``s = gamma / sqrt(running_var + eps)`` the conv's weight becomes
    ``W * s`` and its bias ``(b - running_mean) * s + beta`` (``b`` = 0
    without one), computed in float64 and cast to the weight's dtype, and an
    ``Identity`` replaces the norm. The conv gets new tensors outside the
    store, so the store's arrays, and checkpoints written from them, keep
    the unfolded values. Any other norm is returned unchanged.
    """
    if not isinstance(norm, BatchNorm2d):
        return norm
    f64, dtype = np.float64, conv.weight.dtype
    scale = norm.gamma.data.astype(f64) / np.sqrt(norm.running_var.data.astype(f64) + norm.eps)
    bias = np.zeros_like(scale) if conv.bias is None else conv.bias.data.astype(f64)
    shift = (bias - norm.running_mean.data.astype(f64)) * scale + norm.beta.data.astype(f64)
    weight = np.empty_like(conv.weight.data)
    np.multiply(conv.weight.data, scale.reshape(-1, 1, 1, 1), out=weight, dtype=f64, casting="same_kind")
    conv.weight = Tensor(weight)
    conv.bias = Tensor(shift.astype(dtype))
    return Identity(norm.prefix)


def layers(module):
    """Every layer object reachable from ``module``, through lists and tuples.

    A layer's attributes are read after it is yielded, so a caller may
    replace them first.
    """
    pending = [module]
    while pending:
        m = pending.pop()
        if isinstance(m, (list, tuple)):
            pending.extend(m)
        elif hasattr(m, "forward"):
            yield m
            pending.extend(vars(m).values())


def fold_batch_norms(module) -> None:
    """Fold every eval batch norm that directly follows a conv into that
    conv, in place, for forward-only inference.

    Walks the module tree and calls each layer's ``fold_norm``; pre-norms
    (``GlobalBranch.norm1``/``norm2``), group norms and ``norm="none"``
    layers stay as they are. The folded model is for inference only: its
    folded convs hold tensors outside the store, which neither training nor
    loading a checkpoint reaches.
    """
    for m in layers(module):
        if hasattr(m, "fold_norm"):
            m.fold_norm()


class GateWeights:
    """Two raw scalars whose softmax forms a convex pair of mixing weights."""

    def __init__(self, store: ParamStore, prefix: str):
        self.prefix = prefix
        self.alpha = store.add(f"{prefix}.alpha", (1,), ("zeros",))
        self.beta = store.add(f"{prefix}.beta", (1,), ("zeros",))

    def normalized(self):
        pair = ops.softmax(ops.concat([self.alpha, self.beta], axis=0), axis=0)
        wa, wb = ops.split(pair, (1, 1), axis=0)
        return ops.reshape(wa, ()), ops.reshape(wb, ())

    def raw(self):
        return ops.reshape(self.alpha, ()), ops.reshape(self.beta, ())

    def cost(self, rep, hw, batch: int) -> tuple:
        rep.add(f"{self.prefix}.alpha", params=self.alpha.size)
        rep.add(f"{self.prefix}.beta", params=self.beta.size)
        return hw


class ECA:
    """Channel gate: global average pool, k-tap 1D conv across channels, sigmoid."""

    def __init__(self, store: ParamStore, prefix: str, channels: int, kernel: int = 3):
        if kernel < 1 or kernel % 2 == 0:
            raise ValueError(f"{prefix}: ECA kernel must be odd, got {kernel}")
        self.prefix = prefix
        self.channels = channels
        self.kernel = kernel
        self.weight = store.add(f"{prefix}.conv.weight", (1, 1, 1, kernel),
                                ("kaiming", kernel))

    def forward(self, x: Tensor) -> Tensor:
        b, c, h, w = x.shape
        if c != self.channels:
            raise ShapeError(f"ECA built for {self.channels} channels, got {c}")
        s = ops.mean(x, axes=(2, 3), keepdims=True)
        s = ops.reshape(s, (b, 1, 1, c))
        s = ops.conv2d(s, self.weight, None, padding=(0, (self.kernel - 1) // 2))
        s = ops.sigmoid(s)
        s = ops.reshape(s, (b, c, 1, 1))
        return ops.mul(x, s)

    def cost(self, rep, hw, batch: int) -> tuple:
        c = self.channels
        rep.add(f"{self.prefix}.pool", ops=batch * c)
        # The k-tap conv runs once per channel of each pooled vector.
        rep.add(f"{self.prefix}.conv", params=self.weight.size, macs=self.weight.size * c * batch)
        rep.add(f"{self.prefix}.gate", ops=batch * c * (1 + hw[0] * hw[1]))
        return hw


def channel_shuffle(x: Tensor, groups: int) -> Tensor:
    """Interleave channel groups: output j takes input (j % g) * (C/g) + j // g."""
    if x.ndim != 4:
        raise ShapeError(f"channel_shuffle expects rank 4, got {x.shape}")
    b, c, h, w = x.shape
    if groups < 1 or c % groups:
        raise ShapeError(f"groups={groups} must divide channels={c}")
    if groups == 1:
        return x
    y = ops.reshape(x, (b, groups, c // groups, h, w))
    y = ops.permute(y, (0, 2, 1, 3, 4))
    return ops.reshape(y, (b, c, h, w))


_CAPTURE_STACK: list[dict] = []


def active_capture() -> dict | None:
    return _CAPTURE_STACK[-1] if _CAPTURE_STACK else None


@contextlib.contextmanager
def capture():
    """Collect attention maps from the forwards run inside the block.

    Yields a dict. Each ``WindowAttention`` stores a ``<prefix>.probs``
    record (the softmax rows plus the window grid needed to stitch them
    back) and ``SISM`` stores its spatial map as ``<prefix>.attn``, always
    into the innermost active dict.
    """
    maps: dict = {}
    _CAPTURE_STACK.append(maps)
    try:
        yield maps
    finally:
        popped = _CAPTURE_STACK.pop()
        assert popped is maps, "captures must unwind in LIFO order"


class WindowAttention:
    """Multi-head self-attention inside non-overlapping square windows,
    followed by the per-axis average pooling that smears each window's
    response along its rows and columns: each output pixel is its window
    row's mean plus its window column's mean.

    The forward partitions the QKV map once and stays in window layout,
    axis means included, until one permute puts the map back. The input is
    zero-padded at the bottom/right to a multiple of the window size before
    the QKV projection and cropped back at the end, so window contents never
    wrap. With window_size 1, one head, and an identity value projection the
    output is twice the input.
    """

    def __init__(self, store: ParamStore, prefix: str, channels: int,
                 window_size: int, heads: int):
        if channels % heads:
            raise ShapeError(f"{prefix}: heads={heads} must divide channels={channels}")
        self.prefix = prefix
        self.channels = channels
        self.window_size = window_size
        self.heads = heads
        self.qkv = Conv2d(store, f"{prefix}.qkv", channels, 3 * channels, 1, bias=False)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(f"attention built for {self.channels} channels, got {x.shape}")
        b, c, h, w = x.shape
        ws = self.window_size
        pad_b = (-h) % ws
        pad_r = (-w) % ws
        xp = ops.pad2d(x, (0, pad_b, 0, pad_r)) if (pad_b or pad_r) else x
        hp, wp = h + pad_b, w + pad_r
        hh, ww = hp // ws, wp // ws
        d = c // self.heads

        n = b * hh * ww * self.heads
        # One Swin partition of the QKV map to (3, B, hh, ww, heads, d, ws, ws):
        # channel-major per window and head, which is K transposed as the
        # score matmul needs it; Q and V get one permute each.
        qkv = ops.reshape(self.qkv.forward(xp), (b, 3, self.heads, d, hh, ws, ww, ws))
        qkv = ops.permute(qkv, (1, 0, 4, 6, 2, 3, 5, 7))
        q, kt, v = (ops.reshape(t, (n, d, ws * ws)) for t in ops.split(qkv, (1, 1, 1), axis=0))

        scores = ops.mul(ops.matmul(ops.permute(q, (0, 2, 1)), kt), 1.0 / math.sqrt(d))
        probs = ops.softmax(scores, axis=-1)
        maps = active_capture()
        if maps is not None:
            maps[f"{self.prefix}.probs"] = {
                "probs": probs.data.copy(),
                "batch": b, "rows": hh, "cols": ww,
                "heads": self.heads, "window": ws,
                "height": h, "width": w,
            }
        attended = ops.matmul(probs, ops.permute(v, (0, 2, 1)))
        # (B, hh, ww, heads, ws, ws, d): axis 4 runs down a window's rows,
        # axis 5 along its columns. Both means stride over d, so neither
        # reduces a short contiguous axis; one permute then yields the map.
        a = ops.reshape(attended, (b, hh, ww, self.heads, ws, ws, d))
        out = ops.add(ops.mean(a, axes=4, keepdims=True), ops.mean(a, axes=5, keepdims=True))
        out = ops.reshape(ops.permute(out, (0, 3, 6, 1, 4, 2, 5)), (b, c, hp, wp))
        if pad_b or pad_r:
            out = ops.crop2d(out, 0, 0, h, w)
        return out

    def cost(self, rep, hw, batch: int) -> tuple:
        ws = self.window_size
        c = self.channels
        hp, wp = hw[0] + (-hw[0]) % ws, hw[1] + (-hw[1]) % ws
        self.qkv.cost(rep, (hp, wp), batch)
        # Q K^T and probs x V: each ws^2 x d by d x ws^2 (or transposed) per
        # window per head; both collapse to window^2 * channels per pixel.
        rep.add(f"{self.prefix}.matmul", macs=2 * ws * ws * c * hp * wp * batch)
        rep.add(f"{self.prefix}.softmax", ops=batch * self.heads * hp * wp * ws * ws)
        # Two axis means per window, each broadcast back over the window
        # (priced as a nearest upsampling), and their sum.
        rep.add(f"{self.prefix}.axis_pool",
                ops=batch * c * (hp * wp // ws) * 2 + batch * c * hp * wp * 3)
        return hw


class GlobalBranch:
    """Pre-norm windowed attention with projection residual, then a pre-norm
    pointwise feed-forward residual, all at the branch width."""

    def __init__(self, store: ParamStore, prefix: str, channels: int, cfg: BlockConfig):
        self.prefix = prefix
        self.channels = channels
        self.norm1 = make_norm(store, f"{prefix}.norm1", channels, cfg.norm)
        self.attn = WindowAttention(store, f"{prefix}.attn", channels,
                                    cfg.window_size, cfg.heads)
        self.proj = Conv2d(store, f"{prefix}.proj", channels, channels, 1, bias=True)
        self.norm2 = make_norm(store, f"{prefix}.norm2", channels, cfg.norm)
        hidden = cfg.ffn_ratio * channels
        self.fc1 = Conv2d(store, f"{prefix}.fc1", channels, hidden, 1, bias=True)
        self.fc2 = Conv2d(store, f"{prefix}.fc2", hidden, channels, 1, bias=True)
        self.act = _activation(cfg.activation)

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        a = self.proj.forward(self.attn.forward(self.norm1.forward(x, train)))
        x = ops.add(x, a)
        f = self.fc2.forward(self.act(self.fc1.forward(self.norm2.forward(x, train))))
        return ops.add(x, f)

    def cost(self, rep, hw, batch: int) -> tuple:
        pixels = batch * hw[0] * hw[1]
        self.norm1.cost(rep, hw, batch)
        self.attn.cost(rep, hw, batch)
        self.proj.cost(rep, hw, batch)
        rep.add(f"{self.prefix}.residual1", ops=pixels * self.channels)
        self.norm2.cost(rep, hw, batch)
        self.fc1.cost(rep, hw, batch)
        rep.add(f"{self.prefix}.ffn_act", ops=pixels * self.fc1.weight.shape[0])
        self.fc2.cost(rep, hw, batch)
        rep.add(f"{self.prefix}.residual2", ops=pixels * self.channels)
        return hw


class LocalBranch:
    """Refine, spread context depthwise, then split into a normalized path and
    a self-gated path; their concat doubles the branch width.

    Zero input stays exactly zero: every path multiplies by the refined map
    or normalizes a zero map with zero shift.
    """

    def __init__(self, store: ParamStore, prefix: str, channels: int, cfg: BlockConfig):
        self.prefix = prefix
        self.channels = channels
        self.refine = ConvNormAct(store, f"{prefix}.refine", channels, channels, 1,
                                  norm=cfg.norm, activation=cfg.activation)
        self.spread = Conv2d(store, f"{prefix}.spread.conv", channels, channels, 3,
                             padding=1, groups=channels, bias=False)
        self.spread_norm = make_norm(store, f"{prefix}.spread.norm", channels, cfg.norm)
        self.post = ConvNormAct(store, f"{prefix}.post", channels, channels, 1,
                                norm=cfg.norm, activation=cfg.activation)
        self.gate_in = Conv2d(store, f"{prefix}.gate_in", channels, channels, 1, bias=True)
        self.gate_out = Conv2d(store, f"{prefix}.gate_out", channels, channels, 1, bias=True)

    def fold_norm(self) -> None:
        self.spread_norm = fold_into_conv(self.spread, self.spread_norm)

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        t = self.refine.forward(x, train)
        spread = self.spread_norm.forward(self.spread.forward(t), train)
        first = self.post.forward(spread, train)
        gate = self.gate_out.forward(self.gate_in.forward(t))
        second = ops.mul(gate, t)
        return ops.concat([first, second], axis=1)

    def cost(self, rep, hw, batch: int) -> tuple:
        for layer in (self.refine, self.spread, self.spread_norm, self.post,
                      self.gate_in, self.gate_out):
            layer.cost(rep, hw, batch)
        rep.add(f"{self.prefix}.gate_mul", ops=batch * self.channels * hw[0] * hw[1])
        return hw


class LCRM:
    """Channel-split refinement block.

    Splits the input into halves, runs the attention branch on one and the
    convolutional branch on the other, fuses the (C/2 + C) concat back to C
    with a pointwise conv, shuffles two channel groups, and applies the
    channel gate. ``channel_split=False`` builds the unsplit counterpart
    (both branches at full width, fusion from 3C) used as the cost baseline.
    """

    def __init__(self, store: ParamStore, prefix: str, cfg: BlockConfig,
                 channel_split: bool = True):
        c = cfg.channels
        self.cfg = cfg
        self.prefix = prefix
        self.channel_split = channel_split
        width = c // 2 if channel_split else c
        self.width = width
        self.global_branch = GlobalBranch(store, f"{prefix}.global", width, cfg)
        self.local_branch = LocalBranch(store, f"{prefix}.local", width, cfg)
        self.fuse = ConvNormAct(store, f"{prefix}.fuse", 3 * width, c, 1,
                                norm=cfg.norm, activation=cfg.activation)
        self.eca = ECA(store, f"{prefix}.eca", c, cfg.eca_kernel)

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        c = self.cfg.channels
        if x.ndim != 4 or x.shape[1] != c:
            raise ShapeError(f"refinement block built for {c} channels, got {x.shape}")
        if self.channel_split:
            xg, xl = ops.split(x, (c // 2, c // 2), axis=1)
        else:
            xg = xl = x
        g = self.global_branch.forward(xg, train)
        l = self.local_branch.forward(xl, train)
        y = ops.concat([g, l], axis=1)
        y = self.fuse.forward(y, train)
        y = channel_shuffle(y, self.cfg.shuffle_groups)
        return self.eca.forward(y)

    def cost(self, rep, hw, batch: int) -> tuple:
        self.global_branch.cost(rep, hw, batch)
        self.local_branch.cost(rep, hw, batch)
        self.fuse.cost(rep, hw, batch)
        rep.add(f"{self.prefix}.shuffle", ops=batch * self.cfg.channels * hw[0] * hw[1])
        return self.eca.cost(rep, hw, batch)


class CFFM:
    """Gated skip fusion: upsample the deep map 2x, project the shallow map to
    the decode width, mix with softmax-normalized scalar weights, then refine
    with a separable 3x3 and the channel gate."""

    def __init__(self, store: ParamStore, prefix: str, cfg: BlockConfig, in_channels: int):
        c = cfg.channels
        self.cfg = cfg
        self.prefix = prefix
        self.proj = ConvNormAct(store, f"{prefix}.proj", in_channels, c, 1,
                                norm=cfg.norm, activation=cfg.activation)
        self.gate = GateWeights(store, f"{prefix}.gate")
        self.fuse_dw = Conv2d(store, f"{prefix}.fuse.dw", c, c, 3, padding=1,
                              groups=c, bias=False)
        self.fuse_dw_norm = make_norm(store, f"{prefix}.fuse.dwnorm", c, cfg.norm)
        self.fuse_pw = ConvNormAct(store, f"{prefix}.fuse.pw", c, c, 1,
                                   norm=cfg.norm, activation=cfg.activation)
        self.eca = ECA(store, f"{prefix}.eca", c, cfg.eca_kernel)

    def fold_norm(self) -> None:
        self.fuse_dw_norm = fold_into_conv(self.fuse_dw, self.fuse_dw_norm)

    def forward(self, deep: Tensor, shallow: Tensor, train: bool = False) -> Tensor:
        if deep.ndim != 4 or shallow.ndim != 4:
            raise ShapeError("fusion expects two rank-4 inputs")
        b, c, hd, wd = deep.shape
        if shallow.shape[0] != b:
            raise ShapeError(f"batch mismatch: {deep.shape} vs {shallow.shape}")
        if shallow.shape[2] != 2 * hd or shallow.shape[3] != 2 * wd:
            raise ShapeError(f"skip map must be exactly 2x the deep map: "
                             f"deep {deep.shape} vs skip {shallow.shape}")
        up = ops.upsample_bilinear(deep, (2 * hd, 2 * wd))
        skip = self.proj.forward(shallow, train)
        w_deep, w_skip = self.gate.normalized()
        z = ops.add(ops.mul(up, w_deep), ops.mul(skip, w_skip))
        z = self.fuse_dw_norm.forward(self.fuse_dw.forward(z), train)
        z = self.fuse_pw.forward(z, train)
        return self.eca.forward(z)

    def cost(self, rep, hw, batch: int) -> tuple:
        """``hw`` is the deep map's; the skip map and the output are twice it."""
        out_hw = (2 * hw[0], 2 * hw[1])
        n_out = batch * self.cfg.channels * out_hw[0] * out_hw[1]
        rep.add(f"{self.prefix}.upsample", ops=n_out)
        self.proj.cost(rep, out_hw, batch)
        self.gate.cost(rep, out_hw, batch)
        rep.add(f"{self.prefix}.gated_sum", ops=3 * n_out)
        for layer in (self.fuse_dw, self.fuse_dw_norm, self.fuse_pw, self.eca):
            layer.cost(rep, out_hw, batch)
        return out_hw


class SISM:
    """Final-stage spatial sharpening.

    Two stacked depthwise+pointwise stages build mid- and long-range context;
    a two-channel statistics map (channel mean and max) gates each stage; a
    zero-initialized pointwise conv squashed by a sigmoid yields the spatial
    attention map; the output adds the detail and attention paths to the
    input through raw scalar multipliers that start at zero, so an untrained
    module is exactly the identity.
    """

    def __init__(self, store: ParamStore, prefix: str, cfg: BlockConfig):
        c = cfg.channels
        k_mid, k_long, k_attn, k_detail = (int(k) for k in cfg.sism_kernels)
        self.cfg = cfg
        self.prefix = prefix
        self.store = store
        self.dw_mid = Conv2d(store, f"{prefix}.mid.dw", c, c, k_mid,
                             padding=(k_mid - 1) // 2, groups=c, bias=True)
        self.pw_mid = Conv2d(store, f"{prefix}.mid.pw", c, c, 1, bias=True)
        self.dw_long = Conv2d(store, f"{prefix}.long.dw", c, c, k_long,
                              padding=(k_long - 1) // 2, groups=c, bias=True)
        self.pw_long = Conv2d(store, f"{prefix}.long.pw", c, c, 1, bias=True)
        self.mix_mid = Conv2d(store, f"{prefix}.mix.mid", c, c, 1, bias=True)
        self.mix_long = Conv2d(store, f"{prefix}.mix.long", c, c, 1, bias=True)
        self.stat_conv = Conv2d(store, f"{prefix}.stat", 2, 2, k_attn,
                                padding=(k_attn - 1) // 2, bias=True)
        self.attn_proj = Conv2d(store, f"{prefix}.attn", c, 1, 1, bias=True,
                                zero_init=True)
        self.dw_detail = Conv2d(store, f"{prefix}.detail.dw", c, c, k_detail,
                                padding=(k_detail - 1) // 2, groups=c, bias=True)
        self.gates = GateWeights(store, f"{prefix}.gates")

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        mid = self.pw_mid.forward(self.dw_mid.forward(x))
        long = self.pw_long.forward(self.dw_long.forward(mid))
        mixed = ops.concat([self.mix_mid.forward(mid), self.mix_long.forward(long)], axis=1)
        stats = ops.concat([ops.reduce_channel(mixed, "mean"),
                            ops.reduce_channel(mixed, "max")], axis=1)
        stage_gate = ops.sigmoid(self.stat_conv.forward(stats))
        g_mid, g_long = ops.split(stage_gate, (1, 1), axis=1)
        mid = ops.mul(mid, g_mid)
        long = ops.mul(long, g_long)
        attn = ops.sigmoid(self.attn_proj.forward(ops.add(mid, long)))
        maps = active_capture()
        if maps is not None:
            maps[f"{self.prefix}.attn"] = attn.data.copy()
        detail = self.dw_detail.forward(x)
        w_detail, w_attn = self.gates.raw()
        out = ops.add(x, ops.mul(detail, w_detail))
        return ops.add(out, ops.mul(ops.mul(x, attn), w_attn))

    def cost(self, rep, hw, batch: int) -> tuple:
        pixels = batch * hw[0] * hw[1]
        n = pixels * self.cfg.channels
        for layer in (self.dw_mid, self.pw_mid, self.dw_long, self.pw_long,
                      self.mix_mid, self.mix_long):
            layer.cost(rep, hw, batch)
        rep.add(f"{self.prefix}.stats", ops=2 * pixels)
        self.stat_conv.cost(rep, hw, batch)
        rep.add(f"{self.prefix}.stage_gate", ops=2 * pixels + 2 * n)
        self.attn_proj.cost(rep, hw, batch)
        rep.add(f"{self.prefix}.attn_gate", ops=pixels + n)
        self.dw_detail.cost(rep, hw, batch)
        self.gates.cost(rep, hw, batch)
        rep.add(f"{self.prefix}.blend", ops=4 * n)
        return hw
