"""Full decoder assembly over four encoder scales, plus a stub encoder.

The decoder takes the four encoder maps at strides /4, /8, /16, /32,
projects the deepest one to the decode width, and alternates refinement
blocks with skip fusions while walking back up to /4:

    proj -> LCRM -> CFFM(f3) -> LCRM -> CFFM(f2) -> LCRM -> CFFM(f1)
         -> SISM -> 1x1 head -> bilinear to input resolution

Each refinement output also feeds a 1x1 auxiliary head during training.
The stub encoder (two 3x3 convs per stage) exists so end-to-end runs and
tests never depend on pretrained weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fileio, ops
from .blocks import CFFM, LCRM, SISM, BlockConfig, Conv2d, ConvNormAct
from .params import ParamStore
from .tensor import ShapeError, Tensor

# The encoder's deepest stride: image sides must be multiples of it.
INPUT_MULTIPLE = 32


@dataclass(frozen=True)
class DecoderConfig:
    num_classes: int
    encoder_channels: tuple = (64, 128, 256, 512)
    decode_channels: int = 64
    block: BlockConfig | None = None
    aux_heads: bool = True

    def __post_init__(self):
        problems = []
        if self.num_classes < 2:
            problems.append(f"num_classes must be >= 2, got {self.num_classes}")
        if len(self.encoder_channels) != 4 or any(int(c) < 1 for c in self.encoder_channels):
            problems.append(f"encoder_channels must be four positive counts, got {self.encoder_channels}")
        if self.decode_channels < 2 or self.decode_channels % 2:
            problems.append(f"decode_channels must be a positive even number, got {self.decode_channels}")
        if self.block is not None and self.block.channels != self.decode_channels:
            problems.append(f"block.channels ({self.block.channels}) must equal "
                            f"decode_channels ({self.decode_channels})")
        if problems:
            raise ValueError("invalid DecoderConfig:\n  " + "\n  ".join(problems))
        if self.block is None:
            object.__setattr__(self, "block", BlockConfig(channels=self.decode_channels))


class StubEncoder:
    """Four stages of two 3x3 conv+norm+act layers at strides /4, /8, /16, /32."""

    def __init__(self, store: ParamStore, prefix: str, cfg: DecoderConfig):
        bc = cfg.block
        chans = cfg.encoder_channels
        self.stages = []
        c_in = 3
        for i, c_out in enumerate(chans):
            # Stage 1 downsamples twice (input -> /4); later stages once.
            second_stride = 2 if i == 0 else 1
            first = ConvNormAct(store, f"{prefix}.stage{i + 1}.conv1", c_in, c_out, 3,
                                stride=2, padding=1, norm=bc.norm, activation=bc.activation)
            second = ConvNormAct(store, f"{prefix}.stage{i + 1}.conv2", c_out, c_out, 3,
                                 stride=second_stride, padding=1,
                                 norm=bc.norm, activation=bc.activation)
            self.stages.append((first, second))
            c_in = c_out

    def forward(self, image: Tensor, train: bool = False) -> list:
        feats = []
        x = image
        for first, second in self.stages:
            x = second.forward(first.forward(x, train), train)
            feats.append(x)
        return feats

    def cost(self, rep, hw) -> tuple:
        for first, second in self.stages:
            hw = second.cost(rep, first.cost(rep, hw))
        return hw


class Decoder:
    def __init__(self, store: ParamStore, prefix: str, cfg: DecoderConfig):
        bc = cfg.block
        d = cfg.decode_channels
        k = cfg.num_classes
        enc = cfg.encoder_channels
        self.cfg = cfg
        self.prefix = prefix
        self.proj = ConvNormAct(store, f"{prefix}.proj", enc[3], d, 1,
                                norm=bc.norm, activation=bc.activation)
        self.lcrm1 = LCRM(store, f"{prefix}.lcrm1", bc)
        self.cffm1 = CFFM(store, f"{prefix}.cffm1", bc, in_channels=enc[2])
        self.lcrm2 = LCRM(store, f"{prefix}.lcrm2", bc)
        self.cffm2 = CFFM(store, f"{prefix}.cffm2", bc, in_channels=enc[1])
        self.lcrm3 = LCRM(store, f"{prefix}.lcrm3", bc)
        self.cffm3 = CFFM(store, f"{prefix}.cffm3", bc, in_channels=enc[0])
        self.sism = SISM(store, f"{prefix}.sism", bc)
        self.head = Conv2d(store, f"{prefix}.head", d, k, 1, bias=True)
        self.aux = []
        if cfg.aux_heads:
            self.aux = [Conv2d(store, f"{prefix}.aux{i + 1}", d, k, 1, bias=True)
                        for i in range(3)]

    def forward(self, feats, out_hw, train: bool = False):
        """Logits at ``out_hw`` and, when training with aux heads, the aux logits.

        ``feats`` is the list of the four encoder maps, shallowest first.
        Once their stage shapes are checked, the call empties it: each map
        is popped as its consumer runs, so an untaped forward frees it then,
        whoever else holds the list. The refinement outputs that feed the
        aux heads are kept only when the aux logits are produced.
        """
        cfg = self.cfg
        if len(feats) != 4:
            raise ShapeError(f"decoder expects 4 feature maps, got {len(feats)}")
        for i, c in enumerate(cfg.encoder_channels):  # no loop variable may keep a map alive
            if feats[i].ndim != 4 or feats[i].shape[1] != c:
                raise ShapeError(f"encoder stage {i + 1}: expected {c} channels, got {feats[i].shape}")
        taps = [] if train and self.aux else None

        z = self.proj.forward(feats.pop(), train)
        for lcrm, cffm in ((self.lcrm1, self.cffm1), (self.lcrm2, self.cffm2),
                           (self.lcrm3, self.cffm3)):
            z = lcrm.forward(z, train)
            if taps is not None:
                taps.append(z)
            z = cffm.forward(z, feats.pop(), train)
        z = self.sism.forward(z, train)

        logits = ops.upsample_bilinear(self.head.forward(z), out_hw)
        aux_logits = []
        if taps is not None:
            aux_logits = [ops.upsample_bilinear(head.forward(tap), out_hw)
                          for head, tap in zip(self.aux, taps)]
        return logits, aux_logits

    def cost(self, rep, hw) -> tuple:
        """Rows of one image's training forward with logits at ``hw``, so
        the auxiliary heads count whenever the config enables them; the
        deepest feature map is ``hw / INPUT_MULTIPLE``."""
        logits = self.cfg.num_classes * hw[0] * hw[1]
        z = self.proj.cost(rep, (hw[0] // INPUT_MULTIPLE, hw[1] // INPUT_MULTIPLE))
        taps = []
        for lcrm, cffm in ((self.lcrm1, self.cffm1), (self.lcrm2, self.cffm2),
                           (self.lcrm3, self.cffm3)):
            z = lcrm.cost(rep, z)
            taps.append(z)
            z = cffm.cost(rep, z)
        self.head.cost(rep, self.sism.cost(rep, z))
        rep.add(f"{self.prefix}.upsample", ops=logits)
        for head, tap in zip(self.aux, taps):
            head.cost(rep, tap)
            rep.add(f"{head.prefix}.upsample", ops=logits)
        return hw


class Model:
    """Stub encoder + decoder over one shared ParamStore."""

    def __init__(self, cfg: DecoderConfig, store: ParamStore):
        self.cfg = cfg
        self.store = store
        self.encoder = StubEncoder(store, "encoder", cfg)
        self.decoder = Decoder(store, "decoder", cfg)

    def forward(self, image: Tensor, train: bool = False):
        """``(logits, aux_logits)`` of an image batch (B, 3, H, W); see ``Decoder.forward``.

        The encoder's list of maps goes straight to the decoder, which empties
        it, so no map outlives its consumer in an untaped forward.
        """
        if image.ndim != 4 or image.shape[1] != 3:
            raise ShapeError(f"expected an image batch (B, 3, H, W), got {image.shape}")
        h, w = image.shape[2], image.shape[3]
        if h % INPUT_MULTIPLE or w % INPUT_MULTIPLE:
            raise ShapeError(f"input height and width must be divisible by {INPUT_MULTIPLE}, "
                             f"got {h}x{w}")
        return self.decoder.forward(self.encoder.forward(image, train), (h, w), train)

    def cost(self, rep, hw) -> tuple:
        self.encoder.cost(rep, hw)
        return self.decoder.cost(rep, hw)


def build_model(cfg: DecoderConfig, seed: int, dtype=np.float32) -> Model:
    store = ParamStore()
    model = Model(cfg, store)
    store.init(seed, dtype=dtype)
    return model


def save_checkpoint(store: ParamStore, path) -> None:
    fileio.write_container(path, store.state_arrays())


def load_checkpoint(store: ParamStore, path) -> None:
    """Load a container into ``store``; names and shapes must match exactly."""
    store.load_state(fileio.read_container(path))
