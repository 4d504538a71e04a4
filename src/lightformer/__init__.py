"""Lightweight window-attention segmentation decoder on a numpy autodiff core."""

from .tensor import ShapeError, Tape, TapeError, Tensor
from . import ops
from .blocks import (
    CFFM,
    LCRM,
    SISM,
    BlockConfig,
    WindowAttention,
    channel_shuffle,
)
from .network import (
    Decoder,
    DecoderConfig,
    Model,
    StubEncoder,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from .params import ParamStore
from .training import (
    AdamW,
    ConfusionMatrix,
    DivergenceError,
    LossBundle,
    Metrics,
    cosine_lr,
    cross_entropy_loss,
    dice_loss,
    sliding_window_infer,
    total_loss,
)
from .config import ConfigError, RunConfig, load as load_config
from .efficiency import (
    CostReport,
    count_flops,
    count_params,
    model_cost,
    report_channel_management,
)

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "BlockConfig",
    "CFFM",
    "ConfigError",
    "ConfusionMatrix",
    "CostReport",
    "Decoder",
    "DecoderConfig",
    "DivergenceError",
    "LCRM",
    "LossBundle",
    "Metrics",
    "Model",
    "ParamStore",
    "RunConfig",
    "SISM",
    "ShapeError",
    "StubEncoder",
    "Tape",
    "TapeError",
    "Tensor",
    "WindowAttention",
    "build_model",
    "channel_shuffle",
    "cosine_lr",
    "count_flops",
    "count_params",
    "cross_entropy_loss",
    "dice_loss",
    "load_checkpoint",
    "load_config",
    "model_cost",
    "ops",
    "report_channel_management",
    "save_checkpoint",
    "sliding_window_infer",
    "total_loss",
    "__version__",
]
