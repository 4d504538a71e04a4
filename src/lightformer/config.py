"""Run configuration: flat ``section.key = value`` text with typed defaults.

Every setting has a schema entry (section.key, type, default) below; a key
or section outside the schema is a hard error, as is a value the type
parser rejects. The effective config (defaults, then file, then ``--set``
overrides, in that order) serializes back to text that re-parses to the
same values, which is what the CLI echoes into each output directory.

The model defaults describe the toy recipe (narrow encoder, decode width
32) so ``train-toy`` converges inside its CPU budget out of the box; the
library's own BlockConfig/DecoderConfig defaults are wider.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import fields

from .blocks import BlockConfig
from .network import INPUT_MULTIPLE, DecoderConfig
from .synthetic import MIN_SIZE
from .training import IGNORE_LABEL


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _int_from(low: int, multiple: int = 1, high: int | None = None):
    """Parser for an integer of at least ``low`` (at most ``high``) that ``multiple`` divides."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low or value % multiple or (high is not None and value > high):
            top = f" and at most {high}" if high is not None else ""
            step = f" and a multiple of {multiple}" if multiple > 1 else ""
            raise ValueError(f"must be at least {low}{top}{step}, got {value}")
        return value
    return parse


def _float_from(low: float, inclusive: bool = True):
    """Parser for a finite float of at least ``low`` (above it if not ``inclusive``)."""
    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value) or value < low or (value == low and not inclusive):
            bound = "at least" if inclusive else "above"
            raise ValueError(f"must be a finite number {bound} {low:g}, got {text.strip()!r}")
        return value
    return parse


def _nonempty(text: str) -> str:
    if not text:
        raise ValueError("must not be empty")
    return text


def _parse_ints(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


def _per_channel(parse_one=float):
    """Parser for three comma-separated finite values (R, G, B), each read by ``parse_one``."""
    def parse(text: str) -> tuple:
        values = tuple(parse_one(part) for part in text.split(","))
        if len(values) != 3 or not all(map(math.isfinite, values)):
            raise ValueError(f"must be three finite numbers, one per RGB channel, got {text.strip()!r}")
        return values
    return parse


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


# section.key -> (parser, default). Order defines serialization order.
SCHEMA = {
    "run.seed": (lambda s: int(s, 0), 0),
    "run.out_dir": (_nonempty, "runs/out"),
    # Masks are 8-bit and label 255 is IGNORE_LABEL, so classes stop below it.
    "model.num_classes": (_int_from(2, high=IGNORE_LABEL), 3),
    "model.encoder_channels": (_parse_ints, (24, 48, 96, 192)),
    "model.decode_channels": (int, 32),
    "model.window_size": (int, 4),
    "model.heads": (int, 4),
    "model.shuffle_groups": (int, 2),
    "model.eca_kernel": (int, 3),
    "model.sism_kernels": (_parse_ints, (5, 7, 7, 3)),
    "model.norm": (str, "batch"),
    "model.activation": (str, "relu"),
    "model.ffn_ratio": (int, 4),
    "model.aux_heads": (_parse_bool, True),
    "data.image_size": (_int_from(MIN_SIZE, INPUT_MULTIPLE), 64),
    "data.train_count": (_int_from(1), 200),
    "data.val_count": (_int_from(1), 50),
    "data.mean": (_per_channel(), (0.5, 0.5, 0.5)),
    "data.std": (_per_channel(_float_from(0.0, inclusive=False)), (0.25, 0.25, 0.25)),
    "train.epochs": (_int_from(0), 30),
    "train.batch_size": (_int_from(1), 8),
    "train.encoder_lr": (_float_from(0.0), 3e-3),
    "train.decoder_lr": (_float_from(0.0, inclusive=False), 9e-3),
    "train.lr_min": (_float_from(0.0), 1e-4),
    "train.weight_decay": (_float_from(0.0), 1e-2),
    "train.aux_weight": (_float_from(0.0), 0.4),
    "train.augment": (_parse_bool, True),
    "train.stop_miou": (_float_from(0.0), 0.95),
    "infer.window": (_int_from(1), 1024),
    "infer.stride": (_int_from(1), 512),
    "infer.save_logits": (_parse_bool, False),
    "analyze.batch": (int, 4),
    "analyze.height": (int, 128),
    "analyze.width": (int, 128),
}


class ConfigError(ValueError):
    """Unknown key/section or an unparseable value."""


class RunConfig:
    def __init__(self, values: dict | None = None):
        self.values = {key: default for key, (_, default) in SCHEMA.items()}
        if values:
            self.values.update(values)

    def __getitem__(self, key: str):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def set(self, key: str, text: str) -> None:
        """Assign from text through the schema parser; unknown key is an error."""
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r} (see `{key.split('.')[0]}` "
                              f"section of the documented defaults)")
        parser, _ = SCHEMA[key]
        try:
            self.values[key] = parser(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc

    def apply_overrides(self, pairs) -> None:
        """``--set section.key=value`` strings, applied in order."""
        for pair in pairs:
            if "=" not in pair:
                raise ConfigError(f"override {pair!r} is not of the form section.key=value")
            key, _, text = pair.partition("=")
            self.set(key.strip(), text.strip())

    @property
    def seed(self) -> int:
        return self["run.seed"]

    def decoder_config(self) -> DecoderConfig:
        """Each ``model.<name>`` key fills the ``DecoderConfig`` or ``BlockConfig``
        field of that name; ``model.decode_channels`` also sets ``BlockConfig.channels``."""
        def named(cls) -> dict:
            return {f.name: self.values[f"model.{f.name}"] for f in fields(cls)
                    if f"model.{f.name}" in SCHEMA}
        try:
            block = BlockConfig(channels=self["model.decode_channels"], **named(BlockConfig))
            return DecoderConfig(block=block, **named(DecoderConfig))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_text(self) -> str:
        lines = []
        section = None
        for key in SCHEMA:
            sec, _, name = key.partition(".")
            if sec != section:
                if section is not None:
                    lines.append("")
                lines.append(f"[{sec}]")
                section = sec
            lines.append(f"{name} = {_fmt(self.values[key])}")
        return "\n".join(lines) + "\n"


def parse_text(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base if base is not None else RunConfig()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    for section in parser.sections():
        for name, value in parser.items(section):
            cfg.set(f"{section}.{name}", value)
    return cfg


def load(path=None, overrides=()) -> RunConfig:
    """Defaults, then the optional file, then overrides."""
    cfg = RunConfig()
    if path is not None:
        try:
            with io.open(path, "r", encoding="utf-8") as fh:
                parse_text(fh.read(), base=cfg)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    cfg.apply_overrides(overrides)
    return cfg
