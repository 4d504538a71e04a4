"""Command-line surface: analyze | gradcheck | train-toy | infer | dump-attn.

Every command echoes the effective configuration to ``<out_dir>/config.ini``;
``infer`` and ``dump-attn`` write ``infer.ini`` and ``dump-attn.ini`` instead,
so that pointing them at a training run's directory keeps the config it was
trained with. The echo's first line, ``# argv: [...]``, is the command line
as JSON, so it also records the arguments that have no config key (the
image, ``--checkpoint``, ``--instances``, ``--shape``, ``--op``); a config
reader skips it as a comment. Outputs are byte-identical for an identical
config. Exit codes: 0 success, 1 runtime failure, 2 usage or configuration
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import efficiency as eff
from . import fileio, gradcheck, synthetic
from . import training as tr
from .blocks import capture, fold_batch_norms
from .config import ConfigError, RunConfig, load
from .network import INPUT_MULTIPLE, build_model, load_checkpoint, save_checkpoint
from .tensor import Tape, Tensor


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# Commands that read a checkpoint from their output directory echo their
# config under their own name.
_CONFIG_NAMES = {"infer": "infer.ini", "dump-attn": "dump-attn.ini"}


def _prepare_out(cfg: RunConfig, args) -> str:
    """Create the output directory and echo the config; call once the run is validated."""
    out_dir = cfg["run.out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    _write(os.path.join(out_dir, _CONFIG_NAMES.get(args.command, "config.ini")),
           f"# argv: {json.dumps(args.argv)}\n" + cfg.to_text())
    return out_dir


def _standardize_u8(image_u8: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """HWC uint8 -> standardized CHW float32 using the configured statistics."""
    chw = image_u8.astype(np.float64).transpose(2, 0, 1) / 255.0
    return tr.standardize(chw, cfg["data.mean"], cfg["data.std"])


def _pad_to_multiple(image: np.ndarray) -> np.ndarray:
    """Zero-pad a (C, H, W) image bottom/right to sides the model accepts."""
    pad_b, pad_r = (-image.shape[-2]) % INPUT_MULTIPLE, (-image.shape[-1]) % INPUT_MULTIPLE
    return np.pad(image, ((0, 0), (0, pad_b), (0, pad_r))) if pad_b or pad_r else image


def cmd_analyze(cfg: RunConfig, args) -> int:
    shapes = eff.TABLE_SHAPES
    if args.shape:
        parsed = []
        for text in args.shape:
            parts = text.split(",")
            if len(parts) != 4 or not all(p.strip().lstrip("-").isdigit() for p in parts):
                raise ConfigError(f"--shape must be B,C,H,W integers, got {text!r}")
            b, c, h, w = (int(p) for p in parts)
            if min(b, c, h, w) < 1 or c % 2:
                raise ConfigError(f"--shape needs positive dims and even C, got {text!r}")
            parsed.append((b, c, h, w))
        shapes = tuple(parsed)

    dcfg = cfg.decoder_config()
    hw = (cfg["analyze.height"], cfg["analyze.width"])
    batch = cfg["analyze.batch"]
    try:
        report = eff.model_cost(dcfg, hw, batch=batch)
    except ValueError as exc:
        raise ConfigError(f"analyze.height={hw[0]}, analyze.width={hw[1]}, "
                          f"analyze.batch={batch}: {exc}") from exc
    rows = []
    for shape in shapes:
        try:
            rows += eff.report_channel_management((shape,))
        except ValueError as exc:
            raise ConfigError(f"--shape {','.join(map(str, shape))}: {exc}") from exc

    out_dir = _prepare_out(cfg, args)
    _write(os.path.join(out_dir, "cost_report.txt"), report.as_text() + "\n")
    _write(os.path.join(out_dir, "cost_report.csv"), report.as_csv() + "\n")
    _write(os.path.join(out_dir, "channel_management.csv"),
           eff.channel_management_csv(rows) + "\n")
    _write(os.path.join(out_dir, "channel_management.txt"),
           eff.format_channel_management(rows) + "\n")

    print(f"model: {report.params} params, {report.macs} MACs at {hw[0]}x{hw[1]}")
    print(eff.format_channel_management(rows))
    print(f"reports written to {out_dir}")
    return 0


def cmd_gradcheck(cfg: RunConfig, args) -> int:
    results = gradcheck.run_suite(op_filter=args.op, seed=cfg.seed,
                                  instances=args.instances)
    if args.op and not results:
        raise ConfigError(f"no case matches --op {args.op!r}")
    out_dir = _prepare_out(cfg, args)
    lines = [str(r) for r in results]
    _write(os.path.join(out_dir, "gradcheck.txt"), "\n".join(lines) + "\n")
    failures = [r for r in results if not r.ok]
    for r in failures:
        print(str(r), file=sys.stderr)
    print(f"{len(results) - len(failures)}/{len(results)} gradient checks passed")
    return 1 if failures else 0


def _epoch_row(epoch: int, loss, ce, dice, aux, miou: float) -> str:
    def fmt(v) -> str:
        return "" if v is None else repr(float(v))

    return f"{epoch},{fmt(loss)},{fmt(ce)},{fmt(dice)},{fmt(aux)},{repr(float(miou))}"


def _evaluate(model, images, masks, batch_size: int, num_classes: int):
    """Eval pass: (mean total loss, mean ce, mean dice, mIoU)."""
    cm = tr.ConfusionMatrix(num_classes)
    losses, ces, dices = [], [], []
    for start in range(0, len(images), batch_size):
        batch = np.stack(images[start:start + batch_size])
        labels = np.stack(masks[start:start + batch_size]).astype(np.int64)
        logits, _ = model.forward(Tensor(batch), train=False)
        bundle = tr.total_loss(logits, [], labels, train=False)
        losses.append(bundle.total.item())
        ces.append(bundle.ce.item())
        dices.append(bundle.dice.item())
        cm.update(np.argmax(logits.data, axis=1), labels)
    miou = cm.finalize().miou
    return float(np.mean(losses)), float(np.mean(ces)), float(np.mean(dices)), miou


def run_train_toy(cfg: RunConfig, out_dir: str) -> dict:
    """The toy training loop; returns a summary dict (also written as files)."""
    from .rng import stream

    os.makedirs(out_dir, exist_ok=True)
    seed = cfg.seed
    size = cfg["data.image_size"]
    train_set = synthetic.make_dataset(seed, "train", cfg["data.train_count"], size)
    val_set = synthetic.make_dataset(seed, "val", cfg["data.val_count"], size)
    mean, std = cfg["data.mean"], cfg["data.std"]
    train_images = [tr.standardize(img.astype(np.float64), mean, std) for img, _ in train_set]
    train_masks = [mask for _, mask in train_set]
    val_images = [tr.standardize(img.astype(np.float64), mean, std) for img, _ in val_set]
    val_masks = [mask for _, mask in val_set]

    dcfg = cfg.decoder_config()
    model = build_model(dcfg, seed)
    opt = tr.AdamW(model.store,
                   {"encoder": cfg["train.encoder_lr"], "decoder": cfg["train.decoder_lr"]},
                   weight_decay=cfg["train.weight_decay"])

    epochs = cfg["train.epochs"]
    batch_size = cfg["train.batch_size"]
    aux_weight = cfg["train.aux_weight"]
    num_classes = cfg["model.num_classes"]
    n_train = len(train_images)
    steps_per_epoch = -(-n_train // batch_size)
    total_steps = max(1, epochs * steps_per_epoch)
    # The configured lr_min applies to the decoder group; every group decays
    # by the same cosine factor, so the encoder floor scales proportionally.
    floor = cfg["train.lr_min"] / cfg["train.decoder_lr"]

    rows = []
    loss0, ce0, dice0, miou0 = _evaluate(model, val_images, val_masks, batch_size, num_classes)
    rows.append(_epoch_row(0, loss0, ce0, dice0, None, miou0))
    print(f"epoch  0: val loss {loss0:.4f} miou {miou0:.4f} (init)")

    step = 0
    for epoch in range(1, epochs + 1):
        order = stream(seed, "train.order", str(epoch)).permutation(n_train)
        aug_rng = stream(seed, "train.augment", str(epoch))
        sums = {"total": 0.0, "ce": 0.0, "dice": 0.0, "aux": 0.0}
        for start in range(0, n_train, batch_size):
            chunk = order[start:start + batch_size]
            images, labels = [], []
            for idx in chunk:
                img, msk = train_images[idx], train_masks[idx]
                if cfg["train.augment"]:
                    img, msk = tr.augment(img, msk, aug_rng)
                images.append(img)
                labels.append(msk.astype(np.int64))
            batch = Tensor(np.stack(images))
            target = np.stack(labels)
            with Tape() as tape:
                logits, aux_logits = model.forward(batch, train=True)
                bundle = tr.total_loss(logits, aux_logits, target, train=True,
                                       aux_weight=aux_weight)
            total = bundle.total.item()
            if not np.isfinite(total):
                raise tr.DivergenceError(f"non-finite loss at step {step + 1}")
            grads = tape.backward(bundle.total)
            lr_scale = tr.cosine_lr(step, total_steps, 1.0, floor)
            opt.step(grads, lr_scale)
            step += 1
            sums["total"] += total * len(chunk)
            sums["ce"] += bundle.ce.item() * len(chunk)
            sums["dice"] += bundle.dice.item() * len(chunk)
            sums["aux"] += bundle.aux.item() * len(chunk)

        _, _, _, miou = _evaluate(model, val_images, val_masks, batch_size, num_classes)
        rows.append(_epoch_row(epoch, sums["total"] / n_train, sums["ce"] / n_train,
                               sums["dice"] / n_train, sums["aux"] / n_train, miou))
        print(f"epoch {epoch:>2}: train loss {sums['total'] / n_train:.4f} val miou {miou:.4f}")
        if miou >= cfg["train.stop_miou"]:
            print(f"stopping: val miou reached {cfg['train.stop_miou']}")
            break

    csv = "epoch,loss,ce,dice,aux,val_miou\n" + "\n".join(rows) + "\n"
    _write(os.path.join(out_dir, "metrics.csv"), csv)
    ckpt = os.path.join(out_dir, "checkpoint.lftc")
    save_checkpoint(model.store, ckpt)
    final_miou = float(rows[-1].rsplit(",", 1)[1])
    return {"epochs_run": len(rows) - 1, "final_miou": final_miou,
            "checkpoint": ckpt, "metrics": os.path.join(out_dir, "metrics.csv")}


def cmd_train_toy(cfg: RunConfig, args) -> int:
    # A bad model config exits 2 before anything is written.
    if not cfg.decoder_config().aux_heads:
        raise ConfigError("model.aux_heads=false: training needs the auxiliary heads, "
                          "whose losses are part of the objective")
    classes = len(synthetic.CLASS_COLORS)
    if cfg["model.num_classes"] < classes:
        raise ConfigError(f"model.num_classes={cfg['model.num_classes']}: the synthetic "
                          f"data has {classes} classes")
    out_dir = _prepare_out(cfg, args)
    summary = run_train_toy(cfg, out_dir)
    print(f"done: {summary['epochs_run']} epochs, final val miou {summary['final_miou']:.4f}")
    return 0


def _image_and_model(cfg: RunConfig, args, check_image=lambda image: None):
    """Read and standardize ``args.image``, then load the model; create nothing.

    ``check_image(image)`` runs before the checkpoint is read, which is
    ``--checkpoint`` or else ``checkpoint.lftc`` in the output directory.
    """
    dcfg = cfg.decoder_config()
    image = _standardize_u8(fileio.read_ppm(args.image), cfg)
    check_image(image)
    checkpoint = args.checkpoint or os.path.join(cfg["run.out_dir"], "checkpoint.lftc")
    if not os.path.exists(checkpoint):
        raise FileNotFoundError(f"checkpoint not found: {checkpoint}")
    model = build_model(dcfg, cfg.seed)
    load_checkpoint(model.store, checkpoint)
    return image, model


def cmd_infer(cfg: RunConfig, args) -> int:
    window, stride = cfg["infer.window"], cfg["infer.stride"]

    def check_windows(image):
        try:
            for length in image.shape[-2:]:
                tr.window_placements(length, window, stride)
        except ValueError as exc:
            raise ConfigError(f"infer.window={window}, infer.stride={stride}: {exc}") from exc

    image, model = _image_and_model(cfg, args, check_windows)
    out_dir = _prepare_out(cfg, args)
    # Inference runs forward only, so eval batch norms fold into their convs.
    fold_batch_norms(model)
    num_classes = cfg["model.num_classes"]

    def infer_fn(tile: np.ndarray) -> np.ndarray:
        h, w = tile.shape[-2:]
        logits, _ = model.forward(Tensor(_pad_to_multiple(tile)[None].astype(np.float32)), train=False)
        return logits.data[0, :, :h, :w]

    logits = tr.sliding_window_infer(image, window, stride, infer_fn, num_classes)
    mask = np.argmax(logits, axis=0).astype(np.uint8)
    stem = os.path.splitext(os.path.basename(args.image))[0]
    mask_path = os.path.join(out_dir, f"{stem}_mask.pgm")
    fileio.write_pgm(mask_path, mask)
    print(f"mask written to {mask_path}")
    if cfg["infer.save_logits"]:
        logits_path = os.path.join(out_dir, f"{stem}_logits.lftr")
        fileio.write_tensor(logits_path, logits)
        print(f"logits written to {logits_path}")
    return 0


def attention_entropy_map(entry: dict) -> np.ndarray:
    """Per-pixel attention entropy in [0, 1] from a captured probs record.

    Rows of the window-attention matrix are distributions over the window;
    their entropy is normalized by ln(window area) and averaged over heads,
    then the window grid is stitched back and padding cropped away.
    """
    probs = entry["probs"]
    b, hh, ww = entry["batch"], entry["rows"], entry["cols"]
    heads, ws = entry["heads"], entry["window"]
    entropy = -np.sum(probs * np.log(np.clip(probs, 1e-12, None)), axis=-1)
    entropy = entropy.reshape(b, hh, ww, heads, ws, ws).mean(axis=3)
    entropy = entropy.transpose(0, 1, 3, 2, 4).reshape(b, hh * ws, ww * ws)
    return entropy[:, :entry["height"], :entry["width"]] / np.log(ws * ws)


def _to_heat_pgm(path: str, unit_map: np.ndarray) -> None:
    """Write a [0,1] map as PGM without contrast stretching."""
    fileio.write_pgm(path, np.clip(unit_map * 255.0 + 0.5, 0, 255).astype(np.uint8))


def cmd_dump_attn(cfg: RunConfig, args) -> int:
    image, model = _image_and_model(cfg, args)
    out_dir = _prepare_out(cfg, args)
    padded = _pad_to_multiple(image)
    with capture() as maps:
        model.forward(Tensor(padded[None]), train=False)

    def crop(m: np.ndarray) -> np.ndarray:
        # A map at stride s keeps the ceil(side / s) cells that see the image.
        (h, w), (hp, wp) = image.shape[-2:], padded.shape[-2:]
        return m[: -(-h * m.shape[0] // hp), : -(-w * m.shape[1] // wp)]

    written = []
    for stage in (1, 2, 3):
        entry = maps[f"decoder.lcrm{stage}.global.attn.probs"]
        heat = crop(attention_entropy_map(entry)[0])
        path = os.path.join(out_dir, f"attn_lcrm{stage}.pgm")
        _to_heat_pgm(path, heat)
        written.append(path)
    sism_map = crop(maps["decoder.sism.attn"][0, 0])
    # Mathematically the sigmoid stays inside (0, 1); float32 rounding may
    # touch the endpoints once the head saturates, which is still valid.
    if sism_map.min() < 0.0 or sism_map.max() > 1.0:
        raise RuntimeError("spatial attention map escaped the sigmoid range [0,1]")
    path = os.path.join(out_dir, "attn_sism.pgm")
    _to_heat_pgm(path, sism_map)
    written.append(path)
    for p in written:
        print(f"wrote {p}")
    return 0


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lightformer",
                                     description="Segmentation decoder toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override one config value")
        p.add_argument("--out", help="output directory; sets run.out_dir")

    p = sub.add_parser("analyze", help="static parameter/FLOP reports")
    common(p)
    p.add_argument("--shape", action="append",
                   help="B,C,H,W for the channel-management table (repeatable)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    common(p)
    p.add_argument("--op", help="only run cases whose name contains this substring")
    p.add_argument("--instances", type=_positive_int, default=5, help="instances per case")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="train on the synthetic three-class set")
    common(p)
    p.add_argument("--epochs", type=int, help="sets train.epochs")
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("infer", help="sliding-window inference on a PPM image")
    common(p)
    p.add_argument("image", help="input PPM image")
    p.add_argument("--checkpoint", help="checkpoint path (default: run.out_dir/checkpoint.lftc)")
    p.add_argument("--window", type=int, help="sets infer.window")
    p.add_argument("--stride", type=int, help="sets infer.stride")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("dump-attn", help="write attention/selection heatmaps")
    common(p)
    p.add_argument("image", help="input PPM image")
    p.add_argument("--checkpoint", help="checkpoint path (default: run.out_dir/checkpoint.lftc)")
    p.set_defaults(fn=cmd_dump_attn)
    return parser


_FLAG_KEYS = {"out": "run.out_dir", "epochs": "train.epochs",
              "window": "infer.window", "stride": "infer.stride"}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = load(args.config, args.overrides)
        # Flags that stand for config keys win over --set, and the echo records them.
        for flag, key in _FLAG_KEYS.items():
            if (value := getattr(args, flag, None)) is not None:
                cfg.set(key, str(value))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.fn(cfg, args)
    except ConfigError as exc:
        # Post-parse validation of command flags and overrides.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except tr.DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
