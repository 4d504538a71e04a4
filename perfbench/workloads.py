"""The three workloads: the program's ``train-toy``, ``infer`` and ``gradcheck``.

Each workload drives the package through its CLI entry point
(``lightformer.cli.main``) in this process. A *round* is one call of that
command; a run repeats whole rounds. Every round checks its own outputs
with the scoring code in this file (never against stored outputs), and
reports its per-step times through one light probe that wraps a single
public callable with a clock:

* ``train_toy``: ``training.total_loss`` (a step is the interval between
  consecutive training-mode loss calls within an epoch; the probe also
  records each step's loss for the finiteness check);
* ``infer_scene``: the ``infer_fn`` handed to ``training.sliding_window_infer``
  (a step is one tile forward);
* ``gradcheck``: ``gradcheck.check_gradients`` and the case function it is
  given (a round's one step is its mean forward time over every case).

Set-up time is the program's own start-up: a CLI call that is stopped at
its first timed operation (the first ``Model.forward``, or the first
gradient case), timed from the call to that point.

The same probes take samples of the machine's speed between steps (see
``Speed``). Every interval is timed on ``Speed.clock``, which leaves those
samples out.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import os
import shutil
import sys
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from lightformer import cli, gradcheck, network, synthetic, training
from lightformer.config import load as load_config
from lightformer.tensor import Tape, Tensor

TILE = 64  # side of one synthetic.make_sample tile in the inference scene
# The speed probe: a fixed pure-Python loop, and its time at the reference
# speed (the usual speed of the 2-vCPU Xeon VM in README.md, where it takes
# 9-10 ms). A sample is taken at most every SPEED_EVERY_S seconds.
SPEED_LOOP = 150_000
SPEED_REF_S = 0.010
SPEED_EVERY_S = 0.25
# The gradient suite's whole-network case fails on some seeds (seed 204:
# max_err 3.35e-3 against a tol of 1e-4), so a run's failure share would
# depend on its seed. The gradcheck workload leaves that case out.
E2E_CASE = "decoder.total_loss.e2e"


@dataclass(frozen=True)
class Size:
    """Everything that differs between the measured size and the self-test size."""

    epochs: int
    train_overrides: tuple
    window: int
    stride: int
    scene_hw: tuple
    gradcheck_op: str | None
    miou_floor: float


# The pinned toy recipe for 2 epochs; default 1024/512 inference windows over
# a scene whose sides lie between one window and one window plus one stride
# (2 x 2 overlapping tiles, the second in each axis a clamped tail tile).
FULL = Size(epochs=2, train_overrides=(), window=1024, stride=512, scene_hw=(1120, 1248),
            gradcheck_op=None, miou_floor=0.8)
TINY = Size(epochs=1, train_overrides=("data.train_count=16", "data.val_count=8"),
            window=64, stride=48, scene_hw=(80, 112), gradcheck_op="conv2d.1x1", miou_floor=0.05)


@dataclass
class Round:
    """What one CLI call did: its wall time, step times, and check results."""

    wall_s: float
    steps_s: list
    attempted: int
    failed: int
    quality: float
    outputs: list
    errors: list = field(default_factory=list)


def train_settings(seed: int, size: Size) -> list:
    # stop_miou above 1 can never trigger, so every run trains every epoch.
    return [f"run.seed={seed}", "train.stop_miou=2.0", *size.train_overrides]


def train_argv(out: str, seed: int, size: Size) -> list:
    argv = ["train-toy", "--out", out, "--epochs", str(size.epochs)]
    return argv + [arg for pair in train_settings(seed, size) for arg in ("--set", pair)]


class _StopAtFirstStep(Exception):
    """Raised by the set-up probe at the program's first timed operation."""


@contextlib.contextmanager
def _patched(owner, attr: str, make):
    orig = getattr(owner, attr)
    setattr(owner, attr, make(orig))
    try:
        yield
    finally:
        setattr(owner, attr, orig)


def _quiet_main(argv) -> int:
    """``lightformer`` CLI call with its progress lines sent to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


def miou(pred: np.ndarray, truth: np.ndarray, num_classes: int) -> float:
    """Mean IoU over classes present in truth or prediction."""
    pred = pred.astype(np.int64).ravel()
    truth = truth.astype(np.int64).ravel()
    if pred.size != truth.size or pred.min() < 0 or pred.max() >= num_classes:
        raise ValueError("prediction does not match the label space")
    cm = np.bincount(truth * num_classes + pred, minlength=num_classes ** 2)
    cm = cm.reshape(num_classes, num_classes).astype(np.float64)
    tp = np.diag(cm)
    union = cm.sum(axis=0) + cm.sum(axis=1) - tp
    present = union > 0
    return float(np.mean(tp[present] / union[present]))


def read_pgm(path: str) -> np.ndarray:
    """A binary 8-bit PGM as written by the program (no header comments)."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(maxsplit=4)
    if len(parts) != 5 or parts[0] != b"P5" or parts[3] != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    width, height = int(parts[1]), int(parts[2])
    payload = parts[4]
    if len(payload) != width * height:
        raise ValueError(f"{path}: payload {len(payload)} bytes for {width}x{height}")
    return np.frombuffer(payload, np.uint8).reshape(height, width)


def placements(length: int, window: int, stride: int) -> int:
    """How many window positions cover ``length`` (regular grid + clamped tail)."""
    if window >= length:
        return 1
    regular = (length - window) // stride + 1
    return regular + (1 if (regular - 1) * stride != length - window else 0)


def source_digest(root: str) -> str:
    """Hash of the package sources, so prepared inputs follow the program."""
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "lightformer")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


class Speed:
    """Samples of the machine's momentary speed, taken between units of work.

    The shared VM this benchmark was built on changes speed by up to 1.7x, in
    phases of seconds to minutes, and a fixed pure-Python loop slows with it
    (README.md, "Machine"). ``scale()`` turns a time measured in this run
    into one at the reference speed. With ``every_s=None`` (traced runs)
    ``between()`` takes no samples.
    """

    def __init__(self, every_s: float | None = SPEED_EVERY_S):
        self.every_s = every_s
        self.samples = []
        self.spent = 0.0  # seconds spent in samples so far
        self._last = -math.inf

    def clock(self) -> float:
        """Seconds, not counting the time spent in samples."""
        return perf_counter() - self.spent

    def sample(self) -> None:
        start = perf_counter()
        total = 0
        for i in range(SPEED_LOOP):
            total += i
        self._last = perf_counter()
        self.samples.append(self._last - start)
        self.spent += self._last - start

    def between(self) -> None:
        """A sample, unless one was taken in the last ``every_s`` seconds."""
        if self.every_s is not None and perf_counter() - self._last >= self.every_s:
            self.sample()

    def scale(self, first: int = 0) -> float:
        """Reference time of the loop over the median of its samples from
        the ``first`` on."""
        return SPEED_REF_S / float(np.median(self.samples[first:]))


def measure_setup(run_once, stop_owner, stop_attr: str, repeats: int, speed: Speed) -> float:
    """Median time from a CLI call to its first timed operation, with a
    speed sample before each call."""
    def stop(_orig):
        def probe(*args, **kwargs):
            raise _StopAtFirstStep
        return probe

    times = []
    with _patched(stop_owner, stop_attr, stop):
        for _ in range(repeats):
            speed.sample()
            start = perf_counter()
            try:
                run_once()
            except _StopAtFirstStep:
                times.append(perf_counter() - start)
            else:
                raise RuntimeError("the command finished without reaching its first timed step")
    return float(np.median(times))


def traced_peak(fn) -> int:
    """tracemalloc peak, in bytes, of one call of ``fn``."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class Workload:
    name = ""
    # Where the set-up probe stops the program: (owner, attribute).
    first_step = (network.Model, "forward")

    def __init__(self, root: str, seed: int, size: Size):
        self.root = root
        self.seed = seed
        self.size = size
        tag = "tiny-" if size is TINY else ""
        self.work = os.path.join(root, "perfbench", "out", f"{tag}{self.name}-{seed}")
        self.speed = Speed()
        os.makedirs(self.work, exist_ok=True)

    def out_dir(self, label: str) -> str:
        path = os.path.join(self.work, label)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def argv(self, out: str) -> list:
        raise NotImplementedError

    def prepare(self) -> None:
        """Inputs made before anything is timed."""

    def program(self):
        """Context that every CLI call of this workload runs in."""
        return contextlib.nullcontext()

    def setup_s(self, repeats: int) -> float:
        out = self.out_dir("setup")
        with self.program():
            return measure_setup(lambda: _quiet_main(self.argv(out)), *self.first_step, repeats,
                                 self.speed)

    def peak_bytes(self) -> int:
        raise NotImplementedError

    def command(self, out: str, around) -> tuple:
        """Exit code and wall time of one CLI call, made inside ``around()``."""
        with self.program(), around():
            start = self.speed.clock()
            code = _quiet_main(self.argv(out))
            return code, self.speed.clock() - start

    def round(self, label: str, around=contextlib.nullcontext) -> Round:
        """One checked CLI call; ``around`` wraps the call alone, not the checks."""
        raise NotImplementedError


class TrainToy(Workload):
    """``lightformer train-toy``: the pinned recipe for a fixed number of epochs."""

    name = "train_toy"

    def argv(self, out: str) -> list:
        return train_argv(out, self.seed, self.size)

    def config(self):
        return load_config(None, train_settings(self.seed, self.size))

    def _split(self, cfg, split: str, count_key: str):
        samples = synthetic.make_dataset(cfg.seed, split, cfg[count_key], cfg["data.image_size"])
        images = [training.standardize(img.astype(np.float64), cfg["data.mean"], cfg["data.std"])
                  for img, _ in samples]
        return images, [mask for _, mask in samples]

    def peak_bytes(self) -> int:
        """One train step of the recipe (first batch, no augmentation)."""
        cfg = self.config()
        images, masks = self._split(cfg, "train", "data.train_count")
        b = cfg["train.batch_size"]
        batch = Tensor(np.stack(images[:b]))
        labels = np.stack(masks[:b]).astype(np.int64)
        model = network.build_model(cfg.decoder_config(), cfg.seed)
        opt = training.AdamW(model.store, {"encoder": cfg["train.encoder_lr"],
                                           "decoder": cfg["train.decoder_lr"]},
                             weight_decay=cfg["train.weight_decay"])

        def step():
            with Tape() as tape:
                logits, aux = model.forward(batch, train=True)
                loss = training.total_loss(logits, aux, labels, train=True,
                                           aux_weight=cfg["train.aux_weight"]).total
            opt.step(tape.backward(loss))

        return traced_peak(step)

    def score_checkpoint(self, cfg, checkpoint: str) -> float:
        """mIoU of a checkpoint on the validation split, scored here."""
        images, masks = self._split(cfg, "val", "data.val_count")
        model = network.build_model(cfg.decoder_config(), cfg.seed)
        network.load_checkpoint(model.store, checkpoint)
        b = cfg["train.batch_size"]
        preds = []
        for start in range(0, len(images), b):
            logits, _ = model.forward(Tensor(np.stack(images[start:start + b])), train=False)
            preds.append(np.argmax(logits.data, axis=1))
        return miou(np.concatenate(preds), np.stack(masks), cfg["model.num_classes"])

    def round(self, label: str, around=contextlib.nullcontext) -> Round:
        out = self.out_dir(label)
        calls = []  # (start time, train mode, total loss)

        def probe(orig):
            def total_loss(*args, **kwargs):
                self.speed.between()
                start = self.speed.clock()
                bundle = orig(*args, **kwargs)
                calls.append((start, bool(kwargs.get("train", args[3] if len(args) > 3 else False)),
                              bundle.total.item()))
                return bundle
            return total_loss

        with _patched(training, "total_loss", probe):
            code, wall = self.command(out, around)

        cfg = self.config()
        errors = []
        train_losses = [loss for _, is_train, loss in calls if is_train]
        steps = [b[0] - a[0] for a, b in zip(calls, calls[1:]) if a[1] and b[1]]
        bad = sum(not math.isfinite(loss) for loss in train_losses)
        want_steps = self.size.epochs * -(-cfg["data.train_count"] // cfg["train.batch_size"])
        if code != 0:
            errors.append(f"train-toy exited {code}")
        if len(train_losses) != want_steps:
            errors.append(f"{len(train_losses)} train steps, expected {want_steps}")
        quality = 0.0
        metrics_csv = os.path.join(out, "metrics.csv")
        checkpoint = os.path.join(out, "checkpoint.lftc")
        if code == 0:
            with open(metrics_csv, encoding="utf-8") as fh:
                rows = fh.read().split()
            if len(rows) != self.size.epochs + 2:
                errors.append(f"metrics.csv has {len(rows) - 1} epoch rows, expected {self.size.epochs + 1}")
            quality = float(rows[-1].rsplit(",", 1)[1])
            scored = self.score_checkpoint(cfg, checkpoint)
            if abs(scored - quality) > 1e-9:
                errors.append(f"val_miou {quality} in metrics.csv, {scored} scored from the checkpoint")
            if quality < self.size.miou_floor:
                errors.append(f"val_miou {quality:.4f} below the floor {self.size.miou_floor}")
        return Round(wall, steps, attempted=len(calls), failed=bad, quality=quality,
                     outputs=[metrics_csv, checkpoint], errors=errors)


class InferScene(Workload):
    """``lightformer infer`` on a generated scene with a prepared checkpoint."""

    name = "infer_scene"

    def prepare(self) -> None:
        self.scene = os.path.join(self.work, "scene.ppm")
        self.truth = self.make_scene(self.scene)
        self.checkpoint = prepare_checkpoint(self.root, self.size)

    def make_scene(self, path: str) -> np.ndarray:
        """Write a mosaic of generator tiles as PPM; return its ground-truth mask."""
        h, w = self.size.scene_hw
        rows, cols = -(-h // TILE), -(-w // TILE)
        image = np.zeros((3, rows * TILE, cols * TILE), dtype=np.float32)
        mask = np.zeros((rows * TILE, cols * TILE), dtype=np.uint8)
        for r in range(rows):
            for c in range(cols):
                img, msk = synthetic.make_sample(self.seed, "perfbench.scene", r * cols + c, TILE)
                image[:, r * TILE:(r + 1) * TILE, c * TILE:(c + 1) * TILE] = img
                mask[r * TILE:(r + 1) * TILE, c * TILE:(c + 1) * TILE] = msk
        pixels = np.rint(image[:, :h, :w].transpose(1, 2, 0) * 255.0).astype(np.uint8)
        with open(path, "wb") as fh:
            fh.write(f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())
        return mask[:h, :w]

    def argv(self, out: str) -> list:
        return ["infer", self.scene, "--out", out, "--checkpoint", self.checkpoint,
                "--window", str(self.size.window), "--stride", str(self.size.stride)]

    def peak_bytes(self) -> int:
        """One tile forward at the window size."""
        cfg = load_config(None, [])
        model = network.build_model(cfg.decoder_config(), cfg.seed)
        network.load_checkpoint(model.store, self.checkpoint)
        rng = np.random.default_rng(self.seed)
        tile = Tensor(rng.standard_normal((1, 3, self.size.window, self.size.window)).astype(np.float32))
        return traced_peak(lambda: model.forward(tile, train=False))

    def round(self, label: str, around=contextlib.nullcontext) -> Round:
        out = self.out_dir(label)
        tiles = []

        def probe(orig):
            def sliding_window_infer(image, window, stride, infer_fn, num_classes):
                def timed(tile):
                    self.speed.between()
                    start = self.speed.clock()
                    logits = infer_fn(tile)
                    tiles.append(self.speed.clock() - start)
                    return logits
                return orig(image, window, stride, timed, num_classes)
            return sliding_window_infer

        with _patched(training, "sliding_window_infer", probe):
            code, wall = self.command(out, around)

        h, w = self.size.scene_hw
        want = (placements(h, self.size.window, self.size.stride)
                * placements(w, self.size.window, self.size.stride))
        errors = []
        mask_path = os.path.join(out, "scene_mask.pgm")
        quality = 0.0
        if code != 0:
            errors.append(f"infer exited {code}")
        if len(tiles) != want:
            errors.append(f"{len(tiles)} tiles, expected {want}")
        if code == 0:
            mask = read_pgm(mask_path)
            if mask.shape != (h, w):
                errors.append(f"mask is {mask.shape}, scene is {(h, w)}")
            else:
                quality = miou(mask, self.truth, load_config(None, [])["model.num_classes"])
                if quality < self.size.miou_floor:
                    errors.append(f"scene_miou {quality:.4f} below the floor {self.size.miou_floor}")
        return Round(wall, tiles, attempted=want, failed=0 if code == 0 else want,
                     quality=quality, outputs=[mask_path], errors=errors)


def _without_e2e(block_cases):
    def filtered(*args, **kwargs):
        return [c for c in block_cases(*args, **kwargs) if not c[0].startswith(E2E_CASE)]
    return filtered


class GradCheck(Workload):
    """``lightformer gradcheck --instances 1``: the finite-difference suite
    without its whole-network case (see ``E2E_CASE``)."""

    name = "gradcheck"
    first_step = (gradcheck, "check_gradients")

    def argv(self, out: str) -> list:
        argv = ["gradcheck", "--instances", "1", "--out", out, "--set", f"run.seed={self.seed}"]
        return argv + (["--op", self.size.gradcheck_op] if self.size.gradcheck_op else [])

    def program(self):
        return _patched(gradcheck, "block_cases", _without_e2e)

    def cases(self) -> list:
        """(name, fn, wrt, tol, max_coords) for every case the command runs."""
        bundle = gradcheck.op_cases(self.seed, 0) + _without_e2e(gradcheck.block_cases)(self.seed, 0)
        op = self.size.gradcheck_op
        return [(c[0], c[1], c[2], c[3], c[4] if len(c) > 4 else None)
                for c in bundle if not op or op in c[0]]

    def peak_bytes(self) -> int:
        """Every case at one coordinate: its taped pass plus one probe.

        More coordinates repeat the same allocations, so this is the peak of
        the whole suite at a small fraction of its cost under tracemalloc.
        """
        cases = self.cases()

        def suite():
            for name, fn, wrt, tol, _ in cases:
                gradcheck.check_gradients(fn, wrt[:1], tol=tol, name=name, seed=self.seed,
                                          max_coords=1)

        return traced_peak(suite)

    def round(self, label: str, around=contextlib.nullcontext) -> Round:
        out = self.out_dir(label)
        results = []  # CheckResult per case
        forwards = []  # time of each forward of every case's function

        def probe(orig):
            def check_gradients(fn, *args, **kwargs):
                def timed():
                    self.speed.between()
                    start = self.speed.clock()
                    value = fn()
                    forwards.append(self.speed.clock() - start)
                    return value

                result = orig(timed, *args, **kwargs)
                results.append(result)
                return result
            return check_gradients

        with _patched(gradcheck, "check_gradients", probe):
            code, wall = self.command(out, around)

        want = len(self.cases())
        failed = sum(not (r.max_err < r.tol) for r in results)
        errors = []
        if len(results) != want:
            errors.append(f"{len(results)} gradient cases ran, expected {want}")
        if (code == 0) != (failed == 0):
            errors.append(f"gradcheck exited {code} with {failed} failing cases")
        report = os.path.join(out, "gradcheck.txt")
        with open(report, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if len(lines) != len(results) or sum(line.startswith("ok ") for line in lines) != len(results) - failed:
            errors.append("gradcheck.txt disagrees with the cases that ran")
        quality = (len(results) - failed) / len(results) if results else 0.0
        # Forwards range from tens of microseconds (op cases) to milliseconds
        # (block cases), so a median over them jumps between case kinds. The
        # round's step is its mean forward time instead.
        steps = [sum(forwards) / len(forwards)] if forwards else []
        return Round(wall, steps, attempted=len(results), failed=failed,
                     quality=quality, outputs=[report], errors=errors)


def prepare_checkpoint(root: str, size: Size) -> str:
    """The train-toy checkpoint (seed 0) used by ``infer_scene``, made once.

    It is cached under the hash of the package sources, so a changed
    program trains its own checkpoint. Its cost counts in no metric.
    """
    tag = "tiny-" if size is TINY else ""
    cache = os.path.join(root, "perfbench", "out", "cache", f"{tag}checkpoint-{source_digest(root)}")
    path = os.path.join(cache, "checkpoint.lftc")
    if os.path.exists(path):
        return path
    tmp = cache + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    code = _quiet_main(train_argv(tmp, 0, size))
    if code != 0:
        raise RuntimeError(f"train-toy exited {code} while preparing the checkpoint")
    shutil.rmtree(cache, ignore_errors=True)
    os.replace(tmp, cache)
    return path


WORKLOADS = {w.name: w for w in (TrainToy, InferScene, GradCheck)}
