"""Losses, optimizer, schedule, metrics, and the data-path utilities.

Loss conventions: labels are integer arrays of shape (B, H, W); the value
255 marks ignored pixels, which are excluded from every average. The
composite objective is CE + Dice on the main logits plus 0.4 times the
mean auxiliary CE during training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .params import ParamStore
from .tensor import ShapeError, Tensor

IGNORE_LABEL = 255
DICE_EPS = 1e-6  # added to the Dice denominator p_true + 1


class DivergenceError(RuntimeError):
    """A gradient or update became non-finite; the message names param and step."""


def _prep_targets(logits: Tensor, labels):
    """One-hot targets, the not-ignored mask and its count; validates label range.

    Returns ``(onehot, mask, count)``: two constant arrays of the logits'
    shape and dtype (the mask with one channel) and the number of kept
    pixels. Ignored pixels get class 0 in the one-hot; the mask zeroes them.
    """
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise TypeError(f"labels must be integers, got {labels.dtype}")
    b, k, h, w = logits.shape
    if labels.shape != (b, h, w):
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    keep = labels != IGNORE_LABEL
    bad = keep & ((labels < 0) | (labels >= k))
    if bad.any():
        offender = labels[bad].flat[0]
        raise ValueError(f"label {offender} outside [0, {k}) and not the ignore value {IGNORE_LABEL}")
    count = int(keep.sum())
    if count == 0:
        raise ValueError("every pixel is ignored; loss is undefined")
    safe = np.where(keep, labels, 0)
    onehot = (safe[:, None] == np.arange(k).reshape(1, k, 1, 1)).astype(logits.dtype)
    mask = keep[:, None, :, :].astype(logits.dtype)
    return onehot, mask, count


def _loss_node(logits: Tensor, onehot, mask, count: int, ce: bool, dice: bool):
    """CE and/or Dice of one logits map as one tape node; returns ``(loss, ce, dice)``.

    The forward runs the ufuncs the composed ops ran (softmax, the true-class
    probability p_t, clamp, log, masked sums and their final scales) in the
    logits' dtype, so each term has their bytes; ``loss`` is the sum of the
    terms asked for, ``ce`` and ``dice`` are their values (None when not
    asked for). The adjoint is the closed form g·dL/dp_t·p_t·(onehot − p)
    over the kept pixels, with p_t·dL/dp_t = −[p_t ≥ 1e-12]/count for CE
    (the clamp's zero-gradient region) and −2c·p_t/((p_t + c)²·count) for
    Dice, c = 1 + DICE_EPS.
    """
    x = logits.data
    dtype = x.dtype
    p = np.subtract(x, np.maximum.reduce(x, axis=1, keepdims=True))
    np.exp(p, out=p)
    np.divide(p, np.add.reduce(p, axis=1, keepdims=True), out=p)
    p_t = np.add.reduce(p * onehot, axis=(1,), keepdims=True)
    floor = np.asarray(1e-12, dtype=dtype)
    c = np.asarray(1.0 + DICE_EPS, dtype=dtype)
    everything = (0, 1, 2, 3)
    ce_value = dice_value = None
    if ce:
        logs = np.log(np.maximum(p_t, floor))
        ce_value = np.add.reduce(logs * mask, axis=everything) * dtype.type(-1.0 / count)
    if dice:
        overlap = p_t / (p_t + c)
        dice_value = np.add.reduce(overlap * mask, axis=everything) * dtype.type(-2.0 / count) + dtype.type(1.0)
    value = ce_value + dice_value if ce and dice else ce_value if ce else dice_value

    def backward(g):
        # coef ends as -g·p_t·dL/dp_t, summed over the terms, so that
        # gx = coef·(p - onehot).
        coef = (p_t >= floor).astype(dtype) if ce else np.zeros_like(p_t)
        if dice:
            d = p_t + c
            coef += (2 * c) * p_t / (d * d)
        coef *= mask
        coef *= g / count
        gx = p - onehot
        gx *= coef
        return (gx,)

    return ops._result("loss", (logits,), np.asarray(value), backward), ce_value, dice_value


def cross_entropy_loss(logits: Tensor, labels) -> Tensor:
    """Mean -log p(true class) over non-ignored pixels, clamped at 1e-12.

    One tape node, whose adjoint is (p - onehot)/count on the kept pixels
    whose p(true class) is at least 1e-12, and zero elsewhere.
    """
    onehot, mask, count = _prep_targets(logits, labels)
    return _loss_node(logits, onehot, mask, count, ce=True, dice=False)[0]


def dice_loss(logits: Tensor, labels) -> Tensor:
    """1 - (2/N) sum p_true/(p_true + 1 + DICE_EPS); zero iff every p_true is 1.

    The class sum collapses to the true-class term because the target is
    one-hot: off-class terms contribute p*0/(p+0+eps) = 0. One tape node,
    whose adjoint runs through p_true in closed form (see ``_loss_node``).
    """
    onehot, mask, count = _prep_targets(logits, labels)
    return _loss_node(logits, onehot, mask, count, ce=False, dice=True)[0]


@dataclass
class LossBundle:
    total: Tensor
    ce: Tensor
    dice: Tensor
    aux: Tensor | None


def total_loss(logits: Tensor, aux_logits, labels, train: bool,
               aux_weight: float = 0.4) -> LossBundle:
    """CE + Dice, plus ``aux_weight`` times the mean auxiliary CE in training.

    The targets are built once and shared by every term, so each aux logits
    map must have the main logits' shape and dtype. The main logits' CE +
    Dice is one tape node with one softmax, each aux CE another, and the aux
    mean and weight are rank-0 ``add`` and ``mul`` nodes. Every term has the
    bytes of its public loss function. ``ce`` and ``dice`` are values off
    the tape; ``total`` and ``aux`` carry the gradients.
    """
    onehot, mask, count = _prep_targets(logits, labels)
    if train:
        if not aux_logits:
            raise ValueError("training mode requires auxiliary logits (aux heads are part of the objective)")
        for i, a in enumerate(aux_logits):
            if a.shape != logits.shape or a.dtype != logits.dtype:
                raise ShapeError(f"aux logits {i} are {a.dtype.name} {a.shape}, but the main logits "
                                 f"are {logits.dtype.name} {logits.shape}")
    elif aux_logits:
        raise ValueError("eval mode received auxiliary logits; they are train-only")
    total, ce, dice = _loss_node(logits, onehot, mask, count, ce=True, dice=True)
    aux = None
    if train:
        terms = [_loss_node(a, onehot, mask, count, ce=True, dice=False)[0] for a in aux_logits]
        acc = terms[0]
        for t in terms[1:]:
            acc = ops.add(acc, t)
        aux = ops.mul(acc, 1.0 / len(terms))
        total = ops.add(total, ops.mul(aux, aux_weight))
    return LossBundle(total=total, ce=Tensor(ce), dice=Tensor(dice), aux=aux)


class AdamW:
    """Decoupled-weight-decay Adam (Loshchilov & Hutter, 2019) over a ParamStore.

    The moment decays and the epsilon are the class constants ``beta1``,
    ``beta2`` and ``eps``. ``lr_groups`` maps name prefixes to base learning
    rates; the longest matching prefix wins and every parameter must match
    one. Decay is applied multiplicatively before the moment update, so one
    step with a zero gradient multiplies a parameter by exactly (1 - lr * wd).

    The state lives in flat buffers. One buffer holds every trainable
    tensor, laid out one lr group after another (store order within a
    group), and each tensor's ``.data`` is rebound to its view of it; the
    moments are flat too. These views are live: every step overwrites them
    in place, so a reference to a parameter's ``.data`` follows the
    training (``ParamStore.state_arrays`` returns copies). A step copies
    the gradients into one flat gradient of that layout and dtype (zeros
    for a missing one) and checks it once: a non-finite value, or one that
    overflows in the cast, raises ``DivergenceError`` naming the first such
    parameter in store order, before anything moves. Then, in 256 KiB
    blocks of each lr group, in-place ``out=`` ufuncs follow the order of
    the per-tensor formulas, so the bytes are the same as updating each
    tensor on its own. Between steps the optimizer holds the parameters and
    the two moments, as a per-tensor update would. A tensor whose ``.data``
    was rebound since (by ``ParamStore.load_state``, say) is copied back in
    and rebound at the next step; it must keep its shape and dtype.
    """

    # A step walks the flat buffers in blocks of this many bytes, so that a
    # block's slices of all five arrays stay in cache between its ufuncs.
    _BLOCK_BYTES = 1 << 18
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, store: ParamStore, lr_groups: dict, weight_decay: float = 1e-2):
        self.store = store
        self.lr_groups = dict(lr_groups)
        self.weight_decay = weight_decay
        self.step_count = 0
        named = store.trainable()
        dtypes = sorted({t.dtype.name for _, t in named})
        if len(dtypes) > 1:
            raise ShapeError(f"AdamW: trainable tensors mix dtypes {dtypes}")
        members = {}
        for name, t in named:
            members.setdefault(self._base_lr(name), []).append((name, t))
        total = sum(t.size for _, t in named)
        dtype = np.dtype(dtypes[0] if dtypes else np.float32)
        self._flat, self._m, self._v = (np.zeros(total, dtype=dtype) for _ in range(3))
        block = self._BLOCK_BYTES // dtype.itemsize
        self._blocks = []  # (base lr, slice of the flat buffers)
        slots = {}
        start = 0
        for lr, group in members.items():
            begin = start
            for name, t in group:
                part = slice(start, start + t.size)
                view = self._flat[part].reshape(t.shape)
                view[...] = t.data
                t.data = view
                slots[name] = (view, part)
                start += t.size
            self._blocks += [(lr, slice(b0, min(b0 + block, start))) for b0 in range(begin, start, block)]
        self._slots = [(name, t, *slots[name]) for name, t in named]  # store order

    def _base_lr(self, name: str) -> float:
        best = None
        for prefix, lr in self.lr_groups.items():
            if name.startswith(prefix) and (best is None or len(prefix) > len(best)):
                best = prefix
        if best is None:
            raise KeyError(f"parameter {name!r} matches no learning-rate group "
                           f"{sorted(self.lr_groups)}")
        return self.lr_groups[best]

    def step(self, grads, lr_scale: float = 1.0) -> None:
        """One update from ``{parameter: gradient}``; a missing gradient counts as zero."""
        t = self.step_count + 1
        # Made here, not kept: the step's peak is the backward sweep's.
        flat_g = np.empty_like(self._flat)
        for name, p, view, part in self._slots:
            if p.data is not view:
                if p.data.shape != view.shape or p.data.dtype != view.dtype:
                    raise ShapeError(f"AdamW: {name!r} is now {p.data.dtype.name}{list(p.data.shape)}, "
                                     f"expected {view.dtype.name}{list(view.shape)}")
                view[...] = p.data
                p.data = view
            g = grads.get(p)
            if g is None:
                flat_g[part] = 0
            elif g.shape != view.shape:
                raise ShapeError(f"AdamW: gradient for {name!r} has shape {list(g.shape)}, "
                                 f"expected {list(view.shape)}")
            else:
                flat_g[part].reshape(view.shape)[...] = g
        if not np.isfinite(flat_g).all():
            name = next(name for name, _, _, part in self._slots if not np.isfinite(flat_g[part]).all())
            raise DivergenceError(f"non-finite gradient for {name!r} at step {t}")
        self.step_count = t
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        s_block = np.empty(min(self._BLOCK_BYTES // flat_g.itemsize, flat_g.size), flat_g.dtype)
        for base_lr, part in self._blocks:
            lr = base_lr * lr_scale
            p, m, v, g = (a[part] for a in (self._flat, self._m, self._v, flat_g))
            s = s_block[: part.stop - part.start]
            np.multiply(p, 1.0 - lr * self.weight_decay, out=p)
            # m = beta1 * m + (1 - beta1) * g
            np.add(np.multiply(m, self.beta1, out=m), np.multiply(g, 1.0 - self.beta1, out=s), out=m)
            # v = beta2 * v + (1 - beta2) * g * g
            np.multiply(np.multiply(g, 1.0 - self.beta2, out=s), g, out=s)
            np.add(np.multiply(v, self.beta2, out=v), s, out=v)
            # p = p - lr * ((m / bc1) / (sqrt(v / bc2) + eps)); g is dead, so
            # it holds the denominator
            np.add(np.sqrt(np.divide(v, bc2, out=g), out=g), self.eps, out=g)
            np.divide(np.divide(m, bc1, out=s), g, out=s)
            np.subtract(p, np.multiply(s, lr, out=s), out=p)
        if not np.isfinite(self._flat).all():
            name = next(name for name, _, p, _ in self._slots if not np.isfinite(p).all())
            raise DivergenceError(f"non-finite value in {name!r} after step {t}")


def cosine_lr(step: int, total_steps: int, lr_max: float, lr_min: float = 0.0) -> float:
    """Cosine decay from lr_max at step 0 to lr_min at step == total_steps."""
    if total_steps <= 0:
        raise ValueError(f"total_steps must be positive, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * step / total_steps))


@dataclass
class Metrics:
    miou: float
    overall_accuracy: float
    mean_binary_accuracy: float
    mf1: float
    per_class_iou: np.ndarray
    per_class_f1: np.ndarray
    present: np.ndarray


class ConfusionMatrix:
    """Streaming K x K confusion counts; rows are truth, columns prediction."""

    def __init__(self, num_classes: int):
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, pred, truth) -> None:
        pred = np.asarray(pred)
        truth = np.asarray(truth)
        if pred.shape != truth.shape:
            raise ShapeError(f"pred shape {pred.shape} != truth shape {truth.shape}")
        k = self.num_classes
        keep = truth != IGNORE_LABEL
        p = pred[keep]
        t = truth[keep]
        if ((p < 0) | (p >= k)).any():
            raise ValueError(f"prediction outside [0, {k})")
        if ((t < 0) | (t >= k)).any():
            raise ValueError(f"label outside [0, {k}) and not the ignore value")
        flat = t.astype(np.int64) * k + p.astype(np.int64)
        self.counts += np.bincount(flat, minlength=k * k).reshape(k, k)

    def finalize(self) -> Metrics:
        """Metrics over classes present in truth or prediction; errors if empty."""
        total = int(self.counts.sum())
        if total == 0:
            raise ValueError("confusion matrix is empty; no pixels were recorded")
        tp = np.diag(self.counts).astype(np.float64)
        fn = self.counts.sum(axis=1) - tp
        fp = self.counts.sum(axis=0) - tp
        tn = total - tp - fn - fp
        present = (tp + fn + fp) > 0
        union = tp + fn + fp
        iou = np.where(union > 0, tp / np.maximum(union, 1), np.nan)
        denom_f1 = 2 * tp + fp + fn
        f1 = np.where(denom_f1 > 0, 2 * tp / np.maximum(denom_f1, 1), np.nan)
        binary_acc = (tp + tn) / total
        return Metrics(
            miou=float(np.nanmean(np.where(present, iou, np.nan))),
            overall_accuracy=float(tp.sum() / total),
            mean_binary_accuracy=float(binary_acc[present].mean()),
            mf1=float(np.nanmean(np.where(present, f1, np.nan))),
            per_class_iou=iou,
            per_class_f1=f1,
            present=present,
        )


def standardize(image: np.ndarray, mean, std) -> np.ndarray:
    """Per-channel (x - mean) / std for a (3, H, W) image."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ShapeError(f"expected a (3, H, W) image, got {image.shape}")
    mean = np.asarray(mean, dtype=np.float64).reshape(3, 1, 1)
    std = np.asarray(std, dtype=np.float64).reshape(3, 1, 1)
    if (std == 0).any():
        raise ValueError("std contains zero")
    return ((image - mean) / std).astype(np.float32)


def augment(image: np.ndarray, mask: np.ndarray, rng):
    """Random horizontal/vertical flips and a 90-degree rotation, applied jointly."""
    if rng.integers(0, 2):
        image = image[..., ::-1]
        mask = mask[..., ::-1]
    if rng.integers(0, 2):
        image = image[..., ::-1, :]
        mask = mask[..., ::-1, :]
    k = int(rng.integers(0, 4))
    if k:
        image = np.rot90(image, k, axes=(-2, -1))
        mask = np.rot90(mask, k, axes=(-2, -1))
    return np.ascontiguousarray(image), np.ascontiguousarray(mask)


def window_placements(length: int, window: int, stride: int) -> list:
    """Start offsets covering [0, length): regular grid plus a clamped tail.

    Raises ``ValueError`` when a stride longer than the window would leave
    pixels between two consecutive placements uncovered.
    """
    if window >= length:
        return [0]
    starts = list(range(0, length - window + 1, stride))
    if starts[-1] != length - window:
        starts.append(length - window)
    for a, b in zip(starts, starts[1:]):
        if b - a > window:
            raise ValueError(f"stride {stride} leaves pixels {a + window}..{b - 1} of {length} "
                             f"uncovered by windows of {window} at {starts}")
    return starts


def sliding_window_infer(image: np.ndarray, window, stride, infer_fn,
                         num_classes: int) -> np.ndarray:
    """Tile a (C, H, W) image, run ``infer_fn`` per tile, mean-fuse the logits.

    ``infer_fn`` maps a (C, h, w) window to (K, h, w) logits. Overlapping
    placements are averaged in float64. A window at least as large as the
    image degenerates to one direct call whose logits pass through exactly.
    """
    wh, ww = (window, window) if isinstance(window, int) else window
    sh, sw = (stride, stride) if isinstance(stride, int) else stride
    if sh < 1 or sw < 1:
        raise ValueError(f"stride must be positive, got {(sh, sw)}")
    h, w = image.shape[-2:]
    wh = min(wh, h)
    ww = min(ww, w)
    acc = np.zeros((num_classes, h, w), dtype=np.float64)
    hits = np.zeros((h, w), dtype=np.float64)
    for top in window_placements(h, wh, sh):
        for left in window_placements(w, ww, sw):
            tile = image[..., top:top + wh, left:left + ww]
            logits = np.asarray(infer_fn(tile))
            if logits.shape != (num_classes, wh, ww):
                raise ShapeError(f"infer_fn returned {logits.shape}, "
                                 f"expected {(num_classes, wh, ww)}")
            acc[:, top:top + wh, left:left + ww] += logits.astype(np.float64)
            hits[top:top + wh, left:left + ww] += 1.0
    return (acc / hits[None]).astype(np.float32)
