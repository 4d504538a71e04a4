"""Per-layer trace taken from outside the program.

``instrument`` wraps public callables of the ``lightformer`` package in this
process (the ``ops`` functions, ``Tape.record``/``Tape.backward`` and every
recorded adjoint, the ``forward`` of each named block instance, the optimizer,
sliding-window inference, the file readers and writers, and the gradient
checker) and restores them on exit. Each wrapper records one span (name,
start, end, parent) into flat arrays; nothing is aggregated until the run
ends, when ``layer_metrics`` derives self times, counts and rates from them.
"""

from __future__ import annotations

import contextlib
import re
from array import array
from time import perf_counter

import numpy as np

# ops function -> family; conv2d is split into three families by its shapes.
OP_FAMILY = {
    **{name: "elementwise" for name in (
        "add", "sub", "mul", "div", "neg", "exp", "log", "sqrt", "relu", "gelu",
        "sigmoid", "clamp_min", "sum_", "mean", "max_reduce", "reduce_channel")},
    **{name: "shape" for name in (
        "reshape", "permute", "concat", "split", "pad2d", "crop2d", "nearest_upsample")},
    "softmax": "softmax",
    "matmul": "matmul",
    "pool2d": "pool2d",
    "upsample_bilinear": "upsample_bilinear",
    "conv2d": None,
}
CONV_FAMILIES = ("conv2d_dense", "conv2d_depthwise", "conv2d_pointwise")
FAMILIES = CONV_FAMILIES + ("matmul", "upsample_bilinear", "pool2d", "softmax",
                            "elementwise", "shape")

BLOCKS = tuple(
    [f"encoder.stage{i}" for i in (1, 2, 3, 4)]
    + ["decoder.proj"]
    + [f"decoder.lcrm{i}" for i in (1, 2, 3)]
    + [f"decoder.lcrm{i}.global.attn" for i in (1, 2, 3)]
    + [f"decoder.cffm{i}" for i in (1, 2, 3)]
    + ["decoder.sism", "decoder.head", "decoder.aux"]
)

# Wrapped callables that are reported as one span per call: (span, module, attribute).
SPANS = (
    ("training.adamw_step", "training", "AdamW.step"),
    ("training.total_loss", "training", "total_loss"),
    ("training.augment", "training", "augment"),
    ("training.eval_pass", "cli", "_evaluate"),
    ("training.confusion", "training", "ConfusionMatrix.update"),
    ("training.confusion", "training", "ConfusionMatrix.finalize"),
    ("training.sliding_window_infer", "training", "sliding_window_infer"),
    ("fileio.read_ppm", "fileio", "read_ppm"),
    ("fileio.read_container", "fileio", "read_container"),
    ("fileio.write_container", "fileio", "write_container"),
    ("fileio.write_pgm", "fileio", "write_pgm"),
    ("synthetic.make_dataset", "synthetic", "make_dataset"),
)


class Tracer:
    """Spans in flat arrays; ``open`` returns an index that ``close`` ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.blocks: list[str] = []      # named blocks open right now
        self.families: list[str] = []    # op families open right now
        self.family_macs = dict.fromkeys(CONV_FAMILIES + ("matmul",), 0)
        self.forwards: list[dict] = []   # one record per Model.forward
        self.nodes = 0
        self.sweeps = 0
        self.gradcheck_forwards = 0

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def add_macs(self, family: str, macs: int) -> None:
        self.family_macs[family] += macs
        if self.forwards and self.blocks:
            executed = self.forwards[-1]["executed"]
            for block in self.blocks:
                executed[block] = executed.get(block, 0) + macs

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                            parent=np.frombuffer(self.parent, np.int32),
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def _timed(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def _conv_family(x, weight, groups: int) -> str:
    cin = x.shape[1]
    _, cin_g, kh, kw = weight.shape
    if groups == cin and groups > 1 and cin_g == 1:
        return "conv2d_depthwise"
    return "conv2d_pointwise" if kh == kw == 1 else "conv2d_dense"


def _wrap_op(tracer: Tracer, op: str, fn):
    family = OP_FAMILY[op]
    if op == "conv2d":
        def conv2d(x, weight, *args, **kwargs):
            groups = kwargs.get("groups", args[3] if len(args) > 3 else 1)
            fam = _conv_family(x, weight, groups)
            idx = tracer.open("ops." + fam)
            tracer.families.append(fam)
            try:
                y = fn(x, weight, *args, **kwargs)
            finally:
                tracer.families.pop()
                tracer.close(idx)
            b, cout, ho, wo = y.shape
            _, cin_g, kh, kw = weight.shape
            tracer.add_macs(fam, b * cout * ho * wo * cin_g * kh * kw)
            return y
        return conv2d
    if op == "matmul":
        def matmul(a, b):
            idx = tracer.open("ops.matmul")
            tracer.families.append("matmul")
            try:
                y = fn(a, b)
            finally:
                tracer.families.pop()
                tracer.close(idx)
            tracer.add_macs("matmul", int(np.prod(a.shape[:-1], dtype=np.int64)) * a.shape[-1] * b.shape[-1])
            return y
        return matmul
    name = "ops." + family

    def op_wrapper(*args, **kwargs):
        idx = tracer.open(name)
        tracer.families.append(family)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.families.pop()
            tracer.close(idx)
    return op_wrapper


def named_blocks(model):
    """(block name, instance) for every named block of a ``Model``."""
    dec = model.decoder
    out = []
    for i, (first, second) in enumerate(model.encoder.stages, start=1):
        out += [(f"encoder.stage{i}", first), (f"encoder.stage{i}", second)]
    out.append(("decoder.proj", dec.proj))
    for i in (1, 2, 3):
        lcrm = getattr(dec, f"lcrm{i}")
        out += [(f"decoder.lcrm{i}", lcrm),
                (f"decoder.lcrm{i}.global.attn", lcrm.global_branch.attn),
                (f"decoder.cffm{i}", getattr(dec, f"cffm{i}"))]
    out += [("decoder.sism", dec.sism), ("decoder.head", dec.head)]
    out += [("decoder.aux", head) for head in dec.aux]
    return out


def _wrap_block(tracer: Tracer, name: str, fn):
    def forward(*args, **kwargs):
        idx = tracer.open(name)
        tracer.blocks.append(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.blocks.pop()
            tracer.close(idx)
    return forward


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr: str, make) -> None:
        orig = owner.__dict__[attr]
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the package's public callables for the duration of the block."""
    from lightformer import cli, fileio, gradcheck, network, ops, synthetic, training
    from lightformer.tensor import Tape

    modules = {"cli": cli, "fileio": fileio, "synthetic": synthetic, "training": training}
    patches = _Patches()
    try:
        for op in OP_FAMILY:
            patches.wrap(ops, op, lambda fn, op=op: _wrap_op(tracer, op, fn))

        def make_record(orig):
            labels: dict = {}

            def record(tape, op, inputs, output, backward):
                tracer.nodes += 1
                if backward is not None:
                    key = (tracer.families[-1] if tracer.families else "other", tuple(tracer.blocks))
                    label = labels.get(key)
                    if label is None:
                        label = labels[key] = f"bwd|{key[0]}|{','.join(key[1])}"
                    backward = _timed(tracer, label, backward)
                return orig(tape, op, inputs, output, backward)
            return record

        patches.wrap(Tape, "record", make_record)

        def make_backward(orig):
            timed = _timed(tracer, "tape.backward", orig)

            def backward(tape, loss):
                tracer.sweeps += 1
                return timed(tape, loss)
            return backward

        patches.wrap(Tape, "backward", make_backward)

        def make_init(orig):
            def __init__(model, *args, **kwargs):
                orig(model, *args, **kwargs)
                for name, block in named_blocks(model):
                    block.forward = _wrap_block(tracer, name, block.forward)
            return __init__

        patches.wrap(network.Model, "__init__", make_init)

        def make_forward(orig):
            def forward(model, image, *args, **kwargs):
                train = kwargs.get("train", args[0] if args else False)
                b, _, h, w = image.shape
                tracer.forwards.append({"cfg": model.cfg, "batch": b, "hw": (h, w),
                                        "train": bool(train), "executed": {}})
                idx = tracer.open("network.forward")
                try:
                    return orig(model, image, *args, **kwargs)
                finally:
                    tracer.close(idx)
            return forward

        patches.wrap(network.Model, "forward", make_forward)

        for span, module, attr in SPANS:
            owner = modules[module]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            patches.wrap(owner, attr, lambda fn, span=span: _timed(tracer, span, fn))

        block_names = set()

        def make_block_cases(orig):
            def block_cases(*args, **kwargs):
                cases = orig(*args, **kwargs)
                block_names.update(c[0] for c in cases)
                return cases
            return block_cases

        def make_check(orig):
            def check_gradients(fn, *args, **kwargs):
                def counted():
                    tracer.gradcheck_forwards += 1
                    return fn()
                kind = "block" if kwargs.get("name", "") in block_names else "op"
                return _timed(tracer, f"gradcheck.case.{kind}", orig)(counted, *args, **kwargs)
            return check_gradients

        patches.wrap(gradcheck, "block_cases", make_block_cases)
        patches.wrap(gradcheck, "check_gradients", make_check)
        yield tracer
    finally:
        patches.undo()


# ---------------------------------------------------------------------------
# aggregation


def _in_block(row: str, block: str) -> bool:
    if block == "decoder.aux":
        return re.match(r"decoder\.aux\d+(\.|$)", row) is not None
    return row == block or row.startswith(block + ".")


def analytic_block_macs(cfg, hw, batch: int, train: bool) -> dict:
    """Sum of each named block's rows in ``efficiency.model_cost``."""
    from lightformer import efficiency

    rows = efficiency.model_cost(cfg, hw, batch=batch).rows
    out = {b: sum(r.macs for r in rows if _in_block(r.name, b)) for b in BLOCKS}
    if not (train and cfg.aux_heads):
        out["decoder.aux"] = 0
    return out


def mac_check(tracer: Tracer) -> tuple:
    """(analytic MACs per block over all forwards, mismatch messages, blocks checked)."""
    cache: dict = {}
    analytic = dict.fromkeys(BLOCKS, 0)
    mismatches = []
    checked = set()
    for fwd in tracer.forwards:
        key = (fwd["cfg"], fwd["hw"], fwd["batch"], fwd["train"])
        if key not in cache:
            cache[key] = analytic_block_macs(fwd["cfg"], fwd["hw"], fwd["batch"], fwd["train"])
        expected = cache[key]
        for block in BLOCKS:
            got = fwd["executed"].get(block, 0)
            analytic[block] += expected[block]
            if got != expected[block]:
                mismatches.append(f"{block} at B={fwd['batch']} {fwd['hw']}: executed {got} MACs, "
                                  f"cost model {expected[block]}")
            elif expected[block]:
                checked.add(block)
    return analytic, mismatches, len(checked)


def span_times(tracer: Tracer):
    """(names, durations, self times, name ids) of every span, in seconds."""
    name = np.frombuffer(tracer.name, np.int32)
    parent = np.frombuffer(tracer.parent, np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return tracer.names, dur, dur - child, name


def layer_metrics(tracer: Tracer) -> tuple:
    """Per-layer metric values (name -> value) and the MAC-check mismatches."""
    names, dur, self_time, name_id = span_times(tracer)
    n = len(names)
    total = np.bincount(name_id, weights=dur, minlength=n)
    own = np.bincount(name_id, weights=self_time, minlength=n)
    count = np.bincount(name_id, minlength=n)
    ids = {nm: i for i, nm in enumerate(names)}

    def tot(nm):
        return float(total[ids[nm]]) if nm in ids else 0.0

    def slf(nm):
        return float(own[ids[nm]]) if nm in ids else 0.0

    def cnt(nm):
        return int(count[ids[nm]]) if nm in ids else 0

    bwd_family = dict.fromkeys(FAMILIES, 0.0)
    bwd_block = dict.fromkeys(BLOCKS, 0.0)
    for i, nm in enumerate(names):
        if nm.startswith("bwd|"):
            _, family, blocks = nm.split("|")
            bwd_family[family] = bwd_family.get(family, 0.0) + total[i]
            for block in filter(None, blocks.split(",")):
                bwd_block[block] += total[i]

    m = {}
    m["tape.nodes"] = tracer.nodes / tracer.sweeps if tracer.sweeps else 0.0
    m["tape.backward_ms"] = 1e3 * tot("tape.backward")
    # The adjoint spans are the sweep's only children.
    m["tape.sweep_self_ms"] = 1e3 * slf("tape.backward")
    calls = sum(cnt("ops." + f) for f in FAMILIES)
    op_self = sum(slf("ops." + f) for f in FAMILIES)
    for f in FAMILIES:
        m[f"ops.{f}.fwd_ms"] = 1e3 * slf("ops." + f)
        m[f"ops.{f}.bwd_ms"] = 1e3 * bwd_family[f]
    for f in CONV_FAMILIES:
        t = slf("ops." + f)
        m[f"ops.{f}.gmac_per_s"] = tracer.family_macs[f] / t / 1e9 if t else 0.0
    m["ops.calls"] = calls
    m["ops.us_per_call"] = 1e6 * op_self / calls if calls else 0.0

    analytic, mismatches, checked = mac_check(tracer)
    for b in BLOCKS:
        t = tot(b)
        m[f"{b}.fwd_ms"] = 1e3 * t
        m[f"{b}.bwd_ms"] = 1e3 * bwd_block[b]
        m[f"{b}.gmac_per_s"] = analytic[b] / t / 1e9 if t else 0.0
    m["macs.blocks_checked"] = checked

    m["training.adamw_step_ms"] = 1e3 * tot("training.adamw_step")
    m["training.total_loss_ms"] = 1e3 * tot("training.total_loss")
    m["training.augment_ms"] = 1e3 * tot("training.augment")
    m["training.eval_pass_ms"] = 1e3 * tot("training.eval_pass")
    m["training.confusion_ms"] = 1e3 * tot("training.confusion")
    m["training.sliding_window_fuse_ms"] = 1e3 * slf("training.sliding_window_infer")
    for nm in ("read_ppm", "read_container", "write_container", "write_pgm"):
        m[f"fileio.{nm}_ms"] = 1e3 * tot("fileio." + nm)
    m["synthetic.make_dataset_ms"] = 1e3 * tot("synthetic.make_dataset")
    m["gradcheck.cases"] = cnt("gradcheck.case.op") + cnt("gradcheck.case.block")
    m["gradcheck.forwards"] = tracer.gradcheck_forwards
    m["gradcheck.op_cases_s"] = tot("gradcheck.case.op")
    m["gradcheck.block_cases_s"] = tot("gradcheck.case.block")
    return m, mismatches
