"""Benchmark entry point.

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It measures the package in ``src/`` (no
install needed) and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced, and their times are
scaled to the reference machine speed (``workloads.Speed``); with
``--trace 1`` the run makes one untraced and one traced round of the
workload and reports the per-layer metrics of the traced one, unscaled.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 7

# BLAS threads are pinned to the cores this process may use, before numpy loads.
_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS
# The workload seed alone decides the inputs.
os.environ.pop("LIGHTFORMER_SEED", None)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train_toy", "infer_scene", "gradcheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes (see test_perfbench.py)")
    return p.parse_args(argv)


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lightformer", "__init__.py")):
        sys.exit(f"error: no lightformer package under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import lightformer

    if not os.path.abspath(lightformer.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported lightformer from {lightformer.__file__}, not {src}")


def untraced(wl, seconds: float) -> tuple:
    """End-to-end metrics from the whole rounds that fit in ``seconds`` (at least one)."""
    speed = wl.speed
    setup_s = wl.setup_s(SETUP_REPEATS)
    setup_scale = speed.scale()
    first_round_sample = len(speed.samples)
    peak = wl.peak_bytes()
    rounds = []
    start = perf_counter()
    last = 0.0
    while not rounds or perf_counter() - start + last <= seconds:
        # Each round starts from a collected heap, so no round pays for the
        # garbage of the set-up passes or of the round before it.
        gc.collect()
        speed.sample()
        began = perf_counter()
        rounds.append(wl.round("round"))
        last = perf_counter() - began
        print(f"round {len(rounds)}: command {rounds[-1].wall_s:.3f} s", file=sys.stderr)
    # Set-up and rounds are each scaled by the samples taken among them.
    scale = speed.scale(first_round_sample)
    print(f"speed: {len(speed.samples)} samples, median {1e3 * median(speed.samples):.3f} ms, "
          f"set-up scale {setup_scale:.4f}, scale {scale:.4f}", file=sys.stderr)
    metrics = {
        "setup_s": (setup_scale * setup_s, "s"),
        "peak_mib": (peak / 2 ** 20, "MiB"),
        "command_s": (scale * median([r.wall_s for r in rounds]), "s"),
        "step_ms": (1e3 * scale * median([t for r in rounds for t in r.steps_s]), "ms"),
        "quality": (median([r.quality for r in rounds]), "ratio"),
    }
    return rounds, metrics


def traced(wl) -> tuple:
    """One untraced and one traced round; per-layer metrics of the traced one."""
    import tracing
    import workloads

    wl.speed = workloads.Speed(every_s=None)
    plain = wl.round("untraced")
    tracer = tracing.Tracer()
    traced_round = wl.round("traced", lambda: tracing.instrument(tracer))
    layers, mismatches = tracing.layer_metrics(tracer)
    errors = [f"MACs: {m}" for m in mismatches[:5]]
    if len(mismatches) > 5:
        errors.append(f"MACs: {len(mismatches) - 5} more mismatches")
    for a, b in zip(plain.outputs, traced_round.outputs):
        if not (os.path.isfile(a) and os.path.isfile(b)):
            errors.append(f"{os.path.basename(b)} is missing from a round")
            continue
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() != fb.read():
                errors.append(f"traced output {os.path.basename(b)} differs from the untraced one")
    overhead = traced_round.wall_s - plain.wall_s
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_pct"] = 100.0 * overhead / plain.wall_s
    trace_dir = wl.out_dir("trace")
    tracer.save(os.path.join(trace_dir, "spans.npz"))
    with open(os.path.join(trace_dir, "layers.json"), "w", encoding="utf-8") as fh:
        json.dump(layers, fh, indent=1, sort_keys=True)
    units = layer_units()
    metrics = {name: (layers[name], units[name]) for name in units}
    return [plain, traced_round], metrics, errors


def layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    size = workloads.TINY if args.tiny else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, size)
    wl.prepare()
    errors = []
    if args.trace:
        rounds, metrics, errors = traced(wl)
    else:
        rounds, metrics = untraced(wl, args.seconds)
    for r in rounds:
        errors += r.errors
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
