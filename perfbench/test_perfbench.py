"""Self-test of the benchmark: every workload, untraced and traced, at the tiny size.

    python3 -m pytest -q perfbench

The tiny size (``run.py --tiny``) shrinks the toy recipe to 16 training
images for one epoch, the scene to 80x112 with 64/48 windows, and the
gradient suite to one case, so the whole file runs in about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_reports_every_end_to_end_metric(workload):
    metrics = result(workload, 0)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_reports_every_per_layer_metric(workload):
    metrics = result(workload, 1)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["ops.calls"] > 0 and value["ops.us_per_call"] > 0
    if workload == "train_toy":
        assert value["macs.blocks_checked"] == 17
        assert value["tape.nodes"] > 0 and value["training.adamw_step_ms"] > 0
        assert value["ops.upsample_bilinear.bwd_ms"] > 0
        assert value["decoder.lcrm2.global.attn.bwd_ms"] > 0
    if workload == "infer_scene":
        assert value["macs.blocks_checked"] == 16  # the aux heads are train-only
        assert value["tape.nodes"] == 0 and value["training.sliding_window_fuse_ms"] > 0
        assert value["fileio.read_ppm_ms"] > 0 and value["fileio.write_pgm_ms"] > 0
    if workload == "gradcheck":
        assert value["gradcheck.cases"] >= 1 and value["gradcheck.forwards"] > value["gradcheck.cases"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("train_toy", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_instrument_restores_every_wrapped_callable():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import tracing
    from lightformer import cli, fileio, gradcheck, network, ops, synthetic, training
    from lightformer.tensor import Tape

    owners = (cli, fileio, gradcheck, network.Model, ops, synthetic, training,
              training.AdamW, training.ConfusionMatrix, Tape)
    before = [dict(vars(o)) for o in owners]
    with tracing.instrument(tracing.Tracer()):
        assert ops.conv2d is not before[owners.index(ops)]["conv2d"]
    assert [dict(vars(o)) for o in owners] == before


def test_mac_check_flags_a_block_that_did_no_work():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import tracing
    from lightformer.config import load

    tracer = tracing.Tracer()
    cfg = load().decoder_config()
    executed = tracing.analytic_block_macs(cfg, (64, 64), 2, True)
    tracer.forwards.append({"cfg": cfg, "batch": 2, "hw": (64, 64), "train": True,
                            "executed": dict(executed)})
    assert tracing.mac_check(tracer)[1:] == ([], 17)
    executed["decoder.sism"] = 0
    tracer.forwards.append({"cfg": cfg, "batch": 2, "hw": (64, 64), "train": True,
                            "executed": executed})
    mismatches = tracing.mac_check(tracer)[1]
    assert len(mismatches) == 1 and mismatches[0].startswith("decoder.sism")


def test_speed_samples_are_left_out_of_the_clock():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    off = workloads.Speed(every_s=None)
    off.between()
    assert off.samples == [] and off.spent == 0.0

    speed = workloads.Speed()
    start = speed.clock()
    speed.between()
    speed.between()  # within every_s of the first: no second sample
    assert len(speed.samples) == 1 and speed.spent == speed.samples[0]
    assert speed.clock() - start < speed.spent
    assert speed.scale() == workloads.SPEED_REF_S / speed.samples[0]
