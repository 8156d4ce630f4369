"""Tests of the benchmark itself (not part of the tier-1 suite):

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import LAYER_UNITS, Tracer, layer_metrics, replay_job
from workloads import Record, _check_batch

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    with open(ROOT / "BENCHMARK.json") as stream:
        return json.load(stream)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def test_every_metric_is_named_and_has_a_unit():
    spec = _spec()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layered = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.END_TO_END
    assert layered == run.PER_LAYER
    assert set(layer_metrics(Tracer())) == set(LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(
        run.WORKLOAD_NAMES)
    for name, unit in {**declared, **layered}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_smoke_run(workload):
    proc, lines = _run("--workload", workload, "--seed", "5",
                       "--seconds", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name
        assert any(line.split()[1:2] == [name] for line in lines), name


def test_tiny_traced_run_reports_every_layer():
    proc, lines = _run("--workload", "sweep-cold", "--seed", "5",
                       "--seconds", "1", "--size", "tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["pool.attempts"] == 4
    assert metrics["workloads.traces_generated"] == 8
    assert metrics["core.committed_insts"] == 4 * 300
    assert metrics["core.run_us_per_inst.big"] > 0


def test_replayed_steps_equal_simulate():
    from repro.core.presets import model_config
    from repro.experiments.pool import SimJob
    from repro.experiments.runner import simulate

    tracer = Tracer()
    for model in ("LITTLE", "HALF+FX", "CA"):
        job = SimJob(config=model_config(model), benchmark="mcf",
                     measure=400, warmup=600, seed=3)
        replayed = replay_job(job, tracer)
        assert replayed.to_dict() == simulate(
            job.config, job.benchmark, job.measure, job.warmup,
            job.seed).to_dict()
    for step in ("workloads.program_build", "workloads.trace_gen",
                 "core.build", "core.warmup", "core.run",
                 "energy.evaluate"):
        assert tracer.count(step) == 3, step
    metrics = layer_metrics(tracer)
    assert metrics["core.run_us_per_inst.ca"] > 0
    assert metrics["core.committed_insts"] == 3 * 400


def test_a_wrong_served_result_fails_the_check():
    record = Record("serve-warm")
    expected = {"d1": {"ipc": 1.0}}
    events = [
        {"event": "batch_start"},
        {"event": "job", "digest": "d1", "job": "BIG/mcf",
         "status": "ok", "result": {"ipc": 1.5}},
        {"event": "batch_end", "batch_id": "b1", "failed": 0,
         "distinct_jobs": 1, "by_source": {"cache": 1},
         "wall_seconds": 0.01},
    ]
    assert _check_batch(record, {"jobs": [{}]}, events, expected, {}) == 0
    assert record.errors and "differs" in record.errors[0]
    # A request that never answered is a failed batch, not a wrong one.
    clean = Record("serve-warm")
    assert _check_batch(clean, {"jobs": [{}, {}]}, None, expected, {}) == 2
    assert not clean.errors


def test_frontier_digests_must_agree_across_repetitions():
    base = {"errors": [], "attempted": 4, "failed": 0, "jobs": 4,
            "insts": 400, "wall_s": 1.0, "setup_s": 0.1, "cpu_s": 1.0,
            "peak_rss_mb": 20.0, "batches": [], "layers": {}}
    result = run.summarize("dse-halving", [dict(base, digest="a"),
                                           dict(base, digest="b")], 0,
                           trace=False)
    assert not result["correct"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _run("--workload", "sweep-cold", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
