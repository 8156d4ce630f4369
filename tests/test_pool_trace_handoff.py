"""The pool parent builds each shared trace once and hands it to forked
workers; everything else builds its own trace, with identical results."""

import multiprocessing
import os
import time

import pytest

import repro.workloads
from repro.core import model_config
from repro.experiments import pool, runner
from repro.experiments.cli import main
from repro.experiments.diskcache import DiskCache
from repro.experiments.pool import FaultSpec, JobFailure, SimJob, run_jobs
from repro.obs import RunManifest
from repro.serve.client import ServeClient
from repro.serve.server import start_in_background

SMALL = dict(measure=300, warmup=600)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="trace handoff needs the fork start method")


def _jobs(models, benchmarks):
    return [SimJob(config=model_config(model), benchmark=bench, **SMALL)
            for model in models for bench in benchmarks]


@pytest.fixture
def builds(tmp_path, monkeypatch):
    """Record (pid, benchmark) for every trace-pair build, in whichever
    process it happens; start from an empty per-process trace memo so
    forked workers cannot inherit one."""
    log = tmp_path / "builds.log"
    original = repro.workloads.generate_trace_pair

    def recording(benchmark, warmup, measure, seed=0):
        with open(log, "a") as stream:
            stream.write(f"{os.getpid()} {benchmark}\n")
        return original(benchmark, warmup, measure, seed)

    monkeypatch.setattr(repro.workloads, "generate_trace_pair", recording)
    monkeypatch.setattr(runner, "generate_trace_pair", recording)
    monkeypatch.setattr(runner, "_TRACE_MEMO", {})

    def read():
        if not log.exists():
            return []
        return [(int(pid), bench) for pid, bench in
                (line.split() for line in log.read_text().splitlines())]
    return read


def _assert_same_as_serial(jobs, outcomes):
    serial = run_jobs(jobs, workers=1)
    assert [o.job for o in outcomes] == jobs
    for expected, got in zip(serial, outcomes):
        assert got.ok and expected.ok
        assert got.run.to_dict() == expected.run.to_dict()


@needs_fork
def test_shared_keys_built_once_in_parent_never_in_workers(builds):
    jobs = _jobs(("BIG", "HALF", "LITTLE"), ("hmmer", "mcf"))
    built = []
    outcomes = run_jobs(jobs, workers=2,
                        on_trace_built=lambda key, s: built.append(key))
    assert sorted(builds()) == [(os.getpid(), "hmmer"),
                                (os.getpid(), "mcf")]
    assert sorted(key[0] for key in built) == ["hmmer", "mcf"]
    _assert_same_as_serial(jobs, outcomes)


@needs_fork
def test_single_job_key_is_built_by_its_worker(builds):
    jobs = _jobs(("BIG", "HALF+FX"), ("hmmer",)) + _jobs(("LITTLE",),
                                                         ("mcf",))
    outcomes = run_jobs(jobs, workers=2)
    records = builds()
    assert [pid for pid, bench in records if bench == "hmmer"] == [
        os.getpid()]
    mcf = [pid for pid, bench in records if bench == "mcf"]
    assert len(mcf) == 1 and mcf[0] != os.getpid()
    assert mcf[0] == outcomes[-1].worker_pid
    _assert_same_as_serial(jobs, outcomes)


@needs_fork
def test_failed_parent_build_fails_the_job_as_before():
    jobs = _jobs(("BIG", "HALF"), ("no-such-benchmark",))
    serial = run_jobs(jobs, workers=1)
    built = []
    pooled = run_jobs(jobs, workers=2,
                      on_trace_built=lambda key, s: built.append(key))
    assert built == []
    for expected, got in zip(serial, pooled):
        assert isinstance(got, JobFailure)
        assert (got.cause, got.error_type, got.error) == (
            expected.cause, expected.error_type, expected.error)
        assert got.worker_pid != os.getpid()


@needs_fork
def test_flaky_retry_after_release_matches_serial(builds):
    jobs = _jobs(("BIG", "HALF+FX"), ("mcf", "hmmer"))
    pool.set_fault_injector(FaultSpec.parse("flaky:mcf"))
    try:
        outcomes = run_jobs(jobs, workers=2, retries=1,
                            retry_backoff=0.0)
    finally:
        pool.set_fault_injector(None)
    assert [o.attempts for o in outcomes] == [2, 1, 2, 1]
    # mcf's pair was released after its first launches and built again
    # (by the parent or a worker) for the retries.
    assert sum(1 for _, bench in builds() if bench == "mcf") >= 2
    _assert_same_as_serial(jobs, outcomes)


def test_spawn_workers_build_their_own_traces():
    jobs = _jobs(("BIG", "LITTLE"), ("hmmer",))
    built = []
    outcomes = pool._run_parallel(
        jobs, 2, timeout=None, retries=0, retry_backoff=0.0,
        fail_fast=False, on_result=None,
        context=multiprocessing.get_context("spawn"),
        on_trace_built=lambda key, s: built.append(key))
    assert built == []
    assert all(o.worker_pid != os.getpid() for o in outcomes)
    _assert_same_as_serial(jobs, outcomes)


@needs_fork
def test_cli_manifest_accounts_parent_trace_builds(tmp_path, capsys):
    runner.clear_cache()
    path = tmp_path / "run.manifest.json"
    try:
        assert main(["headline", "--benchmarks", "hmmer", "--measure",
                     "300", "--warmup", "600", "--no-cache", "--jobs",
                     "2", "--manifest", str(path)]) == 0
    finally:
        runner.clear_cache()
    manifest = RunManifest.read(path)
    assert manifest.jobs_simulated > 1
    assert manifest.traces_built == 1
    assert manifest.trace_build_seconds > 0
    out = capsys.readouterr().out
    assert "building 1 shared trace(s) in the parent" in out


def _slow_builds(monkeypatch, seconds):
    """Make every trace-pair build, parent or worker, take ``seconds``
    longer."""
    original = repro.workloads.generate_trace_pair

    def slow(benchmark, warmup, measure, seed=0):
        time.sleep(seconds)
        return original(benchmark, warmup, measure, seed)

    monkeypatch.setattr(repro.workloads, "generate_trace_pair", slow)
    monkeypatch.setattr(runner, "generate_trace_pair", slow)
    monkeypatch.setattr(runner, "_TRACE_MEMO", {})


@needs_fork
def test_parent_build_counts_against_the_timeout(monkeypatch):
    # Build 0.4 s + simulate 0.4 s overruns a 0.6 s budget, although
    # each half alone fits in it.
    _slow_builds(monkeypatch, 0.4)
    original = runner.simulate_traces

    def slow_simulate(*args, **kwargs):
        time.sleep(0.4)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "simulate_traces", slow_simulate)
    built = []
    outcomes = run_jobs(_jobs(("BIG", "LITTLE"), ("hmmer",)), workers=2,
                        timeout=0.6,
                        on_trace_built=lambda key, s: built.append(s))
    assert len(built) == 1
    for outcome in outcomes:
        assert isinstance(outcome, JobFailure)
        assert (outcome.cause, outcome.error_type) == (
            "timeout", "JobTimeoutError")
        assert "building its trace in the parent" in outcome.error


@needs_fork
def test_build_longer_than_the_timeout_times_out_in_workers(
        monkeypatch, builds):
    # The parent's build alone outlasts the budget: the pair is not
    # handed out, so each worker rebuilds it and is cut at its deadline,
    # as before the parent built traces.
    _slow_builds(monkeypatch, 0.5)
    built = []
    outcomes = run_jobs(_jobs(("BIG", "LITTLE"), ("hmmer",)), workers=2,
                        timeout=0.3,
                        on_trace_built=lambda key, s: built.append(s))
    assert len(built) == 1 and built[0] >= 0.3
    for outcome in outcomes:
        assert isinstance(outcome, JobFailure)
        assert (outcome.cause, outcome.error_type) == (
            "timeout", "JobTimeoutError")
        assert "in the parent" not in outcome.error
        assert outcome.worker_pid != os.getpid()


@needs_fork
def test_run_sweep_reports_parent_trace_builds(tmp_path):
    built = []
    outcomes = runner.run_sweep(
        _jobs(("BIG", "HALF"), ("hmmer",)), workers=2,
        cache=DiskCache(tmp_path / "cache"),
        on_trace_built=lambda key, s: built.append(key))
    assert [o.source for o in outcomes] == ["simulated", "simulated"]
    assert built == [("hmmer", SMALL["measure"], SMALL["warmup"], 0)]


@needs_fork
def test_server_batch_manifest_accounts_parent_trace_builds(tmp_path):
    server, stop = start_in_background(
        cache=DiskCache(tmp_path / "cache"), workers=2)
    try:
        client = ServeClient(server.host, server.port, timeout=300)
        end = client.run_batch({"jobs": [
            {"benchmark": "hmmer", "model": model, **SMALL}
            for model in ("BIG", "LITTLE", "HALF+FX")]})[-1]
    finally:
        stop()
    assert end["by_source"] == {"simulated": 3}
    assert end["manifest"]["traces_built"] == 1
    assert end["manifest"]["trace_build_seconds"] > 0
