"""Tests for the parallel experiment pool (determinism, accounting,
worker reuse and worker lifetime)."""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core import model_config
from repro.experiments.pool import (
    MAX_RETRY_DELAY,
    FaultSpec,
    JobFailure,
    JobTimeoutError,
    SimJob,
    SweepAborted,
    retry_delay,
    run_jobs,
    set_fault_injector,
    split_outcomes,
    total_wall_seconds,
)
from repro.experiments.runner import (
    clear_cache,
    prefetch,
    run_benchmark,
    set_jobs,
)

SMALL = dict(measure=600, warmup=1500)
TINY = dict(measure=300, warmup=600)
PRESETS = ("BIG", "HALF", "LITTLE", "BIG+FX", "HALF+FX")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker reuse is exercised under the fork start method")


def _jobs():
    return [
        SimJob(config=model_config(model), benchmark=bench, **SMALL)
        for model in ("BIG", "HALF+FX")
        for bench in ("hmmer", "lbm")
    ]


class TestRunJobs:
    def test_empty_job_list(self):
        assert run_jobs([]) == []

    def test_serial_results_in_submission_order(self):
        jobs = _jobs()
        results = run_jobs(jobs, workers=1)
        assert [r.job for r in results] == jobs
        for result in results:
            assert result.run.model == result.job.config.name
            assert result.run.benchmark == result.job.benchmark

    def test_parallel_matches_serial_bit_for_bit(self):
        jobs = _jobs()
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=4)
        assert [r.job for r in parallel] == jobs
        for s, p in zip(serial, parallel):
            assert s.run.to_dict() == p.run.to_dict()

    def test_wall_clock_accounting(self):
        results = run_jobs(_jobs()[:2], workers=1)
        for result in results:
            assert result.wall_seconds > 0
            assert result.worker_pid > 0
        assert total_wall_seconds(results) == pytest.approx(
            sum(r.wall_seconds for r in results)
        )

    def test_serial_timeout_quarantines(self):
        outcomes = run_jobs(_jobs()[:2], workers=1, timeout=0.0)
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert isinstance(outcome, JobFailure)
            assert outcome.cause == "timeout"
            assert outcome.attempts == 1  # post-hoc: never retried

    def test_serial_timeout_fail_fast_raises(self):
        with pytest.raises(JobTimeoutError):
            run_jobs(_jobs()[:2], workers=1, timeout=0.0,
                     fail_fast=True)

    def test_parallel_timeout_fail_fast_raises(self):
        jobs = [
            SimJob(config=model_config("BIG"), benchmark="hmmer",
                   measure=4000, warmup=12000),
            SimJob(config=model_config("HALF+FX"), benchmark="lbm",
                   measure=4000, warmup=12000),
        ]
        with pytest.raises(JobTimeoutError):
            run_jobs(jobs, workers=2, timeout=1e-4, fail_fast=True)


class TestRetryDelay:
    def _job(self):
        return SimJob(config=model_config("BIG"), benchmark="hmmer",
                      **SMALL)

    def test_zero_backoff_means_no_delay(self):
        assert retry_delay(0.0, 5) == 0.0
        assert retry_delay(0.0, 5, self._job()) == 0.0

    def test_exponential_growth_without_jitter(self):
        assert retry_delay(0.25, 1) == 0.25
        assert retry_delay(0.25, 2) == 0.5
        assert retry_delay(0.25, 3) == 1.0

    def test_delay_is_capped(self):
        # Regression: the old unbounded 2**n backoff reached minutes
        # within a dozen attempts and hours soon after.
        assert retry_delay(0.25, 60) == MAX_RETRY_DELAY
        assert retry_delay(0.25, 60, self._job()) <= MAX_RETRY_DELAY
        assert retry_delay(1.0, 6, cap=4.0) == 4.0

    def test_jitter_is_deterministic_per_job_and_attempt(self):
        job = self._job()
        assert (retry_delay(0.25, 2, job)
                == retry_delay(0.25, 2, job))
        # Different attempts (and different jobs) spread differently.
        other = SimJob(config=model_config("LITTLE"),
                       benchmark="hmmer", **SMALL)
        delays = {retry_delay(0.25, attempt, job)
                  for attempt in (1, 2, 3)}
        assert len(delays) == 3
        assert (retry_delay(0.25, 2, job)
                != retry_delay(0.25, 2, other))

    def test_jitter_stays_within_half_to_full_delay(self):
        job = self._job()
        for attempt in range(1, 12):
            base = min(MAX_RETRY_DELAY, 0.25 * 2.0 ** (attempt - 1))
            delay = retry_delay(0.25, attempt, job)
            assert 0.5 * base <= delay <= base


class TestPrefetchParallel:
    def test_parallel_prefetch_matches_serial_runs(self):
        pairs = [
            (model_config(model), bench)
            for model in ("BIG", "HALF+FX")
            for bench in ("hmmer", "lbm")
        ]
        clear_cache()
        serial = {
            (c.name, b): run_benchmark(c, b, **SMALL).to_dict()
            for c, b in pairs
        }
        clear_cache()
        set_jobs(4)
        try:
            simulated = prefetch(pairs, **SMALL)
        finally:
            set_jobs(1)
        assert simulated == len(pairs)
        for config, bench in pairs:
            run = run_benchmark(config, bench, **SMALL)
            assert run.to_dict() == serial[(config.name, bench)]

    def test_prefetch_skips_cached_pairs(self):
        clear_cache()
        pairs = [(model_config("BIG"), "hmmer")]
        assert prefetch(pairs, **SMALL) == 1
        assert prefetch(pairs, **SMALL) == 0


class _ByModel:
    """Fault injector that applies a :class:`FaultSpec` chosen by the
    job's model (``default`` for models not named)."""

    def __init__(self, specs, default=None):
        self.specs = {model: FaultSpec.parse(spec)
                      for model, spec in specs.items()}
        self.default = default and FaultSpec.parse(default)

    def __call__(self, job, attempt):
        spec = self.specs.get(job.config.name, self.default)
        if spec is not None:
            spec(job, attempt)


def _group_jobs(benchmarks=("hmmer", "mcf"), models=PRESETS):
    """Every model on each benchmark: one trace group per benchmark."""
    return [SimJob(config=model_config(model), benchmark=bench, **TINY)
            for bench in benchmarks for model in models]


def _pooled(jobs, injector, **kwargs):
    set_fault_injector(injector)
    try:
        return run_jobs(jobs, workers=2, **kwargs)
    finally:
        set_fault_injector(None)


def _assert_ok_match_serial(outcomes):
    results, _ = split_outcomes(outcomes)
    serial = run_jobs([r.job for r in results], workers=1)
    for expected, got in zip(serial, results):
        assert got.run.to_dict() == expected.run.to_dict()
    return results


def _pool_workers():
    return [p for p in multiprocessing.active_children()
            if p.name == "repro-pool-worker"]


@needs_fork
class TestWorkerReuse:
    def test_one_worker_per_slot_per_group(self):
        jobs = _group_jobs()
        outcomes = run_jobs(jobs, workers=2)
        assert [o.job for o in outcomes] == jobs
        results = _assert_ok_match_serial(outcomes)
        assert len(results) == len(jobs)
        # Two trace groups on two slots: at most four workers in all.
        assert len({r.worker_pid for r in results}) <= 4

    def test_worker_death_quarantines_only_its_job(self):
        jobs = _group_jobs(("mcf",), models=("HALF",) + tuple(
            m for m in PRESETS if m != "HALF"))
        outcomes = _pooled(jobs, _ByModel({"HALF": "die"}))
        results, failures = split_outcomes(outcomes)
        assert [(f.job.config.name, f.cause, f.attempts)
                for f in failures] == [("HALF", "worker-death", 1)]
        assert len(_assert_ok_match_serial(outcomes)) == len(jobs) - 1
        # The rest of the group ran on the surviving slot's worker and a
        # fresh one, never on the dead one.
        pids = {r.worker_pid for r in results}
        assert failures[0].worker_pid not in pids
        assert len(pids) == 2

    def test_hang_is_cut_and_its_group_completes(self):
        # BIG hangs; the other four sleep 0.5 s each, so when BIG is cut
        # at its 1 s deadline the surviving worker still has launches
        # queued behind it and a fresh worker takes some.
        jobs = _group_jobs(("hmmer",))
        started = time.monotonic()
        outcomes = _pooled(jobs, _ByModel({"BIG": "hang::30"},
                                          default="sleep::0.5"),
                           timeout=1.0)
        assert time.monotonic() - started < 10
        results, failures = split_outcomes(outcomes)
        assert [(f.job.config.name, f.cause) for f in failures] == [
            ("BIG", "timeout")]
        assert len(_assert_ok_match_serial(outcomes)) == len(jobs) - 1
        pids = {r.worker_pid for r in results}
        assert failures[0].worker_pid not in pids
        assert len(pids) == 2


@needs_fork
class TestNoWorkerOutlivesRunJobs:
    def test_after_a_normal_return(self):
        assert all(o.ok for o in run_jobs(_group_jobs(), workers=2))
        assert _pool_workers() == []

    @pytest.mark.parametrize("spec, timeout, error", [
        ("crash:mcf", None, SweepAborted),
        ("hang:mcf:30", 0.5, JobTimeoutError),
    ])
    def test_after_a_fail_fast_abort(self, spec, timeout, error):
        with pytest.raises(error):
            _pooled(_group_jobs(), FaultSpec.parse(spec), timeout=timeout,
                    fail_fast=True)
        assert _pool_workers() == []

    def test_after_a_timeout_kill(self):
        outcomes = _pooled(_group_jobs(), FaultSpec.parse("hang:mcf:30"),
                           timeout=0.5)
        assert {o.cause for o in outcomes if not o.ok} == {"timeout"}
        assert _pool_workers() == []

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process states from /proc")
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        pids = tmp_path / "pids"
        script = textwrap.dedent(f"""
            import os, time
            from repro.core import model_config
            from repro.experiments import pool

            def record(job, attempt):
                with open({str(pids)!r}, "a") as stream:
                    stream.write(f"{{os.getpid()}}\\n")
                time.sleep(1.0)

            pool.set_fault_injector(record)
            pool.run_jobs([pool.SimJob(model_config(m), "hmmer", 300, 600)
                           for m in ("BIG", "HALF", "LITTLE", "CA")],
                          workers=2)
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        parent = subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)})
        try:
            deadline = time.monotonic() + 30
            while (not pids.exists()
                   or len(pids.read_text().split()) < 2):
                assert time.monotonic() < deadline, "workers never started"
                assert parent.poll() is None
                time.sleep(0.05)
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait()
        workers = [int(pid) for pid in pids.read_text().split()]

        def running(pid):
            try:
                state = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                return False
            return state.rsplit(")", 1)[1].split()[0] != "Z"

        deadline = time.monotonic() + 15
        try:
            while any(running(pid) for pid in workers):
                assert time.monotonic() < deadline, (
                    "orphaned workers live on")
                time.sleep(0.05)
        finally:
            for pid in workers:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)
