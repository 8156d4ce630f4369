"""The three benchmark workloads, one repetition each.

Each workload drives a public entry point users already call, times it
from outside, and checks its outputs.  A repetition runs in a fresh
interpreter (see ``rep.py``) with its own cache directory, because the
per-process trace memo and ``code_version()`` cache would otherwise
hide trace-generation and hashing cost in every repetition after the
first.

A workload function returns a :class:`Record`; a wrong output is
appended to ``Record.errors`` (never raised), a failed job or errored
batch is counted in ``Record.failed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import io
import json
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: Workload sizes.  ``full`` is what ``BENCHMARK.json`` measures;
#: ``tiny`` keeps the test smoke runs to seconds.
SIZES = {
    "full": {
        "sweep-cold": {
            "models": ("BIG", "HALF", "LITTLE", "BIG+FX", "HALF+FX"),
            "benchmarks": ("hmmer", "libquantum", "mcf", "milc"),
            "measure": 8000, "warmup": 30000, "checked": 1},
        "dse-halving": {
            "space": "paper", "samples": 64, "budget": 1000, "rungs": 2,
            "eta": 4, "min_measure": 250, "warmup_factor": 2,
            "benchmarks": ("hmmer", "mcf")},
        "serve-warm": {
            "models": None, "benchmarks": None,  # every served model/bench
            "measure": 1000, "warmup": 1000, "batches": 150,
            "batch_jobs": 24},
    },
    "tiny": {
        "sweep-cold": {
            "models": ("BIG", "HALF+FX"), "benchmarks": ("hmmer", "mcf"),
            "measure": 300, "warmup": 300, "checked": 1},
        "dse-halving": {
            "space": "smoke", "samples": 6, "budget": 200, "rungs": 2,
            "eta": 2, "min_measure": 100, "warmup_factor": 1,
            "benchmarks": ("hmmer",)},
        "serve-warm": {
            "models": ("BIG", "HALF+FX"), "benchmarks": ("hmmer", "mcf"),
            "measure": 200, "warmup": 200, "batches": 12,
            "batch_jobs": 4},
    },
}

#: Worker processes for the sweep engine (the host has two cores; the
#: benchmark never asks for more).
WORKERS = 2
#: Per-job execution limit passed to the pool, and the client timeout.
JOB_TIMEOUT_S = 120.0
CLIENT_TIMEOUT_S = 60.0


@dataclass
class Record:
    """One repetition's measurements (host seconds unless noted)."""

    workload: str
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0             # jobs (or batches) asked for
    failed: int = 0                # failed/quarantined jobs, errored batches
    jobs: int = 0                  # jobs answered
    insts: int = 0                 # measured instructions over jobs answered
    batches: List[Dict] = field(default_factory=list)
    digest: Optional[str] = None   # dse frontier digest
    errors: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)


@contextlib.contextmanager
def _timed(record: Record, tracer=None):
    """Time the region from first request to last result: wall, CPU of
    this process plus its reaped children, and peak RSS.  A traced
    repetition wraps the layer calls only inside this region."""
    if tracer is not None:
        from layers import install
        install(tracer)
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        yield
    finally:
        record.wall_s = time.perf_counter() - t0
        record.cpu_s = _cpu_seconds() - cpu0
        record.peak_rss_mb = _peak_rss_mb()
        if tracer is not None:
            tracer.restore()


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


# ----------------------------------------------------------------------
# sweep-cold: a figure sweep on a fresh checkout
# ----------------------------------------------------------------------


def sweep_cold(seed: int, index: int, work: Path, size: Dict,
               tracer=None, started: float = 0.0,
               setup_only: bool = False) -> Record:
    from repro.core.presets import model_config
    from repro.experiments import runner
    from repro.experiments.diskcache import DiskCache
    from repro.experiments.pool import SimJob

    record = Record("sweep-cold")
    jobs = [SimJob(config=model_config(model), benchmark=benchmark,
                   measure=size["measure"], warmup=size["warmup"],
                   seed=seed)
            for model in size["models"] for benchmark in size["benchmarks"]]
    cache = DiskCache(work / "cache")
    cache.root.mkdir(parents=True)
    record.attempted = len(jobs)
    record.setup_s = time.monotonic() - started
    if setup_only:
        return record
    with _timed(record, tracer):
        outcomes = runner.run_sweep(jobs, workers=WORKERS, cache=cache,
                                    timeout=JOB_TIMEOUT_S)

    answered = [outcome for outcome in outcomes if outcome.ok]
    record.failed = len(jobs) - len(answered)
    record.jobs = len(answered)
    record.insts = sum(outcome.run.stats.committed for outcome in answered)
    if any(outcome.source != "simulated" for outcome in outcomes):
        record.errors.append("a cold sweep answered a job from cache")
    if len(cache) != len(answered):
        record.errors.append(f"cache holds {len(cache)} entries for "
                             f"{len(answered)} answered jobs")
    # Reference check: an in-process simulate() of a seeded sample.
    picker = random.Random(f"sweep-cold:{seed}:{index}")
    for outcome in picker.sample(answered, min(size["checked"],
                                               len(answered))):
        job = outcome.job
        expected = runner.simulate(job.config, job.benchmark, job.measure,
                                   job.warmup, job.seed).to_dict()
        if outcome.run.to_dict() != expected:
            record.errors.append(f"{job.describe()}: swept result differs "
                                 f"from simulate()")
    if tracer is not None:
        _replay_pool_jobs(record, tracer, len(jobs))
    return record


def _replay_pool_jobs(record: Record, tracer, jobs_submitted: int,
                      batches: Optional[List[Dict]] = None) -> None:
    """Replay every pooled job in-process and derive the layer metrics."""
    from layers import layer_metrics, pooled_results, replay_job

    for result in pooled_results(tracer):
        if replay_job(result.job, tracer).to_dict() != result.run.to_dict():
            record.errors.append(f"{result.job.describe()}: replayed steps "
                                 f"differ from the pooled simulate()")
    record.layers = layer_metrics(tracer, batches, jobs_submitted)


# ----------------------------------------------------------------------
# dse-halving: a DSE user waiting for a frontier
# ----------------------------------------------------------------------


def dse_halving(seed: int, index: int, work: Path, size: Dict,
                tracer=None, started: float = 0.0,
                setup_only: bool = False) -> Record:
    from repro.experiments import dse

    record = Record("dse-halving")
    out = work / "frontier.json"
    argv = ["--space", size["space"], "--samples", str(size["samples"]),
            "--budget", str(size["budget"]), "--rungs", str(size["rungs"]),
            "--eta", str(size["eta"]),
            "--min-measure", str(size["min_measure"]),
            "--warmup-factor", str(size["warmup_factor"]),
            "--benchmarks", *size["benchmarks"],
            "--jobs", str(WORKERS), "--timeout", str(JOB_TIMEOUT_S),
            "--seed", str(seed), "--cache-dir", str(work / "cache"),
            "--out", str(out)]
    (work / "cache").mkdir(parents=True)
    record.setup_s = time.monotonic() - started
    if setup_only:
        return record
    console = io.StringIO()
    with _timed(record, tracer), contextlib.redirect_stdout(console):
        status = dse.main(argv)

    if status != 0:
        record.errors.append(f"dse.main exited {status}: "
                             f"{console.getvalue()[-500:]}")
        return record
    data = out.read_bytes()
    payload = json.loads(data)
    benches = len(payload["benchmarks"])
    record.jobs = sum(rung["configs"] * benches
                      for rung in payload["rungs_detail"])
    record.insts = sum(rung["configs"] * benches * rung["measure"]
                       for rung in payload["rungs_detail"])
    # A config is dropped when any of its jobs fails; count one each.
    record.failed = len(payload["failed"])
    record.attempted = record.jobs
    record.jobs -= record.failed
    record.digest = hashlib.sha256(data).hexdigest()
    problems = dse.verify_payload(payload)
    record.errors.extend(f"frontier invariant: {p}" for p in problems)
    if not payload["frontier"]:
        record.errors.append("empty Pareto frontier")
    if tracer is not None:
        _replay_pool_jobs(record, tracer, record.jobs)
    return record


# ----------------------------------------------------------------------
# serve-warm: a client resubmitting figure job lists to the service
# ----------------------------------------------------------------------


def serve_warm(seed: int, index: int, work: Path, size: Dict,
               tracer=None, started: float = 0.0,
               setup_only: bool = False) -> Record:
    from repro.core.presets import model_config
    from repro.experiments.diskcache import DiskCache, fingerprint
    from repro.experiments.pool import SimJob
    from repro.experiments.runner import run_sweep
    from repro.obs.manifest import aggregate_entry
    from repro.serve.client import ServeClient
    from repro.serve.protocol import SERVE_MODELS
    from repro.serve.server import start_in_background
    from repro.workloads import ALL_BENCHMARKS

    record = Record("serve-warm")
    models = size["models"] or SERVE_MODELS
    benchmarks = size["benchmarks"] or ALL_BENCHMARKS
    cache = DiskCache(work / "cache")
    cache.root.mkdir(parents=True)
    jobs = [SimJob(config=model_config(model), benchmark=benchmark,
                   measure=size["measure"], warmup=size["warmup"],
                   seed=seed)
            for model in models for benchmark in benchmarks]
    # Prewarm: every job the client will ask for is simulated once.
    expected: Dict[str, Dict] = {}
    specs: List[Dict] = []
    for outcome in run_sweep(jobs, workers=WORKERS, cache=cache,
                             timeout=JOB_TIMEOUT_S):
        if not outcome.ok:
            record.failed += 1  # a prewarm job that failed
            continue
        job = outcome.job
        expected[fingerprint(job.config, job.benchmark, job.measure,
                             job.warmup, job.seed)] = _plain(
            aggregate_entry(outcome.run))
        specs.append({"model": job.config.name, "benchmark": job.benchmark,
                      "measure": job.measure, "warmup": job.warmup,
                      "seed": job.seed})
    if not specs:
        record.attempted = record.failed
        return record
    draw = random.Random(f"serve-warm:{seed}")
    batches = [{"tenant": "bench",
                "jobs": [draw.choice(specs)
                         for _ in range(size["batch_jobs"])]}
               for _ in range(size["batches"])]
    server, stop = start_in_background(
        cache=DiskCache(cache.root), workers=WORKERS,
        timeout=JOB_TIMEOUT_S, host="127.0.0.1", port=0)
    try:
        client = ServeClient("127.0.0.1", server.port,
                             timeout=CLIENT_TIMEOUT_S)
        record.setup_s = time.monotonic() - started
        if setup_only:
            return record
        answers: List[Optional[List[Dict]]] = []
        with _timed(record, tracer):
            for batch in batches:
                began = time.perf_counter()
                try:
                    events = client.run_batch(batch)
                except (OSError, http.client.HTTPException, RuntimeError,
                        ValueError):
                    events = None  # an errored batch counts as failed
                answers.append(events)
                record.batches.append(
                    {"round_trip_s": time.perf_counter() - began})
    finally:
        stop()

    record.attempted = len(batches) * size["batch_jobs"] + record.failed
    for batch, events, timing in zip(batches, answers, record.batches):
        record.failed += _check_batch(record, batch, events, expected,
                                      timing)
    record.jobs = record.attempted - record.failed
    record.insts = record.jobs * size["measure"]
    if tracer is not None:
        _replay_pool_jobs(record, tracer, record.attempted, record.batches)
    return record


def _plain(value):
    """JSON round trip, so a local dict compares equal to a streamed one."""
    return json.loads(json.dumps(value, sort_keys=True))


def _check_batch(record: Record, batch: Dict, events, expected: Dict,
                 timing: Dict) -> int:
    """Check one batch's event stream; returns the jobs it failed.

    A request error or a stream cut before ``batch_end`` fails the
    whole batch; a wrong answer is recorded in ``record.errors``.
    """
    timing["server_s"] = 0.0
    timing["bytes"] = 0
    if not events or events[-1].get("event") != "batch_end":
        return len(batch["jobs"])
    end = events[-1]
    timing["server_s"] = end["wall_seconds"]
    timing["bytes"] = sum(len(json.dumps(event, sort_keys=True)) + 1
                          for event in events)
    job_events = [event for event in events if event["event"] == "job"]
    if end["by_source"] != {"cache": end["distinct_jobs"]}:
        record.errors.append(f"warm batch {end['batch_id']} was not served "
                             f"entirely from cache: {end['by_source']}")
    if len(job_events) != end["distinct_jobs"]:
        record.errors.append(f"batch {end['batch_id']}: "
                             f"{len(job_events)} job events for "
                             f"{end['distinct_jobs']} distinct jobs")
    for event in job_events:
        if event["status"] != "ok":
            continue
        if event.get("result") != expected.get(event["digest"]):
            record.errors.append(f"batch {end['batch_id']}: {event['job']} "
                                 f"differs from the prewarmed entry")
    return end["failed"]


WORKLOADS = {
    "sweep-cold": sweep_cold,
    "dse-halving": dse_halving,
    "serve-warm": serve_warm,
}
