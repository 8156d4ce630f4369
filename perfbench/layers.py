"""Spans around the public calls into each layer, and the per-layer
metrics derived from them.

Nothing under ``src/`` is instrumented.  A traced repetition installs
:class:`Tracer` wrappers on the public entry points the workloads reach
(``runner.run_sweep``, ``pool.run_jobs``, ``DiskCache.load``, ...),
runs, restores the originals, and turns the recorded spans into the
named per-layer metrics of ``BENCHMARK.json``.  Spans live in memory
only; the traced repetition writes the derived metrics when it ends.

Only the parent process is traced.  Pool workers are forked and their
spans would be lost, so the per-job simulation layers (trace
generation, warm-up, core loop, energy) are measured by
:func:`replay_job`, which re-runs a job in-process through the same
public steps :func:`repro.experiments.runner.simulate` takes.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Core-model family of each preset, as used in metric names (``+`` is
#: not allowed there).  Design-space configs belong to no family.
FAMILIES = {
    "BIG": "big", "HALF": "half", "LITTLE": "little",
    "BIG+FX": "big_fx", "HALF+FX": "half_fx", "CA": "ca",
}

#: Every per-layer metric a traced repetition reports, with its unit.
#: ``host.probe_s`` and ``trace.overhead_frac`` are added by the runner,
#: which owns the host probe and the untraced baseline.
LAYER_UNITS: Dict[str, str] = {
    "workloads.program_build_s": "s",
    "workloads.trace_gen_s": "s",
    "workloads.trace_gen_us_per_inst": "us/inst",
    "workloads.traces_generated": "count",
    "core.build_s": "s",
    "core.warmup_s": "s",
    "core.warmup_us_per_inst": "us/inst",
    "core.run_s": "s",
    "core.run_us_per_inst": "us/inst",
    **{f"core.run_us_per_inst.{family}": "us/inst"
       for family in FAMILIES.values()},
    "core.sim_cycles": "cycles",
    "core.committed_insts": "insts",
    "core.ff_skip_ratio": "ratio",
    "energy.evaluate_s": "s",
    "pool.attempts": "count",
    "pool.retries": "count",
    "pool.exec_s": "s",
    "pool.slot_idle_s": "s",
    "pool.overhead_ms_per_job": "ms",
    "pool.parallel_efficiency": "ratio",
    "diskcache.store_s": "s",
    "diskcache.store_us_per_job": "us",
    "diskcache.load_s": "s",
    "diskcache.load_us_per_job": "us",
    "diskcache.fingerprint_us": "us",
    "diskcache.hit_ratio": "ratio",
    "runner.sweep_s": "s",
    "runner.dedup_ratio": "ratio",
    "dse.rung0_s": "s",
    "dse.rung1_s": "s",
    "dse.pareto_s": "s",
    "dse.configs_evaluated": "count",
    "serve.submit_s": "s",
    "serve.stream_s": "s",
    "serve.server_batch_s": "s",
    "serve.client_overhead_s": "s",
    "serve.parse_batch_us": "us",
    "serve.digest_us_per_job": "us",
    "serve.bytes_per_batch": "bytes",
}


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span on
    the same thread (None at the top)."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: Dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus reversible wrappers on public calls."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patched: List[tuple] = []

    def span(self, name: str, **attrs) -> "_SpanScope":
        return _SpanScope(self, name, attrs)

    def patch(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until
        :meth:`restore`."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def timed(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` so every call records one span."""
        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
            return traced
        self.patch(owner, attr, make)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- queries -------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.seconds for span in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def attr_sum(self, name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in self.named(name))


class _SpanScope:
    __slots__ = ("tracer", "span", "index")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict):
        self.tracer = tracer
        self.span = Span(name, 0.0, attrs=dict(attrs))

    def __enter__(self) -> Span:
        stack = getattr(self.tracer._local, "stack", None)
        if stack is None:
            stack = self.tracer._local.stack = []
        self.span.parent = stack[-1] if stack else None
        self.index = len(self.tracer.spans)
        self.tracer.spans.append(self.span)
        stack.append(self.index)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._local.stack.pop()


def install(tracer: Tracer) -> None:
    """Wrap the public calls into every layer a workload can reach.

    A name another module took with ``from ... import name`` is patched
    there too, since that is the binding its callers resolve.
    """
    from repro.experiments import diskcache, dse, pool, runner
    from repro.experiments.diskcache import DiskCache
    from repro.serve import protocol, server
    from repro.serve.client import ServeClient

    for owner in (runner, server):
        tracer.timed(owner, "run_sweep", "runner.sweep")
    tracer.timed(runner, "prefetch", "runner.sweep")
    tracer.patch(pool, "run_jobs", lambda original: _traced_run_jobs(
        tracer, original))

    def traced_load(original):
        @functools.wraps(original)
        def load(*args, **kwargs):
            with tracer.span("diskcache.load") as span:
                run = original(*args, **kwargs)
                span.attrs["hit"] = run is not None
                return run
        return load
    tracer.patch(DiskCache, "load", traced_load)
    tracer.timed(DiskCache, "store", "diskcache.store")
    for owner in (diskcache, protocol, server):
        tracer.timed(owner, "fingerprint", "diskcache.fingerprint")

    def traced_explore(original):
        @functools.wraps(original)
        def explore(*args, **kwargs):
            with tracer.span("dse.explore") as span:
                result = original(*args, **kwargs)
            span.attrs["configs"] = sum(
                record["configs"] for record in result.payload["rungs_detail"])
            for rung, (_, began, ended) in enumerate(result.rung_spans):
                tracer.spans.append(Span(f"dse.rung{rung}", began, ended))
            return result
        return explore
    tracer.patch(dse, "explore", traced_explore)
    tracer.timed(dse, "pareto_ranks", "dse.pareto")
    tracer.timed(dse, "pareto_front_indices", "dse.pareto")

    tracer.timed(server, "parse_batch", "serve.parse_batch")
    tracer.timed(protocol.JobSpec, "digest", "serve.digest")
    tracer.timed(ServeClient, "submit", "serve.submit")

    def traced_stream(original):
        @functools.wraps(original)
        def stream(*args, **kwargs):
            with tracer.span("serve.stream"):
                yield from original(*args, **kwargs)
        return stream
    tracer.patch(ServeClient, "stream", traced_stream)


def _traced_run_jobs(tracer: Tracer, original):
    """``pool.run_jobs`` with a span per call and one ``pool.attempt``
    span per terminal attempt, taken from its public ``on_attempt``
    hook (the caller's own hook still fires)."""
    @functools.wraps(original)
    def run_jobs(jobs, workers=1, *args, on_attempt=None, **kwargs):
        jobs = list(jobs)

        def attempt(job, number, started_ts, duration, status, pid):
            tracer.spans.append(Span(
                "pool.attempt", started_ts, started_ts + duration,
                attrs={"retry": number > 1, "status": status}))
            if on_attempt is not None:
                on_attempt(job, number, started_ts, duration, status, pid)

        with tracer.span("pool.run_jobs", jobs=len(jobs),
                         slots=max(1, min(workers, len(jobs)))) as span:
            outcomes = original(jobs, workers, *args, on_attempt=attempt,
                                **kwargs)
        span.attrs["results"] = [outcome for outcome in outcomes
                                 if outcome.ok]
        return outcomes
    return run_jobs


def replay_job(job, tracer: Tracer):
    """Re-run one pool job in-process, timing each public step.

    Mirrors :func:`repro.experiments.runner.simulate` step for step but
    without its per-process trace memo, as a forked worker runs it.
    Returns the :class:`BenchmarkRun`; callers compare its ``to_dict()``
    with the pooled result so the decomposition can never drift from
    ``simulate()`` unnoticed.
    """
    from repro.core import build_core
    from repro.core.warmup import functional_warmup
    from repro.energy import EnergyModel
    from repro.experiments.runner import BenchmarkRun
    from repro.workloads import (
        TraceGenerator, build_program, get_profile, renumber_trace)

    with tracer.span("workloads.program_build"):
        program = build_program(get_profile(job.benchmark), seed=job.seed)
    with tracer.span("workloads.trace_gen",
                     insts=job.warmup + job.measure, traces=2):
        generator = TraceGenerator(program, seed=job.seed)
        warm_trace = generator.generate(job.warmup)
        measure_trace = renumber_trace(generator.generate(job.measure))
    with tracer.span("core.build"):
        core = build_core(job.config)
    with tracer.span("core.warmup", insts=job.warmup):
        functional_warmup(core, warm_trace)
    with tracer.span("core.run",
                     family=FAMILIES.get(job.config.name)) as span:
        stats = core.run(measure_trace)
    span.attrs.update(committed=stats.committed, cycles=stats.cycles,
                      ff_skipped=getattr(core, "_ff_skipped", 0))
    stats.benchmark = job.benchmark
    with tracer.span("energy.evaluate"):
        energy = EnergyModel(job.config).evaluate(stats)
    return BenchmarkRun(model=job.config.name, benchmark=job.benchmark,
                        stats=stats, energy=energy)


def pooled_results(tracer: Tracer) -> List:
    """Every successful :class:`JobResult` the traced pool produced."""
    return [result for span in tracer.named("pool.run_jobs")
            for result in span.attrs["results"]]


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, batches: Optional[List[Dict]] = None,
                  jobs_submitted: int = 0) -> Dict[str, float]:
    """Derive every :data:`LAYER_UNITS` metric from the recorded spans.

    A layer the workload never reached reads 0.  ``batches`` carries the
    serve workload's per-batch client records (round trip, server time,
    streamed bytes); ``jobs_submitted`` is how many jobs were handed to
    the sweep engine, the base of ``runner.dedup_ratio``.
    """
    m: Dict[str, float] = {}
    gen = tracer.named("workloads.trace_gen")
    m["workloads.program_build_s"] = tracer.total("workloads.program_build")
    m["workloads.trace_gen_s"] = sum(span.seconds for span in gen)
    m["workloads.trace_gen_us_per_inst"] = _per(
        m["workloads.trace_gen_s"], tracer.attr_sum("workloads.trace_gen",
                                                   "insts"), 1e6)
    m["workloads.traces_generated"] = tracer.attr_sum(
        "workloads.trace_gen", "traces")

    runs = tracer.named("core.run")
    committed = sum(span.attrs["committed"] for span in runs)
    cycles = sum(span.attrs["cycles"] for span in runs)
    m["core.build_s"] = tracer.total("core.build")
    m["core.warmup_s"] = tracer.total("core.warmup")
    m["core.warmup_us_per_inst"] = _per(
        m["core.warmup_s"], tracer.attr_sum("core.warmup", "insts"), 1e6)
    m["core.run_s"] = sum(span.seconds for span in runs)
    m["core.run_us_per_inst"] = _per(m["core.run_s"], committed, 1e6)
    for family in FAMILIES.values():
        mine = [span for span in runs if span.attrs["family"] == family]
        m[f"core.run_us_per_inst.{family}"] = _per(
            sum(span.seconds for span in mine),
            sum(span.attrs["committed"] for span in mine), 1e6)
    m["core.sim_cycles"] = cycles
    m["core.committed_insts"] = committed
    m["core.ff_skip_ratio"] = _per(
        sum(span.attrs["ff_skipped"] for span in runs), cycles)
    m["energy.evaluate_s"] = tracer.total("energy.evaluate")

    attempts = tracer.named("pool.attempt")
    exec_s = sum(span.seconds for span in attempts)
    slots_s = sum(span.seconds * span.attrs["slots"]
                  for span in tracer.named("pool.run_jobs"))
    m["pool.attempts"] = len(attempts)
    m["pool.retries"] = sum(1 for span in attempts if span.attrs["retry"])
    m["pool.exec_s"] = exec_s
    m["pool.slot_idle_s"] = max(0.0, slots_s - exec_s)
    m["pool.overhead_ms_per_job"] = _per(m["pool.slot_idle_s"],
                                         len(attempts), 1e3)
    m["pool.parallel_efficiency"] = _per(exec_s, slots_s)

    loads = tracer.named("diskcache.load")
    stores = tracer.count("diskcache.store")
    m["diskcache.store_s"] = tracer.total("diskcache.store")
    m["diskcache.store_us_per_job"] = _per(m["diskcache.store_s"], stores,
                                           1e6)
    m["diskcache.load_s"] = sum(span.seconds for span in loads)
    m["diskcache.load_us_per_job"] = _per(m["diskcache.load_s"], len(loads),
                                          1e6)
    m["diskcache.fingerprint_us"] = 1e6 * _median(
        [span.seconds for span in tracer.named("diskcache.fingerprint")])
    m["diskcache.hit_ratio"] = _per(
        sum(1 for span in loads if span.attrs["hit"]), len(loads))

    m["runner.sweep_s"] = tracer.total("runner.sweep")
    m["runner.dedup_ratio"] = _per(
        jobs_submitted - sum(span.attrs["jobs"]
                             for span in tracer.named("pool.run_jobs")),
        jobs_submitted)

    m["dse.rung0_s"] = tracer.total("dse.rung0")
    m["dse.rung1_s"] = tracer.total("dse.rung1")
    m["dse.pareto_s"] = tracer.total("dse.pareto")
    m["dse.configs_evaluated"] = tracer.attr_sum("dse.explore", "configs")

    batches = batches or []
    m["serve.submit_s"] = _median(
        [span.seconds for span in tracer.named("serve.submit")])
    m["serve.stream_s"] = _median(
        [span.seconds for span in tracer.named("serve.stream")])
    m["serve.server_batch_s"] = _median([b["server_s"] for b in batches])
    m["serve.client_overhead_s"] = _median(
        [b["round_trip_s"] - b["server_s"] for b in batches])
    m["serve.parse_batch_us"] = 1e6 * _median(
        [span.seconds for span in tracer.named("serve.parse_batch")])
    m["serve.digest_us_per_job"] = 1e6 * _median(
        [span.seconds for span in tracer.named("serve.digest")])
    m["serve.bytes_per_batch"] = (statistics.fmean(
        [b["bytes"] for b in batches]) if batches else 0.0)
    return m
