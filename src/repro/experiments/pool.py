"""Parallel simulation driver: fan (config, benchmark) jobs over workers.

Design-space evaluation is embarrassingly parallel across (model,
benchmark) pairs — every figure in the reproduction is a static job list
with no cross-job data flow.  :func:`run_jobs` maps such a list over
worker processes:

* **Deterministic**: a job's trace is a pure function of its trace key
  (benchmark, measure, warmup, seed), so its result is a pure function
  of the job tuple; results return in submission order and are
  bit-for-bit identical to a serial run regardless of worker count or
  scheduling.
* **One worker per slot per trace group**: launches are grouped by
  trace key.  A free slot starts a worker process for the first pending
  key; the worker is bound to that key and runs the key's launches one
  after another, each sent over the worker's own pipe, until none is
  pending, when it retires.  A worker whose attempt raised retires too,
  and a timed-out or dead worker is killed, so a retry never runs in a
  process that failed an attempt; the next launch of the key starts a
  fresh worker.  The parent sends a worker its next job before it books
  the last one (``on_result``, ``on_attempt``), so its bookkeeping
  overlaps the workers' execution.  No worker outlives
  :func:`run_jobs`, and one whose parent dies exits.
* **Trace sharing**: every model simulating one benchmark interval
  replays the same trace, so under ``fork`` the parent builds a key's
  (warm-up, measure) trace pair once when two or more pending launches
  share it, and hands it to each worker it starts for that key as a
  process argument (inherited, not copied).  It drops the pair once no
  launch of that key is pending, so at most one is held at each fork.
  A pair is built at its group's first launch, never ahead of it.  A key
  used by one job, a pair whose build raised or outlasted ``timeout``,
  and every ``spawn`` worker build their own trace in the worker (once
  per worker, through ``simulate``'s memo), as does the serial path.  A
  job's ``wall_seconds`` therefore excludes a parent-built trace;
  ``on_trace_built`` reports that cost.
* **Fault tolerant**: a worker exception, a wedged (timed-out) job or a
  worker process dying outright produces a structured
  :class:`JobFailure` in the job's result slot instead of tearing down
  the sweep; every healthy job still completes.  A per-job retry budget
  (``retries``, exponential ``retry_backoff``) re-runs transient
  failures before quarantining them; ``fail_fast`` instead aborts on the
  first exhausted job with :class:`SweepAborted`, which carries every
  result completed before the abort.
* **Graceful fallback**: ``workers <= 1``, a single job, or a platform
  without ``fork`` (no start method at all) degrades to a plain serial
  loop in-process.
* **Accounted**: every :class:`JobResult`/:class:`JobFailure` carries
  the job's wall-clock seconds, the worker pid (shared by every job that
  worker ran) and the attempt count.

Timeout semantics: ``timeout`` bounds a job's *execution* time, measured
from the moment a worker actually starts it — time spent queued behind
other jobs while ``workers < len(jobs)`` is never charged (each job is
scheduled into a free worker slot and its deadline starts at its own
worker-side start signal).  In the serial path the check is necessarily
post-hoc: the job has already run to completion in-process when the
over-budget wall time is observed, so it is quarantined without retry
(a deterministic job would only run long again) and all prior completed
results are kept.  A trace pair the parent built counts against the
budget exactly as a worker-built one would: a worker builds its pair
during its first job and finds it in its memo for the rest, so the
build seconds are taken off the deadline of the first job each worker
started with the pair runs.  A pair whose build alone took longer than
``timeout`` is discarded so the workers build it themselves and time
out as they always did.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core import CoreConfig

#: Extra allowance on top of ``timeout`` for a worker that never even
#: reported its execution start (covers process startup / import cost).
_START_GRACE_SECONDS = 5.0
#: Ceiling on the exponential retry backoff.  Uncapped,
#: ``backoff * 2**(n-1)`` passes an hour by attempt 14 — a generous
#: retry budget must never strand a job that long between attempts.
MAX_RETRY_DELAY = 60.0


def retry_delay(retry_backoff: float, attempts: int,
                job: Optional["SimJob"] = None,
                cap: float = MAX_RETRY_DELAY) -> float:
    """Delay before re-running a job whose ``attempts``-th try failed.

    Exponential in the attempt count but capped at ``cap``, then scaled
    into ``[delay/2, delay)`` by a jitter derived deterministically from
    the job identity and attempt number: when a shared-resource hiccup
    fails a whole sweep at once, the retries spread out instead of
    waking in lockstep and hammering the same resource again.  No RNG
    state and no wall clock participate, so a re-run schedules
    identically — the delay only shapes timing, never results, which
    stay bit-identical.
    """
    if retry_backoff <= 0:
        return 0.0
    delay = min(cap, retry_backoff * (2.0 ** (attempts - 1)))
    if job is not None:
        token = f"{job.describe()}#{attempts}".encode()
        word = int.from_bytes(
            hashlib.sha256(token).digest()[:8], "big")
        delay *= 0.5 + 0.5 * (word / 2.0 ** 64)
    return delay


@dataclass(frozen=True)
class SimJob:
    """One simulation request: a pure function of these five fields."""

    config: CoreConfig
    benchmark: str
    measure: int
    warmup: int
    seed: int = 0

    def describe(self) -> str:
        return (f"{self.config.name}/{self.benchmark}"
                f"(measure={self.measure}, warmup={self.warmup},"
                f" seed={self.seed})")


@dataclass
class JobResult:
    """One finished job plus its execution accounting.

    ``worker_pid`` is the process that ran the job.  A pooled worker
    runs job after job of one trace group, so one pid spans every job
    that worker ran; serial jobs carry the caller's own pid.
    """

    job: SimJob
    run: object                  # BenchmarkRun (import cycle avoided)
    wall_seconds: float = 0.0
    worker_pid: int = field(default_factory=os.getpid)
    attempts: int = 1
    started_ts: float = 0.0      # host wall clock (time.time) at start

    @property
    def ok(self) -> bool:
        return True


@dataclass
class JobFailure:
    """One job the sweep gave up on: quarantined, not fatal.

    ``cause`` is one of ``"exception"`` (the worker raised),
    ``"timeout"`` (the job exceeded the per-job execution deadline) or
    ``"worker-death"`` (the worker process exited without reporting a
    result — OOM kill, segfault, ``os._exit``).  ``attempts`` counts
    every try, including retries.
    """

    job: SimJob
    cause: str
    error: str = ""
    error_type: str = ""
    attempts: int = 1
    wall_seconds: float = 0.0
    worker_pid: int = 0

    @property
    def ok(self) -> bool:
        return False

    def describe(self) -> str:
        text = (f"{self.job.describe()}: {self.cause} after "
                f"{self.attempts} attempt(s)")
        if self.error:
            text += f" — {self.error}"
        return text

    def to_dict(self) -> Dict:
        """Scalar fields only (the job is recorded as its description)."""
        return {
            "job": self.job.describe(),
            "cause": self.cause,
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "wall_seconds": self.wall_seconds,
            "worker_pid": self.worker_pid,
        }

    @classmethod
    def from_dict(cls, job: SimJob, data: Dict) -> "JobFailure":
        """Rehydrate a persisted record against the live ``job``."""
        return cls(
            job=job,
            cause=data.get("cause", "exception"),
            error=data.get("error", ""),
            error_type=data.get("error_type", ""),
            attempts=int(data.get("attempts", 1)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            worker_pid=int(data.get("worker_pid", 0)),
        )


class SweepAborted(RuntimeError):
    """``fail_fast`` abort: the first quarantined job stopped the sweep.

    ``completed`` holds every :class:`JobResult` finished before the
    abort (in submission order) so callers can persist the work already
    done; ``failure`` is the job that exhausted its retry budget.
    """

    def __init__(self, failure: JobFailure,
                 completed: Sequence[JobResult]):
        self.failure = failure
        self.completed = list(completed)
        super().__init__(failure.describe())


class JobTimeoutError(SweepAborted):
    """A ``fail_fast`` abort whose cause was the per-job timeout."""


class FaultSpec:
    """Deterministic, picklable fault injector for tests and CI smoke.

    Spec syntax ``KIND[:BENCHMARK[:PARAM]]`` — an empty or ``*``
    benchmark matches every job:

    * ``crash[:bench]`` — raise inside the worker on every attempt.
    * ``flaky[:bench[:n]]`` — raise on the first ``n`` attempts
      (default 1), then succeed; exercises the retry path.
    * ``die[:bench]`` — ``os._exit`` the worker (no result message),
      exercising worker-death isolation.
    * ``hang[:bench[:seconds]]`` — sleep (default 3600 s) so the job
      trips the execution timeout.
    * ``sleep[:bench[:seconds]]`` — sleep (default 0.05 s) then run
      normally; makes job durations controllable in timing tests.
    """

    KINDS = ("crash", "flaky", "die", "hang", "sleep")

    def __init__(self, kind: str, benchmark: Optional[str] = None,
                 param: Optional[float] = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown fault kind {kind!r} "
                             f"(expected one of {self.KINDS})")
        self.kind = kind
        self.benchmark = benchmark or None
        self.param = param

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        parts = text.split(":")
        kind = parts[0]
        benchmark = parts[1] if len(parts) > 1 else None
        if benchmark in ("", "*"):
            benchmark = None
        param = float(parts[2]) if len(parts) > 2 else None
        return cls(kind, benchmark, param)

    def __call__(self, job: SimJob, attempt: int) -> None:
        if self.benchmark is not None and job.benchmark != self.benchmark:
            return
        if self.kind == "crash":
            raise RuntimeError(
                f"injected crash ({job.benchmark}, attempt {attempt})")
        if self.kind == "flaky":
            budget = 1 if self.param is None else int(self.param)
            if attempt <= budget:
                raise RuntimeError(
                    f"injected flake ({job.benchmark}, attempt {attempt}"
                    f" of {budget} failing)")
        elif self.kind == "die":
            os._exit(23)
        elif self.kind == "hang":
            time.sleep(3600.0 if self.param is None else self.param)
        elif self.kind == "sleep":
            time.sleep(0.05 if self.param is None else self.param)


#: Optional callable(job, attempt) run in the worker before simulation;
#: see :func:`set_fault_injector`.
_FAULT_INJECTOR: Optional[Callable[[SimJob, int], None]] = None


def set_fault_injector(
        injector: Optional[Callable[[SimJob, int], None]]) -> None:
    """Install (or with None remove) a fault-injection hook.

    The hook runs inside the worker, before the simulation, on every
    attempt.  It is shipped to workers by value (pickled with the job),
    so it must be picklable — :class:`FaultSpec` instances and top-level
    functions qualify.  Test and CI machinery only.
    """
    global _FAULT_INJECTOR
    _FAULT_INJECTOR = injector


def _available_start_method() -> Optional[str]:
    """Prefer fork (cheap, inherits warm imports); else spawn; else None."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return "fork"
    if methods:
        return methods[0]
    return None


def _trace_key(job: SimJob) -> Tuple:
    """The jobs with equal keys replay one identical trace pair."""
    return (job.benchmark, job.measure, job.warmup, job.seed)


def _execute_job(job: SimJob, traces=None) -> JobResult:
    """Worker body: simulate one job (no caching — the parent caches).

    ``traces`` is the job's trace pair when the parent built it; without
    it the job derives its own through ``simulate``'s memo.
    """
    from repro.experiments.runner import simulate, simulate_traces

    started_ts = time.time()
    started = time.perf_counter()
    if traces is None:
        run = simulate(job.config, job.benchmark, job.measure,
                       job.warmup, job.seed)
    else:
        run = simulate_traces(job.config, job.benchmark, traces)
    return JobResult(job=job, run=run,
                     wall_seconds=time.perf_counter() - started,
                     started_ts=started_ts)


def _worker_main(conn, injector, traces=None) -> None:
    """Worker process bound to one trace key: run each ``(job, attempt)``
    the parent sends over ``conn`` and report on it, until the parent
    sends ``None`` or goes away."""
    parent = multiprocessing.parent_process()
    watched = [conn] if parent is None else [conn, parent.sentinel]
    while conn in wait(watched):
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        job, attempt = message
        started = time.perf_counter()
        try:
            conn.send(("started", None))
            if injector is not None:
                injector(job, attempt)
            conn.send(("ok", _execute_job(job, traces)))
        except BaseException as exc:  # noqa: BLE001 — isolation is the point
            try:
                conn.send(("error", (type(exc).__name__, str(exc),
                                     time.perf_counter() - started)))
            except BaseException:
                os._exit(1)


def _terminate(proc) -> None:
    """Stop a worker process, escalating SIGTERM -> SIGKILL."""
    if proc.is_alive():
        proc.terminate()
        proc.join(0.5)
    if proc.is_alive():
        proc.kill()
        proc.join(0.5)


class _Worker:
    """Parent-side handle on one live worker and the attempt it runs."""

    __slots__ = ("proc", "conn", "key", "charge", "index", "attempt",
                 "charged", "launched", "launched_ts", "exec_started",
                 "exec_started_ts", "deadline")

    def __init__(self, proc, conn, key: Tuple, charge: float):
        self.proc = proc
        self.conn = conn
        self.key = key
        #: Build seconds of the trace pair the worker was forked with,
        #: owed by its first attempt only (later ones reuse the pair).
        self.charge = charge

    def launch(self, index: int, job: SimJob, attempt: int,
               timeout: Optional[float]) -> None:
        self.index = index
        self.attempt = attempt
        #: Seconds of this attempt's budget spent before it was sent.
        self.charged, self.charge = self.charge, 0.0
        self.launched = time.monotonic()
        self.launched_ts = time.time()
        self.exec_started: Optional[float] = None
        self.exec_started_ts: Optional[float] = None
        self.deadline = (None if timeout is None else
                         self.launched + timeout + _START_GRACE_SECONDS)
        try:
            self.conn.send((job, attempt))
        except OSError:
            pass  # the worker is gone; its sentinel reports the death

    def started(self, timeout: Optional[float]) -> None:
        self.exec_started = time.monotonic()
        self.exec_started_ts = time.time()
        if timeout is not None:
            self.deadline = self.exec_started + timeout - self.charged


def _notify_attempt(on_attempt, job: SimJob, attempt: int,
                    started_ts: float, duration: float, status: str,
                    worker_pid: int) -> None:
    """Fire the per-attempt telemetry hook; never let it fail a sweep."""
    if on_attempt is None:
        return
    try:
        on_attempt(job, attempt, started_ts, duration, status,
                   worker_pid)
    except Exception:
        pass


def _run_parallel(
    jobs: Sequence[SimJob],
    workers: int,
    timeout: Optional[float],
    retries: int,
    retry_backoff: float,
    fail_fast: bool,
    on_result,
    context,
    on_attempt=None,
    on_trace_built=None,
) -> List[Union[JobResult, JobFailure]]:
    """Slot-based scheduler: one worker per slot per trace group.

    At most ``workers`` worker processes live at once, each bound to one
    trace key (see the module docstring).  The parent sleeps in
    ``multiprocessing.connection.wait`` on the workers' pipes and
    process sentinels until a message, a worker exit, the nearest
    execution deadline or the nearest retry.  A job's deadline starts at
    its worker's "started" message, so queue wait is never charged
    against ``timeout``.  Outcomes are reassembled into submission order
    regardless of completion order.
    """
    from repro.workloads import generate_trace_pair

    injector = _FAULT_INJECTOR
    outcomes: List[Optional[Union[JobResult, JobFailure]]] = (
        [None] * len(jobs))
    keys = [_trace_key(job) for job in jobs]
    # Trace key -> its pending (index, attempt) launches, in group order.
    pending: Dict[Tuple, deque] = {}
    for index, key in enumerate(keys):
        pending.setdefault(key, deque()).append((index, 1))
    handoff = context.get_start_method() == "fork"
    # (trace key, trace pair, build seconds) being handed out.
    held: Tuple = (None, None, 0.0)
    worker_built = set()  # keys whose parent-side build raised or ran long
    waiting: List[Tuple[float, int, int]] = []  # (ready_at, idx, attempt)
    busy: List[_Worker] = []  # every live worker, each running an attempt
    retired: List = []  # processes told to exit, not yet reaped

    def completed() -> List[JobResult]:
        return [o for o in outcomes if isinstance(o, JobResult)]

    def traces_for(index: int) -> Tuple:
        """``(trace pair, build seconds)`` to start job ``index``'s
        worker with, or ``(None, 0.0)`` when the worker builds its own.

        ``index`` is still pending.
        """
        nonlocal held
        key = keys[index]
        if held[0] == key:
            return held[1], held[2]
        held = (None, None, 0.0)  # release before building the next pair
        if not handoff or key in worker_built or len(pending[key]) < 2:
            return None, 0.0
        began = time.perf_counter()
        job = jobs[index]
        try:
            traces = generate_trace_pair(job.benchmark, job.warmup,
                                         job.measure, job.seed)
        except Exception:
            # The worker rebuilds and fails exactly as it would have.
            worker_built.add(key)
            return None, 0.0
        seconds = time.perf_counter() - began
        if on_trace_built is not None:
            try:
                on_trace_built(key, seconds)
            except Exception:
                pass
        if timeout is not None and seconds >= timeout:
            # The build alone used up every job's budget: let the
            # workers rebuild it under their deadlines, as they did
            # before the parent built traces.
            worker_built.add(key)
            return None, 0.0
        held = (key, traces, seconds)
        return traces, seconds

    def launch_next(worker: _Worker) -> None:
        """Send ``worker`` the next pending launch of its key; drop the
        held pair once that key has none left."""
        nonlocal held
        launches = pending[worker.key]
        index, attempt = launches.popleft()
        if not launches:
            del pending[worker.key]
            if held[0] == worker.key:
                held = (None, None, 0.0)
        worker.launch(index, jobs[index], attempt, timeout)

    def start_worker() -> None:
        """Start a worker for the first pending key and launch on it."""
        key = next(iter(pending))
        traces, charge = traces_for(pending[key][0][0])
        conn, child = context.Pipe()
        proc = context.Process(target=_worker_main,
                               args=(child, injector, traces),
                               name="repro-pool-worker", daemon=True)
        del traces
        proc.start()
        child.close()
        worker = _Worker(proc, conn, key, charge)
        busy.append(worker)
        launch_next(worker)

    def settle(index: int, failure: JobFailure) -> None:
        """Retry a failed attempt, or quarantine / abort the sweep."""
        if failure.attempts <= retries:
            delay = retry_delay(retry_backoff, failure.attempts,
                                failure.job)
            waiting.append((time.monotonic() + delay, index,
                            failure.attempts + 1))
            return
        outcomes[index] = failure
        if fail_fast:
            error = (JobTimeoutError if failure.cause == "timeout"
                     else SweepAborted)
            raise error(failure, completed())

    def finished(worker: _Worker, kind: str, payload) -> None:
        """Book an answered attempt.  The worker gets its next launch
        (or retires) first, so it runs while the parent books.  A
        worker whose attempt raised retires, so no attempt runs in a
        process that has already failed one."""
        index, attempt = worker.index, worker.attempt
        started_ts = worker.exec_started_ts or worker.launched_ts
        pid = worker.proc.pid
        if kind == "ok" and worker.key in pending:
            launch_next(worker)
        else:
            busy.remove(worker)
            try:
                worker.conn.send(None)
            except OSError:
                pass
            worker.conn.close()
            retired.append(worker.proc)
            retired[:] = [p for p in retired if p.exitcode is None]
        if kind == "ok":
            payload.attempts = attempt
            outcomes[index] = payload
            _notify_attempt(on_attempt, jobs[index], attempt,
                            payload.started_ts, payload.wall_seconds,
                            "ok", payload.worker_pid)
            if on_result is not None:
                on_result(payload)
            return
        error_type, error, wall = payload
        _notify_attempt(on_attempt, jobs[index], attempt, started_ts,
                        wall, "exception", pid)
        settle(index, JobFailure(
            job=jobs[index], cause="exception", error=error,
            error_type=error_type, attempts=attempt,
            wall_seconds=wall, worker_pid=pid))

    def lost(worker: _Worker, cause: str, error: str,
             error_type: str) -> None:
        """Book an attempt that ended without an answer, and drop its
        worker (killing it if it still runs)."""
        ran_for = time.monotonic() - (worker.exec_started
                                      or worker.launched)
        busy.remove(worker)
        worker.conn.close()
        _terminate(worker.proc)
        _notify_attempt(on_attempt, jobs[worker.index], worker.attempt,
                        worker.exec_started_ts or worker.launched_ts,
                        ran_for, cause, worker.proc.pid)
        settle(worker.index, JobFailure(
            job=jobs[worker.index], cause=cause, error=error,
            error_type=error_type, attempts=worker.attempt,
            wall_seconds=ran_for, worker_pid=worker.proc.pid))

    def receive(worker: _Worker, exited: bool) -> None:
        """Read what ``worker`` sent; once its pipe is drained, an
        exited worker (a ``send`` completes before the sender can exit)
        owes no answer, so its attempt died with it."""
        try:
            while worker.conn.poll():
                kind, payload = worker.conn.recv()
                if kind != "started":
                    finished(worker, kind, payload)
                    return
                worker.started(timeout)
        except (EOFError, OSError):
            exited = True
        if exited:
            worker.proc.join(1.0)
            lost(worker, "worker-death",
                 f"worker pid {worker.proc.pid} exited with code "
                 f"{worker.proc.exitcode} before returning a result",
                 "WorkerDeath")

    try:
        while pending or waiting or busy:
            now = time.monotonic()
            if waiting:
                due = [entry for entry in waiting if entry[0] <= now]
                waiting = [e for e in waiting if e[0] > now]
                for _, index, attempt in due:
                    pending.setdefault(keys[index], deque()).append(
                        (index, attempt))
            while pending and len(busy) < workers:
                start_worker()
            wake = ([w.deadline for w in busy if w.deadline is not None]
                    + [entry[0] for entry in waiting])
            delay = (max(0.0, min(wake) - time.monotonic()) if wake
                     else None)
            if not busy:
                time.sleep(delay)
                continue
            ready = wait([w.conn for w in busy]
                         + [w.proc.sentinel for w in busy], delay)
            for worker in list(busy):
                exited = worker.proc.sentinel in ready
                if exited or worker.conn in ready:
                    receive(worker, exited)
            now = time.monotonic()
            for worker in list(busy):
                # A worker whose answer is already in its pipe is read
                # on the next pass, not killed.
                if (worker.deadline is not None and now > worker.deadline
                        and not worker.conn.poll()):
                    lost(worker, "timeout",
                         f"exceeded the {timeout:.1f}s per-job execution"
                         f" timeout" + (
                             f" ({worker.charged:.1f}s of it building its"
                             f" trace in the parent)"
                             if worker.charged else ""),
                         "JobTimeoutError")
        return list(outcomes)
    finally:
        for worker in busy:
            worker.conn.close()
            _terminate(worker.proc)
        for proc in retired:
            proc.join(1.0)
            _terminate(proc)


def _run_serial(
    jobs: Sequence[SimJob],
    timeout: Optional[float],
    retries: int,
    retry_backoff: float,
    fail_fast: bool,
    on_result,
    on_attempt=None,
) -> List[Union[JobResult, JobFailure]]:
    injector = _FAULT_INJECTOR
    outcomes: List[Union[JobResult, JobFailure]] = []

    def completed() -> List[JobResult]:
        return [o for o in outcomes if isinstance(o, JobResult)]

    for job in jobs:
        attempt = 1
        while True:
            started_ts = time.time()
            started = time.perf_counter()
            failure = None
            try:
                if injector is not None:
                    injector(job, attempt)
                result = _execute_job(job)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: BLE001 — isolate
                failure = JobFailure(
                    job=job, cause="exception", error=str(exc),
                    error_type=type(exc).__name__, attempts=attempt,
                    wall_seconds=time.perf_counter() - started,
                    worker_pid=os.getpid())
                _notify_attempt(on_attempt, job, attempt, started_ts,
                                failure.wall_seconds, "exception",
                                os.getpid())
            else:
                if timeout is not None and result.wall_seconds > timeout:
                    # Post-hoc by construction: the job already ran to
                    # completion in-process.  Quarantine without retry —
                    # a deterministic job would only run long again.
                    failure = JobFailure(
                        job=job, cause="timeout",
                        error=(f"took {result.wall_seconds:.1f}s "
                               f"(> {timeout:.1f}s timeout; serial "
                               f"timeouts are post-hoc)"),
                        error_type="JobTimeoutError", attempts=attempt,
                        wall_seconds=result.wall_seconds,
                        worker_pid=os.getpid())
                    _notify_attempt(on_attempt, job, attempt,
                                    started_ts, result.wall_seconds,
                                    "timeout", os.getpid())
                    attempt = retries + 1
                else:
                    result.attempts = attempt
                    outcomes.append(result)
                    _notify_attempt(on_attempt, job, attempt,
                                    started_ts, result.wall_seconds,
                                    "ok", result.worker_pid)
                    if on_result is not None:
                        on_result(result)
                    break
            if attempt <= retries:
                delay = retry_delay(retry_backoff, attempt, job)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
                continue
            if fail_fast:
                error = (JobTimeoutError if failure.cause == "timeout"
                         else SweepAborted)
                raise error(failure, completed())
            outcomes.append(failure)
            break
    return outcomes


def run_jobs(
    jobs: Sequence[SimJob],
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    retry_backoff: float = 0.25,
    fail_fast: bool = False,
    on_result: Optional[Callable[[JobResult], None]] = None,
    on_attempt: Optional[Callable[..., None]] = None,
    on_trace_built: Optional[Callable[[Tuple, float], None]] = None,
) -> List[Union[JobResult, JobFailure]]:
    """Run every job; outcomes in submission order.

    Args:
        jobs: Job list (order is preserved in the outcome list).
        workers: Concurrent worker-process count; ``<= 1`` runs serially
            in-process.  Each worker runs the jobs of one trace group
            one after another (see the module docstring), and every
            worker has exited by the time this returns or raises.
        timeout: Per-job wall-clock limit in seconds, charged against
            the job's own *execution* time only — never the time it
            spent queued behind other jobs waiting for a worker slot.
            In the serial path the check is post-hoc (the job has
            already completed when the overrun is observed).
        retries: How many times a failed attempt (exception, timeout,
            worker death) is re-run before the job is quarantined as a
            :class:`JobFailure`; the total attempt budget is
            ``retries + 1``.  Serial post-hoc timeouts are never
            retried.
        retry_backoff: Base delay in seconds before retry ``n``, scaled
            exponentially (``retry_backoff * 2**(n-1)``), capped at
            :data:`MAX_RETRY_DELAY` and deterministically jittered per
            job (see :func:`retry_delay`).
        fail_fast: Abort the sweep on the first quarantined job by
            raising :class:`SweepAborted` (or its subclass
            :class:`JobTimeoutError`), carrying every already-completed
            result, instead of degrading gracefully.
        on_result: Optional callback invoked in the parent, in
            completion order, for each successful :class:`JobResult`
            as it lands — e.g. to persist results incrementally so an
            interrupted sweep loses nothing.
        on_attempt: Optional telemetry hook ``(job, attempt,
            started_ts, duration, status, worker_pid)`` fired in the
            parent for *every* terminal attempt — including ones that
            will be retried — with ``status`` one of ``"ok"``,
            ``"exception"``, ``"timeout"``, ``"worker-death"``.
            ``started_ts`` is host wall-clock epoch seconds.  The hook
            is observation-only: exceptions it raises are swallowed
            and it must never affect results.
        on_trace_built: Optional accounting hook ``(trace_key,
            seconds)`` fired in the parent after each trace pair it
            builds for forked workers (see the module docstring), one
            discarded for outlasting ``timeout`` included.  Those
            seconds are in no job's ``wall_seconds``.  Observation-only,
            like ``on_attempt``.

    Returns:
        One entry per job, in submission order: :class:`JobResult` for
        successes, :class:`JobFailure` for quarantined jobs.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if retry_backoff < 0:
        raise ValueError("retry_backoff must be >= 0")
    method = _available_start_method()
    if workers <= 1 or len(jobs) == 1 or method is None:
        return _run_serial(jobs, timeout, retries, retry_backoff,
                           fail_fast, on_result, on_attempt)
    context = multiprocessing.get_context(method)
    return _run_parallel(jobs, min(workers, len(jobs)), timeout,
                         retries, retry_backoff, fail_fast, on_result,
                         context, on_attempt, on_trace_built)


def split_outcomes(
    outcomes: Sequence[Union[JobResult, JobFailure]],
) -> Tuple[List[JobResult], List[JobFailure]]:
    """Partition a :func:`run_jobs` outcome list into (results, failures)."""
    results = [o for o in outcomes if isinstance(o, JobResult)]
    failures = [o for o in outcomes if isinstance(o, JobFailure)]
    return results, failures


def total_wall_seconds(results: Sequence[JobResult]) -> float:
    """Summed per-job simulation time (CPU-side cost of a sweep)."""
    return sum(r.wall_seconds for r in results)
