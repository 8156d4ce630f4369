"""Repository benchmark: time the three user-facing workloads end to end.

    python3 perfbench/run.py                      # every workload
    python3 perfbench/run.py --workload sweep-cold --seed 3 \\
        --seconds 15 --trace 0

Run from the root of a checkout.  Each workload is repeated, one fresh
interpreter per repetition (``rep.py``), until ``--seconds`` have passed
and at least a minimum number of repetitions ran; every metric is the
median over repetitions.  With ``--trace 1`` the run instead makes one
untraced and one traced repetition and reports the per-layer metrics
(``layers.py``) plus the tracing overhead.

Prints the host fingerprint, one line per metric with its unit, and as
the last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Exits 1 when an output check fails, 2 when the program
under test is missing, else 0.  See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
# Leave the checkout's sources untouched, and make every repetition pay
# the same import cost whether or not an earlier run left bytecode.
sys.dont_write_bytecode = True

from layers import LAYER_UNITS  # noqa: E402

WORKLOAD_NAMES = ("sweep-cold", "dse-halving", "serve-warm")
#: End-to-end metrics, reported for every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "jobs/s",
    "sim_insts_per_s": "insts/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics of a ``--trace 1`` run.
PER_LAYER = {**LAYER_UNITS, "host.probe_s": "s",
             "trace.overhead_frac": "ratio"}
#: Fewest repetitions a run makes, whatever ``--seconds`` says.
MIN_REPS = {"sweep-cold": 3, "dse-halving": 3, "serve-warm": 2}
#: Extra set-up-only repetitions, so ``setup_s`` is a median of more
#: samples where set-up is cheap (serve-warm's includes the prewarm).
SETUP_REPS = {"sweep-cold": 4, "dse-halving": 4, "serve-warm": 0}
#: No repetition starts unless it should end by then; a run must exit
#: within 180 s.
RUN_LIMIT_S = 150.0
#: Iterations of the host probe loop (about 0.1 s of pure Python).
PROBE_ITERATIONS = 1_000_000


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes: shows a slow host phase."""
    began = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - began


def host_fingerprint(probe_s: float) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # git would search parent directories
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "git_commit": commit,
        "source_digest": digest.hexdigest()[:16],
        "host.probe_s": probe_s,
    }


def run_rep(workload: str, seed: int, index: int, traced: bool, size: str,
            work: Path, timeout: float, setup_only: bool = False):
    """Run one repetition in a fresh interpreter; returns its record
    dict, or None (with the reason on stderr) if it did not finish."""
    rep_dir = work / f"rep{index}"
    for sub in ("xdg", "tmp"):
        (rep_dir / sub).mkdir(parents=True)
    out = rep_dir / "record.json"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])),
               XDG_CACHE_HOME=str(rep_dir / "xdg"),
               TMPDIR=str(rep_dir / "tmp"),
               PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, str(HERE / "rep.py"),
               "--workload", workload, "--seed", str(seed),
               "--index", str(index), "--trace", str(int(traced)),
               "--size", size, "--work", str(rep_dir), "--out", str(out),
               *(["--setup-only"] if setup_only else []),
               "--launched", repr(time.monotonic())]
    # A session of its own, so a timeout also stops its pool workers.
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"[{workload} rep {index}: killed after {timeout:.0f}s]",
              file=sys.stderr)
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # any stray worker
        except OSError:
            pass
    if proc.returncode != 0 or not out.is_file():
        print(f"[{workload} rep {index}: exited {proc.returncode}]\n"
              f"{stderr[-2000:]}", file=sys.stderr)
        return None
    with open(out) as stream:
        return json.load(stream)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    """Repeat one workload and summarise it; never raises for a failed
    repetition (it is counted in ``failed``)."""
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    started = time.monotonic()
    records, lost, longest = [], 0, 0.0
    try:
        index = 0
        while True:
            elapsed = time.monotonic() - started
            wanted = 2 if trace else MIN_REPS[workload]
            if index >= wanted and (trace or elapsed >= seconds):
                break
            if index and elapsed + 1.3 * longest > RUN_LIMIT_S:
                break
            began = time.monotonic()
            record = run_rep(workload, seed, index,
                             traced=trace and index == 1, size=size,
                             work=work,
                             timeout=max(30.0, RUN_LIMIT_S + 20 - elapsed))
            longest = max(longest, time.monotonic() - began)
            index += 1
            if record is None:
                lost += 1
            else:
                records.append(record)
        for extra in range(0 if trace else SETUP_REPS[workload]):
            record = run_rep(workload, seed, index + extra, traced=False,
                             size=size, work=work, timeout=30.0,
                             setup_only=True)
            if record is not None:
                records.append(record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return summarize(workload, records, lost, trace)


def summarize(workload: str, records, lost: int, trace: bool) -> dict:
    errors = [error for record in records for error in record["errors"]]
    digests = {record["digest"] for record in records
               if record["digest"] is not None}
    if len(digests) > 1:
        errors.append(f"frontier digest differs across repetitions of the "
                      f"same seed: {sorted(digests)}")
    timed = [record for record in records if record["wall_s"] > 0]
    result = {
        "correct": bool(timed) and not errors,
        "attempted": sum(r["attempted"] for r in timed) + lost,
        "failed": sum(r["failed"] for r in timed) + lost,
        "metrics": {},
        "errors": errors,
        "repetitions": len(timed),
        "extra": {},
    }
    result["attempted"] = max(1, result["attempted"])
    if not timed:
        return result

    def median(key):
        return statistics.median(key(r) for r in timed)

    if trace:
        traced = [r for r in timed if r["layers"]]
        untraced = [r for r in timed if not r["layers"]]
        if not traced or not untraced:
            result["correct"] = False
            result["errors"].append("the traced or the untraced "
                                    "repetition did not finish")
            return result
        values = dict(traced[0]["layers"])
        values["trace.overhead_frac"] = (traced[0]["wall_s"]
                                         / untraced[0]["wall_s"] - 1)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in records),
            "wall_s": median(lambda r: r["wall_s"]),
            "jobs_per_s": median(lambda r: r["jobs"] / r["wall_s"]),
            "sim_insts_per_s": median(lambda r: r["insts"] / r["wall_s"]),
            "cpu_s": median(lambda r: r["cpu_s"]),
            "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        }
        units = END_TO_END
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()
                         if name in values}
    round_trips = [batch["round_trip_s"] for r in timed
                   for batch in r["batches"]]
    if round_trips:
        p95 = percentile(round_trips, 0.95)
        result["extra"] = {
            "batch_p50_s": statistics.median(round_trips),
            "batch_p95_s": p95,
            "batch_samples": len(round_trips),
            "batch_beyond_p95": sum(1 for t in round_trips if t > p95),
        }
    result["extra"]["failed_frac"] = result["failed"] / result["attempted"]
    return result


def report(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:12s} {name:34s} {metric['value']:14.6g} "
              f"{metric['unit']}")
    extra = result["extra"]
    if "batch_p95_s" in extra:
        print(f"{workload:12s} {'batch_p50_s':34s} "
              f"{extra['batch_p50_s']:14.6g} s")
        print(f"{workload:12s} {'batch_p95_s':34s} "
              f"{extra['batch_p95_s']:14.6g} s  ({extra['batch_samples']}"
              f" batches, {extra['batch_beyond_p95']} beyond p95)")
    if "failed_frac" in extra:
        print(f"{workload:12s} {'failed_frac':34s} "
              f"{extra['failed_frac']:14.6g} ratio  ({result['failed']} of "
              f"{result['attempted']}; {result['repetitions']} timed "
              f"repetition(s))")
    for error in result["errors"]:
        print(f"{workload:12s} CHECK FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the repository's workloads end to end.")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="repeat each workload until this much time "
                             "has passed (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few-second version (tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    fingerprint = host_fingerprint(host_probe())
    print("host " + json.dumps(fingerprint, sort_keys=True))
    names = (WORKLOAD_NAMES if args.workload == "all"
             else (args.workload,))
    results = {}
    for workload in names:
        try:
            result = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace), args.size)
        except Exception as error:  # noqa: BLE001 — keep the others going
            result = summarize(workload, [], 1, bool(args.trace))
            result["errors"].append(f"{type(error).__name__}: {error}")
        if args.trace and result["metrics"]:
            result["metrics"]["host.probe_s"] = {
                "value": fingerprint["host.probe_s"], "unit": "s"}
        report(workload, result)
        results[workload] = result

    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{workload}.{name}": metric
                   for workload, result in results.items()
                   for name, metric in result["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
