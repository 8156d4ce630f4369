"""Persistent, content-addressed on-disk cache for simulation results.

The in-process memo cache in :mod:`repro.experiments.runner` dies with
the process, so every CLI invocation, pytest session and example script
re-pays the full simulation cost.  This cache persists finished
:class:`~repro.experiments.runner.BenchmarkRun` records as JSON files
under ``~/.cache/fxa-repro/`` (or any ``--cache-dir``), keyed by a
SHA-256 fingerprint of

* the **complete** :class:`~repro.core.CoreConfig` (every field,
  including the nested IXU / cluster / cache-hierarchy configs),
* the benchmark name, measured/warm-up interval lengths and seed, and
* a **code-version stamp** hashing every ``repro`` source file, so any
  change to the simulator or workload generator invalidates old entries
  automatically.

Serialising a config is most of a fingerprint's cost, so each process
memoizes the canonical JSON of the configs it has fingerprinted (a
value-keyed LRU of :data:`CONFIG_MEMO_SIZE` entries; configs are frozen
dataclasses).  The memo only skips work: the hashed text, and so every
digest, is byte-for-byte what the unmemoized formula produces.

Entries are written atomically (temp file + ``os.replace``) so parallel
workers and concurrent CLI invocations never observe torn files; a
corrupt or unreadable entry is treated as a miss and deleted.

Besides finished runs the cache also persists **failure records**
(``<digest>.fail.json``): when a sweep quarantines a job (crash, hang,
worker death) the structured failure is stored under the same content
address, so later invocations report the same gap without re-paying the
crash — until ``--resume`` clears the record and retries the job, the
code version changes (new fingerprint), or a successful run replaces
it.  These are the resume keys of the fault-tolerant runner.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from repro.atomicio import replace_json

#: Bump to invalidate every existing cache entry on a format change.
CACHE_FORMAT = 1

#: Distinct configs whose canonical JSON :func:`fingerprint` keeps per
#: process.  Covers every preset plus a few DSE rungs of overridden
#: configs; at ~1 kB of text each the memo stays around a megabyte.
CONFIG_MEMO_SIZE = 1024

_code_version_cache: Optional[str] = None


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/fxa-repro`` or ``~/.cache/fxa-repro``."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "fxa-repro"


def code_version() -> str:
    """Hash of every ``repro`` source file (cached per process).

    Any edit to the simulator, energy model or workload generator
    changes this stamp and therefore every cache key.
    """
    global _code_version_cache
    if _code_version_cache is None:
        import repro

        digest = hashlib.sha256()
        package_root = Path(repro.__file__).resolve().parent
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


#: ``_canonical(value) == json.dumps(value, sort_keys=True,
#: default=str)``, without building an encoder per call.
_canonical = json.JSONEncoder(sort_keys=True, default=str).encode


def _config_text(config) -> str:
    """``_canonical(dataclasses.asdict(config))``, memoized."""
    try:
        memo_config, text = _memoized_config_text(config)
    except TypeError:  # an unhashable field value, e.g. a JSON list
        return _canonical(dataclasses.asdict(config))
    # Equal configs can still serialise differently (16 vs 16.0, 1 vs
    # True); their reprs differ exactly when their JSON does.
    if memo_config is not config and repr(memo_config) != repr(config):
        return _canonical(dataclasses.asdict(config))
    return text


@functools.lru_cache(maxsize=CONFIG_MEMO_SIZE)
def _memoized_config_text(config):
    return config, _canonical(dataclasses.asdict(config))


def fingerprint(config, benchmark: str, measure: int, warmup: int,
                seed: int) -> str:
    """Content address of one simulation: full config + run parameters.

    The SHA-256 of ``json.dumps(payload, sort_keys=True, default=str)``
    where ``payload`` holds the cache format, :func:`code_version`,
    ``dataclasses.asdict(config)`` and the run parameters.  Deriving
    the key from ``asdict`` means *every* config field — LSQ and PRF
    capacities, predictor geometry, the cache hierarchy, ... —
    participates, so two configs differing in any field never alias.

    The config's JSON comes from a per-process memo bounded at
    :data:`CONFIG_MEMO_SIZE` configs: a repeated config costs a hash
    lookup instead of a deep ``asdict`` copy.  The payload is assembled
    in sorted-key order around the memoized text, so the hashed bytes
    equal the unmemoized ``json.dumps`` exactly.
    """
    fields = {
        "benchmark": _canonical(benchmark),
        "code": _canonical(code_version()),
        "config": _config_text(config),
        "format": _canonical(CACHE_FORMAT),
        "measure": _canonical(measure),
        "seed": _canonical(seed),
        "warmup": _canonical(warmup),
    }
    canonical = "{%s}" % ", ".join(
        f"{_canonical(key)}: {text}" for key, text in sorted(fields.items()))
    return hashlib.sha256(canonical.encode()).hexdigest()


class DiskCache:
    """Content-addressed store of finished benchmark runs.

    Args:
        root: Cache directory (created on demand); defaults to
            :func:`default_cache_dir`.
    """

    def __init__(self, root=None):
        self.root = Path(root) if root else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.failures_seen = 0
        self.failures_stored = 0

    def _path(self, digest: str) -> Path:
        # Two-level fan-out keeps directory listings small.
        return self.root / digest[:2] / f"{digest}.json"

    def _failure_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.fail.json"

    def load(self, config, benchmark: str, measure: int, warmup: int,
             seed: int):
        """Return the cached :class:`BenchmarkRun` or None on a miss."""
        from repro.experiments.runner import BenchmarkRun

        path = self._path(
            fingerprint(config, benchmark, measure, warmup, seed)
        )
        try:
            with open(path) as stream:
                payload = json.load(stream)
            run = BenchmarkRun.from_dict(payload["run"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Torn/corrupt entry: drop it and re-simulate.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return run

    def store(self, config, benchmark: str, measure: int, warmup: int,
              seed: int, run) -> None:
        """Persist one finished run (atomic write; failures are soft)."""
        digest = fingerprint(config, benchmark, measure, warmup, seed)
        path = self._path(digest)
        payload = {
            "fingerprint": digest,
            "model": run.model,
            "benchmark": benchmark,
            "run": run.to_dict(),
        }
        if not self._write_json(path, payload):
            return  # a read-only cache dir must not break simulation
        self.stores += 1
        # A fresh success supersedes any stale quarantine record.
        try:
            self._failure_path(digest).unlink()
        except OSError:
            pass

    def _write_json(self, path: Path, payload: dict) -> bool:
        """Atomic JSON write; False (never an exception) on failure.

        The temp name comes from :func:`repro.atomicio.tmp_path_for`
        (hostname + pid + monotonic counter): on a cache directory
        shared between hosts, a pid-only suffix lets two workers
        publishing the same digest clobber each other's temp file
        mid-write and publish a torn entry.
        """
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            replace_json(path, payload)
        except OSError:
            return False
        return True

    def store_failure(self, config, benchmark: str, measure: int,
                      warmup: int, seed: int, record: dict) -> None:
        """Persist one quarantined job's failure record (resume key).

        ``record`` is the plain-dict form of a
        :class:`~repro.experiments.pool.JobFailure`; later invocations
        treat the job as failed without re-running it until the record
        is cleared (``--resume``) or a successful run replaces it.
        """
        digest = fingerprint(config, benchmark, measure, warmup, seed)
        if self._write_json(self._failure_path(digest),
                            {"fingerprint": digest, "failure": record}):
            self.failures_stored += 1

    def load_failure(self, config, benchmark: str, measure: int,
                     warmup: int, seed: int):
        """Return the persisted failure record dict, or None."""
        digest = fingerprint(config, benchmark, measure, warmup, seed)
        path = self._failure_path(digest)
        try:
            with open(path) as stream:
                record = json.load(stream)["failure"]
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.failures_seen += 1
        return record

    def clear_failure(self, config, benchmark: str, measure: int,
                      warmup: int, seed: int) -> bool:
        """Drop one failure record (``--resume`` retries the job)."""
        digest = fingerprint(config, benchmark, measure, warmup, seed)
        try:
            self._failure_path(digest).unlink()
        except OSError:
            return False
        return True

    def counters(self) -> dict:
        """This invocation's accounting as a plain dict.

        Returned (not just printed) so callers — the CLI's cache
        summary, run manifests, ``--json`` consumers — can record the
        hit/miss/store counts programmatically.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "failures_seen": self.failures_seen,
            "failures_stored": self.failures_stored,
            "root": str(self.root),
        }

    def reset_counters(self) -> None:
        """Zero the per-invocation counters (the entries stay)."""
        self.hits = self.misses = self.stores = 0
        self.failures_seen = self.failures_stored = 0

    def clear(self) -> int:
        """Delete every entry (results and failure records alike);
        returns the number of *result* entries removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
            except OSError:
                continue
            if not path.name.endswith(".fail.json"):
                removed += 1
        return removed

    def __len__(self) -> int:
        """Number of cached *result* entries (failure records excluded)."""
        if not self.root.exists():
            return 0
        return sum(1 for path in self.root.glob("*/*.json")
                   if not path.name.endswith(".fail.json"))
