"""The stepping-loop oracle: one digest per (workload, seed, source tree).

The oracle runs a workload with ``fast_forward=False`` -- the paper's plain
round loop, executing every round -- and reduces the result to a digest:
per-job completion times, round count, end time, a hash of the round log and
any workload-specific extras (federation routing).  Every timed and traced
run is compared against it.  Stepping costs up to ~8x a fast-forwarded run
(46 s against 6 s on ``philly-year-lowload``), so the digest is computed once
and cached, keyed by workload, seed and a hash of ``src/`` and of the
benchmark's own files: a change to either recomputes it, a repeat run
reuses it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from array import array
from operator import attrgetter
from typing import Dict, List, Tuple

def source_fingerprint(*roots: str) -> str:
    """sha256 over every ``*.py`` file under ``roots`` (path + bytes).

    Covers the program and the benchmark's own workload definitions, so a
    change to either invalidates cached digests.
    """
    digest = hashlib.sha256()
    for root in roots:
        paths = []
        for parent, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__" and not d.startswith("."))
            paths.extend(os.path.join(parent, f) for f in files if f.endswith(".py"))
        for path in sorted(paths):
            digest.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()


def round_log_hash(segments) -> str:
    """sha256 of the round logs: every dataclass field of every record.

    ``segments`` holds one round log per scheduling loop (a federation has
    one per shard).  Each field is hashed as a column -- float64 or int64
    bytes for numbers, joined text for strings -- which is exact and several
    times faster than hashing per-record reprs.
    """
    digest = hashlib.sha256()
    for records in segments:
        digest.update(b"segment:%d\0" % len(records))
        if not records:
            continue
        for name in (f.name for f in dataclasses.fields(records[0])):
            column = list(map(attrgetter(name), records))
            kinds = set(map(type, column))
            digest.update(f"{name}:{sorted(k.__name__ for k in kinds)}\0".encode("utf-8"))
            if kinds == {float}:
                digest.update(array("d", column).tobytes())
            elif kinds == {int}:
                digest.update(array("q", column).tobytes())
            elif kinds == {str}:
                digest.update("\x1f".join(column).encode("utf-8"))
            else:
                digest.update("\x1f".join(map(repr, column)).encode("utf-8"))
    return digest.hexdigest()


def digest(outcome) -> Dict[str, object]:
    """Reduce an :class:`~workloads.Outcome` to JSON-safe check values."""
    return {
        # repr() of a float round-trips exactly through JSON in Python.
        "completions": {str(k): v for k, v in sorted(outcome.completions.items())},
        "rounds": outcome.rounds,
        "end_time": outcome.end_time,
        "round_log_len": sum(len(log) for log in outcome.round_log),
        "round_log_sha256": round_log_hash(outcome.round_log),
        "extra_sha256": hashlib.sha256(
            json.dumps(outcome.extra, sort_keys=True).encode("utf-8")
        ).hexdigest(),
    }


def compare(expected: Dict[str, object], actual: Dict[str, object]) -> Tuple[int, List[str]]:
    """Return (failed jobs, run-level failures) of ``actual`` against the oracle.

    A job fails when it did not finish or finished at another simulated time
    than in the oracle; a run-level failure (round count, end time, round
    log, extras) fails every job of the run, which the caller applies.
    """
    want = expected["completions"]
    got = actual["completions"]
    failed = sum(
        1 for job_id, t in want.items() if got.get(job_id) is None or got[job_id] != t
    )
    failed += sum(1 for job_id in got if job_id not in want)
    problems = [
        f"{key}: expected {expected[key]!r}, got {actual[key]!r}"
        for key in ("rounds", "end_time", "round_log_len", "round_log_sha256", "extra_sha256")
        if expected[key] != actual[key]
    ]
    return failed, problems


def cache_path(cache_dir: str, workload: str, seed: int, fingerprint: str) -> str:
    return os.path.join(cache_dir, f"{workload}-{seed}-{fingerprint[:16]}.json")


def load_or_compute(
    workload: str, seed: int, src_dir: str, cache_dir: str, runner: str
) -> Dict[str, object]:
    """Cached oracle digest; computes it in a child process on a miss.

    The child keeps the stepping run's memory out of the measuring process,
    whose peak RSS is a reported metric.  The parent waits for it.
    """
    fingerprint = source_fingerprint(src_dir, os.path.dirname(os.path.abspath(runner)))
    path = cache_path(cache_dir, workload, seed, fingerprint)
    if not os.path.exists(path):
        os.makedirs(cache_dir, exist_ok=True)
        subprocess.run(
            [sys.executable, runner, "--oracle-out", path, "--workload", workload,
             "--seed", str(seed)],
            check=True,
            timeout=170,
        )
    with open(path) as handle:
        return json.load(handle)


def write_oracle(instance_factory, path: str) -> None:
    """Run the stepping loop once and write its digest to ``path``."""
    instance = instance_factory()
    try:
        result = instance.target.run()
        value = digest(instance.outcome(result))
    finally:
        instance.close()
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(value, handle)
    os.replace(tmp, path)
