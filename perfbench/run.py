"""Repository benchmark: four scheduler workloads, checked against the
stepping loop, with per-layer spans recorded from outside the program.

Run from the repository root::

    python3 perfbench/run.py --workload philly-contended [--seed N]
        [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all        # every workload in turn
    python3 perfbench/run.py --self-test           # checks the checker

Each run is one trace simulated to completion, repeated until ``--seconds``
have passed; every repeat is checked against the cached stepping-loop digest
(``oracle.py``).  ``--trace 0`` reports the end-to-end metrics (medians over
repeats); ``--trace 1`` adds one traced run whose spans give the per-layer
metrics and are written to ``perfbench/.work/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` (jobs submitted over
all checked runs), ``failed`` (jobs that did not finish at the oracle's
time) and ``metrics``.  See ``DESIGN.md`` for why each workload and metric
exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

DEFAULT_SEED = 20240301
MIN_REPEATS = 3
MIN_SETUPS = 15

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")
CACHE_DIR = os.path.join(HERE, ".cache")

#: Public methods wrapped as the state and execution layers.  Properties
#: cannot be wrapped per instance and are left out; a name the program no
#: longer has is reported absent, never fatal.
JOB_STATE_METHODS = (
    "set_status", "add_new_jobs", "track", "prune_completed_jobs", "get",
    "all_jobs", "jobs_with_status", "count_with_status", "active_jobs",
    "count_active", "running_jobs", "runnable_jobs", "finished_jobs",
    "count_finished", "waiting_admission_jobs", "filter", "total_demand_gpus",
    "update_metric",
)
CLUSTER_STATE_METHODS = (
    "add_node", "remove_node", "mark_node_failed", "mark_node_recovered",
    "node", "active_nodes", "free_gpus", "num_free_gpus", "free_gpus_by_node",
    "gpus_on_node", "free_gpus_on_node", "gpus_for_job", "num_gpus_for_job",
    "nodes_for_job", "job_is_consolidated", "jobs_with_allocations",
    "alloc_version", "gpu", "assign", "reserve_aux", "release_job",
    "utilization", "healthy_capacity", "busy_capacity", "capacity_utilization",
)
EXECUTION_METHODS = (
    "placement_efficiency", "effective_rate", "cached_rate", "advance",
    "steady_completion_round", "steady_scan", "advance_steady",
    "advance_steady_bulk",
)

END_TO_END = (("jobs_per_s", "jobs/s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

#: Span name -> self-time metric.  Every span a traced run records maps to
#: exactly one of these, so the reported self times add up to the run.
SELF_TIME_METRICS = {
    "engine.run": "engine.self_s",
    "manager.update_cluster": "manager.update_cluster.self_s",
    "manager.update_metrics": "manager.update_metrics.self_s",
    "manager.exec_jobs": "manager.exec_jobs.self_s",
    "manager.prune": "manager.prune.self_s",
    "scheduling": "scheduling.self_s",
    "placement": "placement.self_s",
    "execution": "execution.self_s",
    "job_state": "job_state.self_s",
    "cluster_state": "cluster_state.self_s",
    "scenarios.update": "scenarios.update.self_s",
    "scenarios.next_event_time": "scenarios.next_event_time.self_s",
    "rpc": "rpc.self_s",
    "lease": "lease.self_s",
    "worker_metrics": "worker_metrics.self_s",
    "telemetry.emit": "telemetry.self_s",
    "federation.route": "federation.route.self_s",
    "federation.advance": "federation.advance.self_s",
    "federation.view": "federation.view.self_s",
    "trace.hooks": "trace.hooks.self_s",
}
CALL_METRICS = {
    "scheduling": "scheduling.calls",
    "placement": "placement.calls",
    "execution": "execution.calls",
    "job_state": "job_state.calls",
    "cluster_state": "cluster_state.calls",
    "scenarios.update": "scenarios.update.calls",
    "scenarios.next_event_time": "scenarios.next_event_time.calls",
    "rpc": "rpc.calls",
    "telemetry.emit": "telemetry.emit.calls",
    "federation.route": "federation.route.calls",
    "federation.advance": "federation.advance.calls",
}
SETUP_METRICS = {
    "setup.trace": "setup.trace_s",
    "setup.compile": "setup.compile_s",
    "setup.cluster": "setup.cluster_s",
    "setup.construct": "setup.construct_s",
}
OTHER_LAYER_METRICS = (
    ("engine.rounds", "count"),
    ("engine.full_rounds", "count"),
    ("engine.skip_frac", "ratio"),
    ("engine.round_records", "count"),
    ("engine.decision_p50_us", "us"),
    ("engine.decision_p99_us", "us"),
    ("placement.placed_frac", "ratio"),
    ("rpc.faults_injected", "count"),
    ("rpc.retries", "count"),
    ("rpc.dup_suppressed", "count"),
    ("rpc.first_try_frac", "ratio"),
    ("lease_p99_ms", "ms"),
    ("runtime.evictions", "count"),
    ("telemetry.bytes", "B"),
    ("federation.shard_rounds", "count"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {name: "s" for name in SELF_TIME_METRICS.values()}
    units.update({name: "count" for name in CALL_METRICS.values()})
    units.update({name: "s" for name in SETUP_METRICS.values()})
    units.update(dict(OTHER_LAYER_METRICS))
    return units


# ----------------------------------------------------------------------
# Process memory
# ----------------------------------------------------------------------


def reset_peak_rss() -> None:
    """Reset the kernel's resident-set high-water mark for this process, so
    each repeat reports its own peak.  Where the kernel refuses, the peak
    stays the process maximum (still one workload, never more)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mib() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Checking one run
# ----------------------------------------------------------------------


def judge(instance, result, outcome, expected) -> Tuple[int, List[str]]:
    """Failed jobs of one finished run, and why (run-level failures fail all)."""
    from oracle import compare, digest

    failed, problems = compare(expected, digest(outcome))
    problems = problems + instance.checks(result) + instance.guards(result)
    if problems:
        failed = instance.submitted
    return failed, problems


def run_checked(workload, seed, expected, tracer=None) -> Dict[str, object]:
    """Set up, run and check one repeat; returns its timings and verdict."""
    from repro.core.exceptions import BloxError

    gc.collect()
    reset_peak_rss()
    started = perf_counter()
    instance = workload.setup(seed, tracer=tracer, workdir=WORKDIR)
    setup_s = perf_counter() - started
    hooks = install_boundaries(tracer, instance) if tracer is not None else None
    try:
        started = perf_counter()
        try:
            result = instance.target.run()
        except BloxError as exc:
            run_s = perf_counter() - started
            return {"setup_s": setup_s, "run_s": run_s, "finished": 0,
                    "rss": peak_rss_mib(), "failed": instance.submitted,
                    "submitted": instance.submitted,
                    "problems": [f"run raised {type(exc).__name__}: {exc}"]}
        run_s = perf_counter() - started
        rss = peak_rss_mib()
        outcome = instance.outcome(result)
        failed, problems = judge(instance, result, outcome, expected)
        finished = sum(1 for t in outcome.completions.values() if t is not None)
        record = {"setup_s": setup_s, "run_s": run_s, "finished": finished, "rss": rss,
                  "failed": failed, "submitted": instance.submitted, "problems": problems}
        if tracer is not None:
            record["layers"] = layer_values(tracer, instance, result, outcome, hooks)
        return record
    finally:
        instance.close()


# ----------------------------------------------------------------------
# Tracing: boundaries wrapped on instances, from outside the program
# ----------------------------------------------------------------------


def install_boundaries(tracer, instance) -> Dict[str, object]:
    """Wrap every layer boundary of ``instance``; returns the hook counters."""
    hooks: Dict[str, object] = {
        "decisions": [], "asked": 0, "placed": 0, "rpc_calls": 0, "rpc_first": 0,
    }

    def placed(args, decision, begin) -> None:
        schedule = args[0] if args else ()
        if isinstance(schedule, (list, tuple)):
            hooks["asked"] += sum(1 for e in schedule if getattr(e, "gpu_demand", 1) > 0)
            hooks["placed"] += len(getattr(decision, "to_launch", ()))

    for loop in instance.loops:
        last_update = [None]

        def mark(args, result, begin, last_update=last_update) -> None:
            last_update[0] = begin

        def decided(args, result, begin, last_update=last_update) -> None:
            if last_update[0] is not None:
                hooks["decisions"].append(perf_counter() - last_update[0])
                last_update[0] = None

        mgr = loop.manager
        tracer.wrap_attrs("manager.update_cluster", mgr, ("update_cluster",),
                          {"update_cluster": mark})
        tracer.wrap_attrs("manager.update_metrics", mgr, ("update_metrics",))
        tracer.wrap_attrs("manager.prune", mgr, ("prune_completed_jobs",))
        tracer.wrap_attrs("manager.exec_jobs", mgr, ("exec_jobs",), {"exec_jobs": decided})
        tracer.wrap_attrs("scheduling", loop.scheduling, ("schedule",))
        tracer.wrap_attrs("placement", loop.placement, ("place",), {"place": placed})
        execution = getattr(mgr, "execution", None)
        if execution is None:
            tracer.absent.append("execution:manager.execution")
        else:
            tracer.wrap_attrs("execution", execution, EXECUTION_METHODS)
        if loop.job_state is None:
            tracer.absent.append("job_state:instance")
        else:
            tracer.wrap_attrs("job_state", loop.job_state, JOB_STATE_METHODS)
        tracer.wrap_attrs("cluster_state", loop.cluster_state, CLUSTER_STATE_METHODS)

    for layer, obj, attrs in instance.extra_boundaries:
        on_exit = None
        if layer == "rpc":
            seen = [getattr(obj, "retries", 0)]

            def rpc_done(args, result, begin, channel=obj, seen=seen) -> None:
                hooks["rpc_calls"] += 1
                retries = getattr(channel, "retries", 0)
                if retries == seen[0]:
                    hooks["rpc_first"] += 1
                seen[0] = retries

            on_exit = {"call": rpc_done}
        tracer.wrap_attrs(layer, obj, attrs, on_exit)
    target = instance.target
    target.run = tracer.wrap("engine.run", target.run)
    tracer.begin_run(1)
    return hooks


def layer_values(tracer, instance, result, outcome, hooks) -> Dict[str, float]:
    """Per-layer metrics of the traced run (run id 1) and its set-up (run id 0)."""
    from workloads import percentile

    self_times = tracer.self_times(run_id=1)
    calls = tracer.call_counts(run_id=1)
    setup_self = tracer.self_times(run_id=0)
    values: Dict[str, float] = {}
    for span, metric in SELF_TIME_METRICS.items():
        values[metric] = self_times.get(span, 0.0)
    for span, metric in CALL_METRICS.items():
        values[metric] = float(calls.get(span, 0))
    for span, metric in SETUP_METRICS.items():
        values[metric] = setup_self.get(span, 0.0)
    unknown = sorted(set(self_times) - set(SELF_TIME_METRICS))
    if unknown:
        raise RuntimeError(f"spans without a self-time metric: {unknown}")
    values["trace.self_sum_s"] = sum(self_times.values())
    rounds = outcome.rounds
    full = calls.get("scheduling", 0)
    values["engine.rounds"] = float(rounds)
    values["engine.full_rounds"] = float(full)
    values["engine.skip_frac"] = 1.0 - full / rounds if rounds else 0.0
    values["engine.round_records"] = float(sum(len(log) for log in outcome.round_log))
    decisions = hooks["decisions"]
    values["engine.decision_p50_us"] = percentile(decisions, 0.50) * 1e6 if decisions else 0.0
    values["engine.decision_p99_us"] = percentile(decisions, 0.99) * 1e6 if decisions else 0.0
    values["placement.placed_frac"] = hooks["placed"] / hooks["asked"] if hooks["asked"] else 0.0
    values["rpc.first_try_frac"] = (
        hooks["rpc_first"] / hooks["rpc_calls"] if hooks["rpc_calls"] else 0.0
    )
    for name in ("rpc.faults_injected", "rpc.retries", "rpc.dup_suppressed", "lease_p99_ms",
                 "runtime.evictions", "telemetry.bytes", "federation.shard_rounds"):
        values[name] = 0.0
    values.update({k: float(v) for k, v in instance.layer_counts(result).items()})
    return values


# ----------------------------------------------------------------------
# Measuring one workload
# ----------------------------------------------------------------------


def load_oracle(name: str, seed: int) -> Dict[str, object]:
    from oracle import load_or_compute

    return load_or_compute(name, seed, SRC, CACHE_DIR, os.path.abspath(__file__))


def measure(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    expected = load_oracle(name, seed)
    os.makedirs(WORKDIR, exist_ok=True)
    repeats: List[Dict[str, object]] = []
    spent = 0.0
    while len(repeats) < MIN_REPEATS or spent < seconds:
        repeats.append(run_checked(workload, seed, expected))
        spent += repeats[-1]["setup_s"] + repeats[-1]["run_s"]
    setups = [r["setup_s"] for r in repeats]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        begin = perf_counter()
        instance = workload.setup(seed, workdir=WORKDIR)
        setups.append(perf_counter() - begin)
        instance.close()
    traced = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        traced = run_checked(workload, seed, expected, tracer=tracer)
        repeats_for_checks = repeats + [traced]
        untraced = statistics.median(r["run_s"] for r in repeats)
        traced["layers"]["trace.overhead_frac"] = traced["run_s"] / untraced - 1.0
        tracer.write(
            os.path.join(WORKDIR, f"spans-{name}.bin"),
            {"workload": name, "seed": seed, "runs": {"0": "setup", "1": "run"}},
        )
        traced["absent"] = tracer.absent
    else:
        repeats_for_checks = repeats
    problems = [p for r in repeats_for_checks for p in r["problems"]]
    if traced is not None:
        layers = traced["layers"]
        # The root span opens and closes microseconds inside the timed call.
        gap = abs(layers["trace.self_sum_s"] - traced["run_s"])
        if gap > 1e-3 + 1e-4 * traced["run_s"]:
            problems.append(f"per-layer self times miss the traced run by {gap:.3g} s")
        skip_floor = getattr(workload, "min_skip_frac", None)
        if skip_floor is not None and layers["engine.skip_frac"] < skip_floor:
            problems.append(
                f"engine.skip_frac {layers['engine.skip_frac']:.4f} < {skip_floor}"
            )
            traced["failed"] = traced["submitted"]
    return {
        "workload": name,
        "seed": seed,
        "repeats": repeats,
        "setups": setups,
        "traced": traced,
        "attempted": sum(r["submitted"] for r in repeats_for_checks),
        "failed": sum(r["failed"] for r in repeats_for_checks),
        "problems": problems,
    }


def report(measured: Dict[str, object], trace: bool) -> Dict[str, object]:
    repeats = measured["repeats"]
    jobs_per_s = statistics.median(r["finished"] / r["run_s"] for r in repeats)
    setup_s = statistics.median(measured["setups"])
    rss = statistics.median(r["rss"] for r in repeats)
    attempted, failed = measured["attempted"], measured["failed"]
    run_q = statistics.quantiles([r["run_s"] for r in repeats], n=4)
    print(
        f"{measured['workload']} seed={measured['seed']}: "
        f"jobs_per_s={jobs_per_s:.2f} jobs/s (median of {len(repeats)}; run_s quartiles "
        f"{run_q[0]:.3f}/{run_q[1]:.3f}/{run_q[2]:.3f}) "
        f"setup_s={setup_s:.4f} s (median of {len(measured['setups'])}) "
        f"peak_rss_mib={rss:.1f} MiB (median of {len(repeats)}) "
        f"ops_failed_frac={failed / attempted:.6g} ratio ({failed}/{attempted} jobs)"
    )
    for problem in measured["problems"][:20]:
        print(f"  check failed: {problem}", file=sys.stderr)
    if trace:
        units = per_layer_units()
        layers = measured["traced"]["layers"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
        if measured["traced"]["absent"]:
            print(f"  absent boundaries: {measured['traced']['absent']}")
    else:
        values = {"jobs_per_s": jobs_per_s, "setup_s": setup_s, "peak_rss_mib": rss}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": failed == 0 and not measured["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Self-test: the checker catches what it must
# ----------------------------------------------------------------------


def self_test(name: str, seed: int) -> Dict[str, object]:
    """Run the real check path against a clean and two perturbed oracles."""
    from tracer import Tracer, load_spans
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    expected = load_oracle(name, seed)
    results = {}
    clean = run_checked(workload, seed, expected)
    results["clean run passes"] = clean["failed"] == 0 and not clean["problems"]
    completions = dict(expected["completions"])
    job_id = next(iter(completions))
    completions[job_id] += 1.0
    one_off = run_checked(workload, seed, dict(expected, completions=completions))
    results["one perturbed completion fails one job"] = (
        one_off["failed"] == 1 and not one_off["problems"]
    )
    results["ops_failed_frac rises above 0"] = one_off["failed"] / one_off["submitted"] > 0
    broken = run_checked(workload, seed, dict(expected, round_log_sha256="0" * 64))
    results["a changed round log fails every job"] = (
        bool(broken["problems"]) and broken["failed"] == broken["submitted"]
    )

    tracer = Tracer()
    tracer.begin_run(1)
    inner = tracer.wrap("execution", lambda: sum(range(1000)))
    outer = tracer.wrap("engine.run", lambda: [inner() for _ in range(50)])
    begin = perf_counter()
    outer()
    wall = perf_counter() - begin
    total = sum(tracer.self_times(1).values())
    results["self times add up to the run"] = 0 < wall - total < 1e-3
    os.makedirs(WORKDIR, exist_ok=True)
    path = os.path.join(WORKDIR, "spans-self-test.bin")
    tracer.write(path, {"self_test": True})
    spans = load_spans(path)
    os.remove(path)
    results["the span file reads back"] = (
        spans["spans"] == 51 and list(spans["columns"]["end"]) == list(tracer.end)
    )
    passed = all(results.values())
    for label, ok in results.items():
        print(f"  {'ok  ' if ok else 'FAIL'} {label}")
    return {"correct": passed, "attempted": len(results),
            "failed": sum(1 for ok in results.values() if not ok), "metrics": {}}


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="philly-contended",
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--oracle-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if not __debug__:
        print("perfbench: the invariant checks need assertions; do not run with -O",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    if args.oracle_out:
        from oracle import write_oracle

        workload = WORKLOADS[names[0]]
        os.makedirs(WORKDIR, exist_ok=True)
        write_oracle(
            lambda: workload.setup(args.seed, fast_forward=False, workdir=WORKDIR),
            args.oracle_out,
        )
        return 0

    if args.self_test:
        outcome = self_test(names[0], args.seed)
        print(json.dumps(outcome))
        return 0 if outcome["correct"] else 1

    for name in names:
        measured = measure(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(report(measured, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
