"""The four benchmark workloads, built through the package's public API.

Each workload turns a seed into a ready-to-run :class:`Instance` in four
set-up phases -- trace generation, scenario compile, cluster build and
constructor -- so set-up time can be reported whole and phase by phase.
The instance knows how to reduce its result to the values the oracle digest
covers, which run-level checks apply, which shape guards keep the workload
honest, and which instance attributes are its layer boundaries.

No workload passes ``engine=`` or imports ``repro.bench``: both are slated
for removal, and the benchmark must survive that unchanged.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro import Simulator, build_cluster
from repro.cluster.builder import ClusterSpec
from repro.federation import FederationEngine, QueueDelayRouter, ShardSimulator
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling.fifo import FifoScheduling
from repro.policies.scheduling.tiresias import TiresiasScheduling
from repro.runtime.central_scheduler import CentralScheduler
from repro.runtime.rpc import FaultPlan, FaultSpec, RetryPolicy
from repro.scenarios import BernoulliChurn, FailNodes, ScenarioSpec, SpotWave, WorkloadSpec
from repro.scenarios.spec import WORKLOAD_GENERATORS
from repro.simulator.overheads import OverheadModel
from repro.telemetry.recorder import TraceRecorder
from repro.telemetry.sinks import JsonlSink
from repro.workloads.philly import generate_philly_trace

HOUR = 3600.0
DAY = 24 * HOUR

#: Lease-protocol methods wrapped as the ``lease`` layer of ``deploy-churn``.
LEASE_METHODS = ("grant", "release", "complete", "renewal_round", "sync_membership")


@dataclass
class Outcome:
    """What one finished run is judged on (the oracle digest's inputs)."""

    completions: Dict[int, Optional[float]]
    rounds: int
    end_time: float
    #: Round logs, one per scheduling loop (a federation: one per shard).
    round_log: Sequence[Sequence[object]]
    #: Extra run-level values that must match the oracle exactly.
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class Loop:
    """One scheduling loop's layer boundaries (a federation has several)."""

    manager: object
    scheduling: object
    placement: object
    job_state: Optional[object]
    cluster_state: object


@dataclass
class Instance:
    """A constructed, not yet run, workload."""

    target: object  # exposes run()
    submitted: int
    outcome: Callable[[object], Outcome]
    #: Run-level correctness checks; each returns failure messages.
    checks: Callable[[object], List[str]]
    #: Shape guards: the workload still loads the layer it exists for.
    guards: Callable[[object], List[str]]
    loops: List[Loop]
    #: Per-layer values only this workload has (runtime, telemetry, ...).
    layer_counts: Callable[[object], Dict[str, float]] = lambda result: {}
    #: Extra objects to wrap: (layer name, instance, attrs).
    extra_boundaries: List[tuple] = field(default_factory=list)
    close: Callable[[], None] = lambda: None


def _phase(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


@contextmanager
def _traced_generator(tracer, generator: str):
    """Trace the scenario compiler's trace generator as ``setup.trace``.

    ``ScenarioSpec.compile`` builds the trace itself; wrapping its registry
    entry for the duration of the compile splits the two set-up phases.
    """
    if tracer is None or generator not in WORKLOAD_GENERATORS:
        if tracer is not None:
            tracer.absent.append(f"setup.trace:WORKLOAD_GENERATORS[{generator!r}]")
        yield
        return
    original = WORKLOAD_GENERATORS[generator]
    WORKLOAD_GENERATORS[generator] = tracer.wrap("setup.trace", original)
    try:
        yield
    finally:
        WORKLOAD_GENERATORS[generator] = original


def _sim_outcome(result) -> Outcome:
    return Outcome(
        completions={job.job_id: job.completion_time for job in result.jobs},
        rounds=result.rounds,
        end_time=result.end_time,
        round_log=[result.round_log],
    )


def _state_checks(cluster_state, job_state) -> List[str]:
    """Index invariants of both state layers (a state the program no longer
    exposes is skipped; the oracle digest still checks the schedule)."""
    failures = []
    for label, state in (("ClusterState", cluster_state), ("JobState", job_state)):
        if state is None:
            continue
        try:
            state.check_invariants()
        except AssertionError as exc:
            failures.append(f"{label}.check_invariants: {exc}")
    return failures


def _sim_job_state(target):
    """The JobState behind a Simulator or a CentralScheduler (None if hidden)."""
    sim = getattr(target, "_simulator", target)
    return getattr(sim, "job_state", None)


class Workload:
    """A named input: parameters plus how to build it from a seed."""

    name = ""
    #: Number of jobs every run submits.
    num_jobs = 0

    def setup(
        self, seed: int, fast_forward: bool = True, tracer=None, workdir: str = "."
    ) -> Instance:
        """Build a fresh instance from ``seed``; ``tracer`` records set-up spans."""
        raise NotImplementedError


class PhillyContended(Workload):
    name = "philly-contended"
    num_jobs = 2000
    nodes = 128
    jobs_per_hour = 16.0
    round_duration = 300.0

    def setup(self, seed, fast_forward=True, tracer=None, workdir="."):
        with _phase(tracer, "setup.trace"):
            trace = generate_philly_trace(
                num_jobs=self.num_jobs, jobs_per_hour=self.jobs_per_hour, seed=seed
            )
        with _phase(tracer, "setup.cluster"):
            cluster = build_cluster(self.nodes)
        with _phase(tracer, "setup.construct"):
            scheduling, placement = TiresiasScheduling(), ConsolidatedPlacement()
            sim = Simulator(
                cluster,
                trace.fresh_jobs(),
                scheduling,
                placement_policy=placement,
                round_duration=self.round_duration,
                fast_forward=fast_forward,
            )
        return _simulator_instance(self, sim, scheduling, placement)


class PhillyYearLowload(Workload):
    name = "philly-year-lowload"
    num_jobs = 1000
    nodes = 16
    jobs_per_hour = 0.25
    round_duration = 60.0
    max_rounds = 2_000_000
    min_skip_frac = 0.95

    def setup(self, seed, fast_forward=True, tracer=None, workdir="."):
        with _phase(tracer, "setup.trace"):
            trace = generate_philly_trace(
                num_jobs=self.num_jobs, jobs_per_hour=self.jobs_per_hour, seed=seed
            )
        with _phase(tracer, "setup.cluster"):
            cluster = build_cluster(self.nodes)
        with _phase(tracer, "setup.construct"):
            scheduling, placement = FifoScheduling(), ConsolidatedPlacement()
            sim = Simulator(
                cluster,
                trace.fresh_jobs(),
                scheduling,
                placement_policy=placement,
                round_duration=self.round_duration,
                fast_forward=fast_forward,
                max_rounds=self.max_rounds,
            )
        return _simulator_instance(self, sim, scheduling, placement)


def _simulator_instance(workload: Workload, sim, scheduling, placement) -> Instance:
    def checks(result) -> List[str]:
        return _state_checks(sim.cluster_state, sim.job_state)

    def guards(result) -> List[str]:
        finished = sum(1 for job in result.jobs if job.completion_time is not None)
        if finished != workload.num_jobs:
            return [f"finished {finished} of {workload.num_jobs} jobs"]
        return []

    return Instance(
        target=sim,
        submitted=len(sim.jobs),
        outcome=_sim_outcome,
        checks=checks,
        guards=guards,
        loops=[Loop(sim.manager, scheduling, placement, sim.job_state, sim.cluster_state)],
    )


class DeployChurn(Workload):
    name = "deploy-churn"
    num_jobs = 1200
    nodes = 64
    jobs_per_hour = 8.0
    round_duration = 300.0
    fault_rate = 0.01
    max_attempts = 8
    #: Cap on Philly job durations.  The generator's 200 h default lets one
    #: long job stretch the run's tail, where every round pays a worker-metric
    #: pull per node, by up to 2.5x from seed to seed; 24 h keeps run length
    #: (and so jobs_per_s) comparable across seeds.
    max_duration_hours = 24.0

    def spec(self) -> ScenarioSpec:
        horizon_rounds = int(self.num_jobs / self.jobs_per_hour * HOUR / self.round_duration)
        return ScenarioSpec(
            name=self.name,
            cluster=ClusterSpec(num_nodes=self.nodes),
            workload=WorkloadSpec(
                num_jobs=self.num_jobs,
                jobs_per_hour=self.jobs_per_hour,
                params=(("max_duration_hours", self.max_duration_hours),),
            ),
            timeline=(
                FailNodes(at=2 * DAY, fraction=0.25, recover_after=6 * HOUR),
                SpotWave(at=6 * HOUR, fraction=0.125, outage=2 * HOUR, period=18 * HOUR, repeat=8),
                BernoulliChurn(
                    failure_prob=0.001, recovery_prob=0.05, horizon_rounds=horizon_rounds
                ),
            ),
            round_duration=self.round_duration,
        )

    def setup(self, seed, fast_forward=True, tracer=None, workdir="."):
        spec = self.spec()
        with _phase(tracer, "setup.compile"), _traced_generator(tracer, "philly"):
            compiled = spec.compile(seed)
        with _phase(tracer, "setup.cluster"):
            cluster = compiled.build_cluster()
        with _phase(tracer, "setup.construct"):
            trace_path = os.path.join(workdir, f"{self.name}-{os.getpid()}.jsonl")
            sink = JsonlSink(trace_path)
            recorder = TraceRecorder(sink)
            if tracer is not None:
                recorder.emit = tracer.wrap("telemetry.emit", recorder.emit)
            timeline = compiled.make_cluster_manager()
            scheduling, placement = TiresiasScheduling(), ConsolidatedPlacement()
            rate = self.fault_rate
            sched = CentralScheduler(
                cluster_state=cluster,
                jobs=compiled.trace.fresh_jobs(),
                scheduling_policy=scheduling,
                placement_policy=placement,
                round_duration=self.round_duration,
                lease_protocol="optimistic",
                overhead_model=OverheadModel(),
                cluster_manager=timeline,
                tracked_job_ids=compiled.trace.tracked_ids(),
                fast_forward=fast_forward,
                fault_plan=FaultPlan(FaultSpec(rate, rate, rate, rate), seed=seed),
                retry_policy=RetryPolicy(max_attempts=self.max_attempts),
                recorder=recorder,
            )

        def close() -> None:
            sink.close()
            if os.path.exists(trace_path):
                os.remove(trace_path)

        def trace_bytes() -> int:
            sink.flush()
            return os.path.getsize(trace_path)

        def checks(result) -> List[str]:
            failures = _state_checks(cluster, _sim_job_state(sched))
            leaked = sched.leaked_leases()
            if leaked:
                failures.append(f"{leaked} leases leaked")
            return failures

        def guards(result) -> List[str]:
            stats = sched.fault_stats()
            shape = {
                "faults injected": stats.faults_injected,
                "retries": stats.retries,
                "evictions": result.eviction_count,
                "trace bytes": trace_bytes(),
            }
            return [f"deploy-churn saw no {what}" for what, n in shape.items() if n <= 0]

        def layer_counts(result) -> Dict[str, float]:
            stats = sched.fault_stats()
            lease = sched.lease_latencies_ms()
            return {
                "rpc.retries": stats.retries,
                "rpc.dup_suppressed": stats.duplicates_suppressed,
                "lease_p99_ms": percentile(lease, 0.99) if lease else 0.0,
                "telemetry.bytes": trace_bytes(),
                "rpc.faults_injected": stats.faults_injected,
                "runtime.evictions": result.eviction_count,
            }

        extra = [("scenarios.update", timeline, ("update",)),
                 ("scenarios.next_event_time", timeline, ("next_event_time",)),
                 ("rpc", sched.channel, ("call",)),
                 ("lease", sched.lease_manager, LEASE_METHODS)]
        if sched.worker_metrics is not None:
            extra.append(("worker_metrics", sched.worker_metrics, ("collect",)))
        return Instance(
            target=sched,
            submitted=len(compiled.trace),
            outcome=_sim_outcome,
            checks=checks,
            guards=guards,
            loops=[Loop(sched.manager, scheduling, placement, _sim_job_state(sched), cluster)],
            layer_counts=layer_counts,
            extra_boundaries=extra,
            close=close,
        )


class Federation4Shard(PhillyContended):
    name = "federation-4shard"
    shards = 4

    def setup(self, seed, fast_forward=True, tracer=None, workdir="."):
        with _phase(tracer, "setup.trace"):
            trace = generate_philly_trace(
                num_jobs=self.num_jobs, jobs_per_hour=self.jobs_per_hour, seed=seed
            )
        nodes_per_shard = self.nodes // self.shards
        with _phase(tracer, "setup.cluster"):
            clusters = [build_cluster(nodes_per_shard) for _ in range(self.shards)]
        with _phase(tracer, "setup.construct"):
            shards, loops = [], []
            for shard_id, cluster in enumerate(clusters):
                scheduling, placement = TiresiasScheduling(), ConsolidatedPlacement()
                shard = ShardSimulator(
                    shard_id=shard_id,
                    cluster_state=cluster,
                    scheduling_policy=scheduling,
                    placement_policy=placement,
                    round_duration=self.round_duration,
                    fast_forward=fast_forward,
                )
                shards.append(shard)
                loops.append(Loop(shard.manager, scheduling, placement, shard.job_state, cluster))
            router = QueueDelayRouter()
            engine = FederationEngine(
                shards, router, trace.fresh_jobs(), tracked_job_ids=trace.tracked_ids()
            )

        def outcome(result) -> Outcome:
            completions: Dict[int, Optional[float]] = {}
            for shard_result in result.shard_results:
                for job in shard_result.jobs:
                    completions[job.job_id] = job.completion_time
            return Outcome(
                completions=completions,
                rounds=result.total_rounds(),
                end_time=max(r.end_time for r in result.shard_results),
                round_log=[r.round_log for r in result.shard_results],
                extra={
                    "assignments": sorted(result.assignments.items()),
                    "shard_rounds": [r.rounds for r in result.shard_results],
                },
            )

        def checks(result) -> List[str]:
            failures = []
            for shard in shards:
                failures.extend(_state_checks(shard.cluster_state, shard.job_state))
            per_shard = [len(r.jobs) for r in result.shard_results]
            ids = [job.job_id for r in result.shard_results for job in r.jobs]
            if sum(per_shard) != len(trace) or len(set(ids)) != len(trace):
                failures.append(
                    f"job conservation: {len(trace)} submitted, {sum(per_shard)} "
                    f"held by shards, {len(set(ids))} distinct"
                )
            if result.jobs_per_shard() != per_shard:
                failures.append("router assignments disagree with shard contents")
            return failures

        def guards(result) -> List[str]:
            empty = [i for i, n in enumerate(result.jobs_per_shard()) if n == 0]
            return [f"shards {empty} received no jobs"] if empty else []

        def layer_counts(result) -> Dict[str, float]:
            return {"federation.shard_rounds": result.total_rounds()}

        extra = [("federation.route", router, ("route",))]
        for shard in shards:
            extra.append(("federation.advance", shard, ("run_until", "finish")))
            extra.append(("federation.view", shard, ("view_summary",)))
        return Instance(
            target=engine,
            submitted=len(trace),
            outcome=outcome,
            checks=checks,
            guards=guards,
            loops=loops,
            layer_counts=layer_counts,
            extra_boundaries=extra,
        )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (PhillyContended(), PhillyYearLowload(), DeployChurn(), Federation4Shard())
}

__all__ = ["WORKLOADS", "Workload", "Instance", "Outcome", "Loop", "percentile"]
