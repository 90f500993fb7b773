"""Unit and regression tests for the event-heap simulator core.

Covers the event primitives (:class:`~repro.core.events.SimEvent` ordering,
:class:`~repro.core.events.EventHeap` behaviour), the deterministic
``(time, kind, id)`` tie-break contract, the exact clock arithmetic the event
core uses for O(1) jumps, and the simultaneous-event regression: an arrival,
a completion and a cluster-churn firing all landing on the *same* round
boundary must replay the stepping loop (``fast_forward=False``)
bit-identically.
"""

import pytest

from repro.cluster.builder import build_cluster
from repro.core.events import (
    KIND_ARRIVAL,
    KIND_CLUSTER,
    KIND_COMPLETION,
    KIND_POLICY,
    EventHeap,
    SimEvent,
)
from repro.core.blox_manager import BloxManager
from repro.core.job import Job, JobStatus
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling.fifo import FifoScheduling
from repro.simulator.engine import Simulator
from repro.workloads.philly import generate_philly_trace

ROUND = 300.0


def make_sim(jobs, fast_forward=True, cluster_manager=None, **kwargs):
    return Simulator(
        cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
        jobs=jobs,
        scheduling_policy=FifoScheduling(),
        placement_policy=ConsolidatedPlacement(),
        round_duration=ROUND,
        cluster_manager=cluster_manager,
        fast_forward=fast_forward,
        **kwargs,
    )


def assert_identical(first, second):
    assert {j.job_id: j.completion_time for j in first.jobs} == {
        j.job_id: j.completion_time for j in second.jobs
    }
    assert first.round_log == second.round_log
    assert first.rounds == second.rounds
    assert first.end_time == second.end_time


# ----------------------------------------------------------------------
# Event primitives
# ----------------------------------------------------------------------


def test_sim_event_kind_tie_break_order():
    """At one boundary round: cluster churn < arrival < policy < completion.

    Boundary kinds must sort ahead of completions so a tied boundary forces
    the full round that materialises the completion, never the reverse.
    """
    assert KIND_CLUSTER < KIND_ARRIVAL < KIND_POLICY < KIND_COMPLETION
    tied = [
        SimEvent(10, KIND_COMPLETION, 3),
        SimEvent(10, KIND_ARRIVAL, 7),
        SimEvent(10, KIND_POLICY, 1),
        SimEvent(10, KIND_CLUSTER, 5),
    ]
    assert [e.kind for e in sorted(tied)] == [
        KIND_CLUSTER,
        KIND_ARRIVAL,
        KIND_POLICY,
        KIND_COMPLETION,
    ]
    # Same time and kind: the id is the last tie-breaker, so ordering is
    # total and never falls through to object identity.
    same_kind = [SimEvent(10, KIND_COMPLETION, 9), SimEvent(10, KIND_COMPLETION, 2)]
    assert [e.id for e in sorted(same_kind)] == [2, 9]
    # Time dominates everything.
    assert SimEvent(9, KIND_COMPLETION, 99) < SimEvent(10, KIND_CLUSTER, 0)


def test_sim_event_kind_names():
    assert SimEvent(0, KIND_ARRIVAL, 1).kind_name == "arrival"
    assert SimEvent(0, KIND_COMPLETION, 1).kind_name == "completion"
    assert SimEvent(0, KIND_CLUSTER, 1).kind_name == "cluster"
    assert SimEvent(0, KIND_POLICY, 1).kind_name == "policy"


def test_event_heap_orders_pushes():
    heap = EventHeap()
    events = [
        SimEvent(30, KIND_COMPLETION, 1),
        SimEvent(10, KIND_COMPLETION, 4),
        SimEvent(10, KIND_CLUSTER, 2),
        SimEvent(20, KIND_ARRIVAL, 3),
        SimEvent(10, KIND_COMPLETION, 2),
    ]
    for event in events:
        heap.push(event)
    assert len(heap) == 5
    assert bool(heap)
    assert heap.peek() == SimEvent(10, KIND_CLUSTER, 2)
    assert [heap.pop() for _ in range(len(heap))] == sorted(events)
    assert not heap
    heap.push(SimEvent(1, KIND_ARRIVAL, 1))
    heap.clear()
    assert len(heap) == 0


# ----------------------------------------------------------------------
# Exact clock arithmetic (the O(1)-jump licence)
# ----------------------------------------------------------------------


def _oracle_rounds_until(clock, rd, horizon, cap):
    count = 0
    while count < cap and clock + rd < horizon:
        clock += rd
        count += 1
    return count


@pytest.mark.parametrize("rd", [300.0, 60.0, 287.5, 299.25])
def test_rounds_until_matches_oracle_accumulation(rd):
    """Closed-form and mirrored paths both equal the oracle's float loop."""
    trace = generate_philly_trace(num_jobs=4, jobs_per_hour=4.0, seed=1)
    sim = make_sim(trace.fresh_jobs())
    core = sim._event_core
    sim.manager.round_duration = rd
    for start_rounds in (0, 1, 7, 1001):
        clock = 0.0
        for _ in range(start_rounds):
            clock += rd
        sim.manager.current_time = clock
        for horizon in (
            clock,
            clock + 0.5 * rd,
            clock + rd,
            clock + 3.0 * rd,
            clock + 3.5 * rd,
            clock + 1000 * rd,
            float("inf"),
        ):
            for cap in (0, 1, 5, 2000):
                assert core._rounds_until(horizon, cap) == _oracle_rounds_until(
                    clock, rd, horizon, cap
                ), (rd, clock, horizon, cap)


@pytest.mark.parametrize("rd", [300.0, 287.5])
def test_advance_clock_bit_equal_to_repeated_adds(rd):
    trace = generate_philly_trace(num_jobs=4, jobs_per_hour=4.0, seed=1)
    sim = make_sim(trace.fresh_jobs())
    core = sim._event_core
    sim.manager.round_duration = rd
    sim.manager.current_time = 0.0
    sim.manager.round_number = 0
    core._advance_clock(1234)
    expected = 0.0
    for _ in range(1234):
        expected += rd
    assert sim.manager.current_time == expected
    assert sim.manager.round_number == 1234


# ----------------------------------------------------------------------
# Simultaneous-event regression
# ----------------------------------------------------------------------


class BoundaryChurn:
    """Fails one node at an exact round boundary, recovers it later."""

    name = "boundary-churn"

    def __init__(self, fail_at, recover_at, node_id=3):
        self.fail_at = fail_at
        self.recover_at = recover_at
        self.node_id = node_id
        self.failed = False
        self.recovered = False

    def update(self, cluster_state, current_time):
        if not self.failed and current_time >= self.fail_at:
            self.failed = True
            return cluster_state.mark_node_failed(self.node_id)
        if not self.recovered and current_time >= self.recover_at:
            self.recovered = True
            cluster_state.mark_node_recovered(self.node_id)
        return []

    def next_event_time(self, current_time):
        if not self.failed:
            return self.fail_at
        if not self.recovered:
            return self.recover_at
        return None

    def drain_applied(self):
        return []


def _collision_jobs():
    # Job 1's completion lands exactly on t=1500 (a round boundary): its
    # generic-model launch overhead eats 20 s of round 0, so a duration of
    # 5 * ROUND - 20 finishes precisely at the end of round 4.  Job 2
    # *arrives* at t=1500, and BoundaryChurn fails a node at t=1500 -- a
    # three-way simultaneous event at one boundary.
    return [
        Job(arrival_time=0.0, num_gpus=4, duration=5 * ROUND - 20.0, job_id=1),
        Job(arrival_time=1500.0, num_gpus=4, duration=2 * ROUND, job_id=2),
        Job(arrival_time=1500.0, num_gpus=2, duration=3 * ROUND, job_id=3),
    ]


def test_simultaneous_arrival_completion_and_churn_parity():
    results = {}
    for fast_forward in (False, True):
        sim = make_sim(
            _collision_jobs(),
            fast_forward=fast_forward,
            cluster_manager=BoundaryChurn(fail_at=1500.0, recover_at=2400.0),
        )
        results[fast_forward] = sim.run()
    assert_identical(results[False], results[True])
    completions = {j.job_id: j.completion_time for j in results[True].jobs}
    # The collision actually happened: job 1 completed at the same boundary
    # where jobs 2/3 arrived and the churn fired.
    assert completions[1] == 1500.0
    assert all(t is not None for t in completions.values())


def test_simultaneous_events_parity_without_churn():
    """Arrival + completion tied at one boundary, static membership."""
    results = {}
    for fast_forward in (False, True):
        results[fast_forward] = make_sim(_collision_jobs(), fast_forward=fast_forward).run()
    assert_identical(results[False], results[True])
    completions = {j.job_id: j.completion_time for j in results[True].jobs}
    assert completions[1] == 1500.0


# ----------------------------------------------------------------------
# Per-round manager hooks
# ----------------------------------------------------------------------


class ProgressHookManager(BloxManager):
    """Observes every progress step through an ``update_metrics`` override."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def update_metrics(self, cluster_state, job_state):
        super().update_metrics(cluster_state, job_state)
        self.seen.append(
            (self.round_number, job_state.count_with_status(JobStatus.RUNNING))
        )


def test_update_metrics_override_sees_every_round():
    """Batched strides bypass ``update_metrics``, so such managers step per round.

    The fuzz corpus draws this manager only alongside a collector, which
    forces the per-round path on its own; this run has nothing else that
    would.
    """
    trace = generate_philly_trace(num_jobs=20, jobs_per_hour=2.0, seed=3)
    sims = {
        fast_forward: make_sim(
            trace.fresh_jobs(),
            fast_forward=fast_forward,
            manager_factory=ProgressHookManager,
        )
        for fast_forward in (False, True)
    }
    results = {fast_forward: sim.run() for fast_forward, sim in sims.items()}
    assert_identical(results[False], results[True])
    assert sims[True].manager.seen == sims[False].manager.seen
    assert sims[True].manager.seen


# ----------------------------------------------------------------------
# Streaming configuration
# ----------------------------------------------------------------------


def test_round_log_disabled_parity():
    """round_log_limit=0 (the streaming configuration) keeps stepping parity."""
    trace = generate_philly_trace(num_jobs=30, jobs_per_hour=5.0, seed=17)
    stepping = make_sim(trace.fresh_jobs(), fast_forward=False, round_log_limit=0).run()
    skipping = make_sim(trace.fresh_jobs(), round_log_limit=0).run()
    assert {j.job_id: j.completion_time for j in stepping.jobs} == {
        j.job_id: j.completion_time for j in skipping.jobs
    }
    assert stepping.rounds == skipping.rounds
    assert stepping.end_time == skipping.end_time
    assert list(stepping.round_log) == list(skipping.round_log) == []


def test_event_engine_is_deterministic():
    trace = generate_philly_trace(num_jobs=25, jobs_per_hour=6.0, seed=5)
    first = make_sim(trace.fresh_jobs()).run()
    second = make_sim(trace.fresh_jobs()).run()
    assert_identical(first, second)
