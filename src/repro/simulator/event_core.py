"""The event-driven skip core: heap-organised strides, batched accounting.

:class:`EventCore` is the one skip executor of
:class:`~repro.simulator.engine.Simulator`.  The round loop keeps making every
*decision* -- full rounds run the identical eight steps, and the skip
*eligibility* logic in ``Simulator._fast_forward`` (witnesses, policy bounds,
admission quiescence) decides whether and how far to skip -- and once a skip
is sanctioned it is executed here, on one of three paths:

* :meth:`EventCore.chain` -- gang-steady drain chains, jumping completion to
  completion;
* :meth:`EventCore.steady` -- decision-stable strides ending one round short
  of the first completion;
* :meth:`EventCore.light` -- the rest: batched idle segments, or the
  per-round fallback (:meth:`EventCore.per_round`) whenever batching is not
  sound -- metric collectors or per-round iteration jitter, short
  gang-steady windows, and managers whose ``advance_time``,
  ``update_metrics`` or ``prune_completed_jobs`` have per-round effects
  (such as the deployment path's lease-releasing manager).

On the batched paths the clock jumps from event to event:

* upcoming **completions** are probed once per (job, allocation epoch) via the
  exact replay of :meth:`~repro.simulator.execution.ExecutionModel.steady_scan`
  and cached (resumably) in :class:`_CompletionProbe` entries, feeding
  ``KIND_COMPLETION`` events into the :class:`~repro.core.events.EventHeap`;
* **arrivals**, **cluster/timeline churn** (including federation routing
  bounds surfaced through ``ClusterManager.next_event_time``) and **policy
  events** become boundary events -- rounds at which the full loop must run
  again;
* the rounds *between* events carry no decisions by construction, so their
  observable product -- the round log, the accumulated clock, and each
  running job's progress accounting -- is materialised in batch:
  constant-field :class:`~repro.simulator.engine.RoundRecord` rows, an exact
  clock jump, and one
  :meth:`~repro.simulator.execution.ExecutionModel.advance` call per stride
  (``rounds=k``), batched over the running jobs.  With the round log disabled
  (``round_log_limit=0``) and no trace recorder attached, a whole segment is
  literally O(1).

Bit-identity with the stepping loop (``fast_forward=False``, the paper's
round loop) rests on three mirrored mechanisms, each of which the parity fuzz
harness exercises:

1. **round counting** -- every horizon->round conversion uses the per-round
   loop's accumulated-clock comparison
   (``while clock + rd < horizon: clock += rd``), with a closed form only
   where float accumulation is provably exact (integral clock and round
   duration below 2**53);
2. **progress accounting** -- a stride, a deferred flush and a stepped
   round all go through ``ExecutionModel.advance``, whose one per-round
   float fold the completion probe (``steady_scan``) replays too, so
   completion times agree to the last bit;
3. **tie-breaking** -- simultaneous events resolve by the heap's
   ``(time, kind, id)`` order, which encodes the round loop's implicit
   resolution: boundary kinds hand the round to the full loop (which then
   applies advance -> prune -> admit -> schedule in its canonical order),
   completions materialise in ascending job id.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.core.blox_manager import BloxManager
from repro.core.events import (
    KIND_ARRIVAL,
    KIND_CLUSTER,
    KIND_COMPLETION,
    EventHeap,
    SimEvent,
)
from repro.core.exceptions import SimulationError
from repro.core.job import Job, JobStatus
from repro.telemetry.events import EVENT_ROUND

#: Float integers stay exact under addition below this bound, which is what
#: licenses the O(1) clock jump and the closed-form round count.
_EXACT_FLOAT_INT = float(2**53)


class _CompletionProbe:
    """Cached, resumable completion probe for one job.

    The absolute round in which a running job completes is invariant while
    its (membership version, allocation version, rate, work target) stamp
    holds, because every execution path replays the same per-round fold from
    the same history.  So the probe is taken once per allocation epoch,
    scanning lazily only as far as the caller's current horizon needs, and
    resumed from its saved ``(work, pending)`` state when a later call needs
    to see further.
    """

    __slots__ = (
        "membership",
        "alloc",
        "rate",
        "target",
        "event_round",
        "scanned_through",
        "work",
        "pending",
    )

    def __init__(
        self,
        membership: int,
        alloc: int,
        rate: float,
        target: float,
        scanned_through: int,
        work: float,
        pending: float,
    ) -> None:
        self.membership = membership
        self.alloc = alloc
        self.rate = rate
        self.target = target
        #: Absolute completion round once found; ``None`` while unknown.
        self.event_round: Optional[int] = None
        self.scanned_through = scanned_through
        self.work = work
        self.pending = pending


class EventCore:
    """Event-heap skip executor bound to one :class:`Simulator` instance."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.heap = EventHeap()
        self._probes: Dict[int, _CompletionProbe] = {}
        # Batched idle segments also bypass the manager's per-round prune
        # no-ops, so a manager overriding prune keeps the per-round path
        # there (overridden advance_time/update_metrics already rule out
        # every batched path via Simulator._stride_accelerable).
        self._idle_batchable = (
            type(sim.manager).prune_completed_jobs
            is BloxManager.prune_completed_jobs
        )

    # ------------------------------------------------------------------
    # Exact round arithmetic
    # ------------------------------------------------------------------

    def _rounds_until(self, horizon: float, round_cap: int) -> int:
        """Rounds skippable before ``horizon``, capped -- exactly as stepping.

        The per-round loop counts with
        ``while clock + rd < horizon: clock += rd``; when clock and round
        duration are float integers the accumulated sums are exact, so the
        count has a closed form (guess-and-adjust against the same float
        comparison).  Otherwise the accumulation is mirrored literally.
        """
        if round_cap <= 0:
            return 0
        mgr = self.sim.manager
        rd = mgr.round_duration
        clock = mgr.current_time
        if horizon == math.inf:
            return round_cap
        if (
            rd > 0
            and clock.is_integer()
            and rd.is_integer()
            and abs(clock) + round_cap * rd < _EXACT_FLOAT_INT
        ):
            guess = int((horizon - clock) / rd)
            guess = min(max(guess, 0), round_cap)
            while guess > 0 and clock + guess * rd >= horizon:
                guess -= 1
            while guess < round_cap and clock + (guess + 1) * rd < horizon:
                guess += 1
            return guess
        count = 0
        while count < round_cap and clock + rd < horizon:
            clock += rd
            count += 1
        return count

    def _advance_clock(self, rounds: int) -> None:
        """Jump the manager clock ``rounds`` rounds, bit-equal to repeated adds."""
        mgr = self.sim.manager
        rd = mgr.round_duration
        clock = mgr.current_time
        if (
            clock.is_integer()
            and rd.is_integer()
            and abs(clock) + rounds * rd < _EXACT_FLOAT_INT
        ):
            mgr.current_time = clock + rounds * rd
        else:
            for _ in range(rounds):
                clock += rd
            mgr.current_time = clock
        mgr.round_number += rounds

    # ------------------------------------------------------------------
    # Batched round records
    # ------------------------------------------------------------------

    def _append_records(self, rounds: int) -> None:
        """Advance ``rounds`` skipped rounds: clock, log rows, trace events.

        Nothing observable changes between events, so every row shares one
        set of counts/utilisation values; only the round number and the
        accumulated clock vary.  With the log disabled and no recorder the
        whole segment collapses to the O(1) clock jump.
        """
        if rounds <= 0:
            return
        sim = self.sim
        mgr = sim.manager
        log = sim._round_log
        recorder = sim._recorder
        if recorder is None and getattr(log, "maxlen", None) == 0:
            self._advance_clock(rounds)
            return
        job_state = sim.job_state
        running = job_state.count_with_status(JobStatus.RUNNING)
        queued = job_state.count_active() - running
        utilization = sim.cluster_state.utilization()
        busy = sim.cluster_state.busy_capacity()
        healthy = sim.cluster_state.healthy_capacity()
        scheduler_name = (
            getattr(sim.scheduling_policy, "current_name", None)
            or sim.scheduling_policy.name
        )
        admission_name = (
            getattr(sim.admission_policy, "current_name", None)
            or sim.admission_policy.name
        )
        from repro.simulator.engine import RoundRecord

        rd = mgr.round_duration
        clock = mgr.current_time
        number = mgr.round_number
        append = log.append
        for _ in range(rounds):
            clock += rd
            number += 1
            # Positional in field order: keyword passing costs more than the
            # rest of this loop body on long segments.
            append(
                RoundRecord(
                    number,
                    clock,
                    running,
                    queued,
                    utilization,
                    scheduler_name,
                    admission_name,
                    busy,
                    healthy,
                )
            )
            if recorder is not None:
                recorder.emit(
                    EVENT_ROUND,
                    clock,
                    {
                        "round": number,
                        "running": running,
                        "queued": queued,
                        "utilization": utilization,
                        "busy_capacity": busy,
                        "healthy_capacity": healthy,
                    },
                )
        mgr.current_time = clock
        mgr.round_number = number

    # ------------------------------------------------------------------
    # Completion events
    # ------------------------------------------------------------------

    def _completion_event_round(
        self, job: Job, rate: float, cap_round: int
    ) -> Optional[int]:
        """Absolute round in which ``job`` completes, or None if past ``cap_round``.

        Cache-validated against the job's version stamps; scans resume from
        the cached state, so across a whole run each round of a job's life is
        probed at most once per allocation epoch.
        """
        if rate <= 0:
            return None
        sim = self.sim
        execution = sim.execution_model
        cluster = sim.cluster_state
        target = execution.termination.work_target(job)
        membership = cluster.membership_version
        alloc = cluster.alloc_version(job.job_id)
        probe = self._probes.get(job.job_id)
        if (
            probe is None
            or probe.membership != membership
            or probe.alloc != alloc
            or probe.rate != rate
            or probe.target != target
        ):
            probe = _CompletionProbe(
                membership,
                alloc,
                rate,
                target,
                scanned_through=sim.manager.round_number,
                work=job.work_done,
                pending=job.pending_overhead,
            )
            self._probes[job.job_id] = probe
        if probe.event_round is None and cap_round > probe.scanned_through:
            completing, work, pending = execution.steady_scan(
                target,
                rate,
                sim.manager.round_duration,
                probe.work,
                probe.pending,
                cap_round - probe.scanned_through,
            )
            if completing is not None:
                probe.event_round = probe.scanned_through + completing
            else:
                probe.scanned_through = cap_round
                probe.work = work
                probe.pending = pending
        if probe.event_round is not None and probe.event_round <= cap_round:
            return probe.event_round
        return None

    # ------------------------------------------------------------------
    # Skip executors (dispatch targets of Simulator._fast_forward)
    # ------------------------------------------------------------------

    def light(self, horizon: float, running: int, round_log: List) -> bool:
        """Idle segments: no running jobs, so only the log rows accumulate."""
        sim = self.sim
        if (
            not self._idle_batchable
            or not sim._stride_accelerable
            or sim.job_state.count_active()
        ):
            # Short gang-steady windows, collector-observed or jittered
            # strides, and per-round managers step round by round.
            return self.per_round(horizon, running, round_log)
        mgr = sim.manager
        rounds = self._rounds_until(horizon, sim.max_rounds - 1 - mgr.round_number)
        if rounds > 0:
            self._append_records(rounds)
            sim.job_state.current_time = mgr.current_time
        return False

    def per_round(self, horizon: float, running: int, round_log: List) -> bool:
        """Light rounds one at a time: advance + log, nothing else.

        The fallback for every skip the batched paths cannot claim.  Each
        round runs the stepping loop's own manager calls (clock, progress,
        prune, collectors, record) and skips only the guaranteed-no-op
        decision steps; breaks back to the full loop as soon as a completion
        changes the steady state.
        """
        sim = self.sim
        mgr = sim.manager
        job_state = sim.job_state
        cluster = sim.cluster_state
        while (
            mgr.round_number + 1 < sim.max_rounds
            and mgr.current_time + mgr.round_duration < horizon
        ):
            mgr.advance_time()
            mgr.update_metrics(cluster, job_state)
            released = mgr.prune_completed_jobs(cluster, job_state)
            if sim._tracked_all_finished():
                return True
            # Keep the sanctioned "now" side-channel fresh for collectors,
            # mirroring the refresh the full loop does before its policy calls.
            job_state.current_time = mgr.current_time
            for collector in sim.metric_collectors:
                collector.collect(job_state, cluster, mgr.current_time)
            round_log.append(sim._round_record())
            if released or job_state.count_with_status(JobStatus.RUNNING) != running:
                # A completion changed the steady state; let the full loop
                # take over again (its next rounds are no-ops for the policies
                # but cheap, and they re-establish the skip conditions).
                break
        return False

    def steady(self, horizon: float, round_log: List) -> bool:
        """Decision-stable strides: batched records + one batched advance."""
        sim = self.sim
        mgr = sim.manager
        job_state = sim.job_state
        execution = sim.execution_model
        rounds = self._rounds_until(horizon, sim.max_rounds - 1 - mgr.round_number)
        if rounds == 0:
            return False
        base = mgr.round_number
        advancing = [
            (job, execution.cached_rate(job, sim.cluster_state)[0])
            for job in job_state.running_jobs()
        ]
        for job, rate in advancing:
            completing = self._completion_event_round(job, rate, base + rounds)
            if completing is not None:
                # Stop one round short: the completing round must run as a
                # full round so the freed GPUs can go to a queued job.
                limit = completing - base - 1
                if limit < rounds:
                    rounds = limit
        if rounds <= 0:
            return False
        self._append_records(rounds - 1)
        mgr.advance_time()
        final_round_start = mgr.current_time - mgr.round_duration
        execution.advance(
            [job for job, _rate in advancing],
            sim.cluster_state,
            final_round_start,
            mgr.round_duration,
            rounds,
        )
        mgr.prune_completed_jobs(sim.cluster_state, job_state)
        if sim._tracked_all_finished():
            return True
        job_state.current_time = mgr.current_time
        round_log.append(sim._round_record())
        return False

    def chain(self, round_log: List) -> bool:
        """Gang-steady drain chain organised around the event heap.

        Under the gang witness a completion cannot change any decision, so
        the heap is seeded with every running job's completion event
        (cache-amortised probes) and the chain jumps completion to
        completion, handing back to the full loop at the first boundary
        event.  Only the completing jobs are materialised at a completion
        round; every other job's advancement is deferred and flushed once,
        replaying its per-round fold in order.  Ties at one round resolve by
        the heap's ``(time, kind, id)`` order -- boundary kinds first, which
        is exactly the stepping loop's behaviour of materialising a
        same-round completion inside the boundary's full round.
        """
        sim = self.sim
        mgr = sim.manager
        job_state = sim.job_state
        execution = sim.execution_model
        rd = mgr.round_duration
        entry_round = mgr.round_number

        probe_cap = sim.max_rounds - 1 - entry_round
        if probe_cap <= 0:
            return False
        next_event = mgr.cluster_manager.next_event_time(mgr.current_time)
        next_arrival = mgr.next_arrival_time()
        entry_bounds = [t for t in (next_event, next_arrival) if t is not None]
        if entry_bounds:
            to_horizon = int((min(entry_bounds) - mgr.current_time) / rd) + 2
            probe_cap = min(probe_cap, max(1, to_horizon))

        jobs = job_state.running_jobs()
        heap = self.heap
        heap.clear()
        advanced_through: Dict[int, int] = {}
        by_id: Dict[int, Job] = {}
        for job in jobs:
            rate = execution.cached_rate(job, sim.cluster_state)[0]
            advanced_through[job.job_id] = entry_round
            by_id[job.job_id] = job
            completing = self._completion_event_round(
                job, rate, entry_round + probe_cap
            )
            if completing is not None:
                heap.push(SimEvent(completing, KIND_COMPLETION, job.job_id))

        def flush(job: Job, upto_round: int, final_round_start: float) -> bool:
            owed = upto_round - advanced_through[job.job_id]
            advanced_through[job.job_id] = upto_round
            if owed <= 0:
                return False
            execution.advance([job], sim.cluster_state, final_round_start, rd, owed)
            return job.status == JobStatus.COMPLETED

        def flush_all() -> None:
            # Jobs flushed mid-chain are exactly the completed ones, so every
            # still-running job owes the same span -- one batched advance.
            flushing = [job for job in jobs if job.status == JobStatus.RUNNING]
            owed = mgr.round_number - entry_round
            if owed > 0 and flushing:
                execution.advance(
                    flushing, sim.cluster_state, mgr.current_time - rd, rd, owed
                )
                for job in flushing:
                    advanced_through[job.job_id] = mgr.round_number
            job_state.current_time = mgr.current_time

        while True:
            next_event = mgr.cluster_manager.next_event_time(mgr.current_time)
            next_arrival = mgr.next_arrival_time()
            bounds = []
            if next_event is not None:
                bounds.append((next_event, KIND_CLUSTER))
            if next_arrival is not None:
                bounds.append((next_arrival, KIND_ARRIVAL))
            horizon = min(bounds)[0] if bounds else math.inf
            segment_cap = self._rounds_until(
                horizon, sim.max_rounds - 1 - mgr.round_number
            )
            completion = heap.peek()
            if completion is None or completion.time > mgr.round_number + segment_cap:
                # The next event is a boundary (or the round budget): skip
                # straight to it and hand the loop back.  A completion tied
                # to the boundary round lands here too -- KIND_CLUSTER and
                # KIND_ARRIVAL order before KIND_COMPLETION -- and the full
                # boundary round materialises it.
                self._append_records(segment_cap)
                flush_all()
                return False
            boundary = completion.time
            self._append_records(boundary - 1 - mgr.round_number)
            mgr.advance_time()
            final_round_start = mgr.current_time - rd
            while True:
                completion = heap.peek()
                if completion is None or completion.time != boundary:
                    break
                heap.pop()
                job = by_id[completion.id]
                if not flush(job, boundary, final_round_start):
                    raise SimulationError(
                        f"job {completion.id} did not complete in its probed "
                        f"round {boundary}; event-core accounting diverged"
                    )
                self._probes.pop(completion.id, None)
            mgr.prune_completed_jobs(sim.cluster_state, job_state)
            if sim._tracked_all_finished():
                # The simulation ends at this round exactly as the full loop
                # would; materialise the remaining jobs' deferred rounds so
                # their work/service accounting matches a per-round run.
                flush_all()
                return True
            job_state.current_time = mgr.current_time
            round_log.append(sim._round_record())
            if not job_state.count_active():
                flush_all()
                return False
            # The gang witness is preserved by construction (the remaining
            # jobs keep running on their exact gangs), so chain directly into
            # the next segment.
