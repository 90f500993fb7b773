"""The job execution model: how fast a job progresses given its allocation.

A job's rate of progress during a round depends on

* how many GPUs it was allocated relative to its request (scaling curve),
* the GPU generation it landed on (compute factor),
* whether its allocation is consolidated on one node or fragmented across the
  network (placement efficiency, a function of the model's communication
  intensity and the cross-node bandwidth),
* any CPU/memory throttling imposed by resource-sensitive placement (Synergy),
* pending launch/restore overheads charged by the overhead model.

All schedulers share this model, which is what makes comparisons across
policies "on a common footing" as the paper argues.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.core.abstractions import TerminationPolicy
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import SimulationError
from repro.core.job import Job, JobStatus
from repro.simulator.overheads import OverheadModel

#: Cross-node bandwidth (Gbps) at which a fragmented placement-sensitive job
#: pays its nominal communication penalty.  Faster networks shrink the penalty,
#: slower networks grow it -- this is what flips the Tiresias placement result
#: when moving from 100 Gbps P100 clusters to 10 Gbps V100 clusters (Fig. 10).
REFERENCE_NETWORK_BW_GBPS = 40.0


def _fold(
    target: float,
    rate: float,
    round_duration: float,
    work: float,
    pending: float,
    service: float,
    num_gpus: int,
    rounds: int,
    first_test: int,
) -> Tuple[Optional[int], float, float, float, float, float]:
    """The per-round progress fold shared by every advancement and probe.

    Replays up to ``rounds`` rounds from ``(work, pending, service)`` and
    returns ``(completing, work, pending, service, overhead_used,
    compute_seconds)``: ``completing`` is the 1-based round in which the job
    reaches ``target`` (the state is then taken at that round's end and the
    last two values are that round's overhead and compute seconds), or
    ``None`` with the state after all ``rounds``.

    Each round charges pending overhead first, then computes at ``rate`` on
    the rest of the round.  The general arm runs while overhead drains; once
    pending is exactly 0.0 every later round has ``overhead_used == 0.0`` and
    ``available == round_duration``, so the constant-operand arm folds with
    precomputed deltas and no min/max calls -- identical values, identical
    float-operation order.  With a non-positive rate the rounds after the
    drain add exactly 0.0 to work and service and can never complete, so
    the fold stops there.

    The completion test is skipped on constant-arm rounds before
    ``first_test``: it is monotone there (work only grows), so its failing
    at ``first_test`` proves it failed at every earlier round, and its
    passing reports a completion no later than ``first_test``.
    """
    i = 1
    while i <= rounds and pending != 0.0:
        overhead_used = min(pending, round_duration)
        pending -= overhead_used
        available = round_duration - overhead_used
        if rate <= 0:
            compute_seconds = 0.0
            work_delta = 0.0
        else:
            remaining = max(0.0, target - work)
            compute_seconds = remaining / rate
            if compute_seconds <= available:
                return (
                    i,
                    work + remaining,
                    pending,
                    service + num_gpus * (compute_seconds + overhead_used),
                    overhead_used,
                    compute_seconds,
                )
            compute_seconds = available
            work_delta = available * rate
        work += work_delta
        service += num_gpus * (compute_seconds + overhead_used)
        i += 1
    if rate <= 0 or i > rounds:
        return None, work, pending, service, 0.0, 0.0
    work_delta = round_duration * rate
    service_delta = num_gpus * (round_duration + 0.0)
    for _ in range(first_test - i):
        work += work_delta
        service += service_delta
    if first_test > i:
        i = first_test
    while i <= rounds:
        remaining = target - work
        if remaining < 0.0:
            remaining = 0.0
        compute_seconds = remaining / rate
        if compute_seconds <= round_duration:
            return (
                i,
                work + remaining,
                pending,
                service + num_gpus * (compute_seconds + 0.0),
                0.0,
                compute_seconds,
            )
        work += work_delta
        service += service_delta
        i += 1
    return None, work, pending, service, 0.0, 0.0


class ExecutionModel:
    """Advances running jobs through simulated time, one round at a time."""

    def __init__(
        self,
        overhead_model: Optional[OverheadModel] = None,
        termination_policy: Optional[TerminationPolicy] = None,
    ) -> None:
        from repro.policies.termination.epoch import EpochBasedTermination

        self.overheads = overhead_model if overhead_model is not None else OverheadModel()
        self.termination = (
            termination_policy if termination_policy is not None else EpochBasedTermination()
        )
        # A running job's effective rate is a pure function of its allocation
        # and the cluster's membership, both covered by the cluster's version
        # stamps -- unless the overhead model injects per-round jitter, whose
        # RNG must be consumed exactly once per round.  The cache keys on the
        # cluster object identity plus both stamps.
        self._rates_cacheable = (
            type(self.overheads).iteration_jitter is OverheadModel.iteration_jitter
        )
        #: job id -> (cluster, membership_version, alloc_version, rate,
        #: fragmented, num_gpus)
        self._rate_cache: Dict[int, Tuple[object, int, int, float, bool, int]] = {}

    # ------------------------------------------------------------------
    # Rate model
    # ------------------------------------------------------------------

    def placement_efficiency(self, job: Job, cluster_state: ClusterState) -> float:
        """Throughput multiplier for the job's current placement (1.0 = ideal).

        Consolidated jobs (all GPUs on one node) and single-GPU jobs run at
        full speed.  Fragmented multi-GPU jobs pay a penalty proportional to
        the model's communication intensity and inversely proportional to the
        cross-node bandwidth of the nodes they span.
        """
        nodes = cluster_state.nodes_for_job(job.job_id)
        if len(nodes) <= 1:
            return 1.0
        bandwidths = [cluster_state.node(n).network_bw_gbps for n in nodes]
        bottleneck_bw = min(bandwidths)
        if bottleneck_bw <= 0:
            raise SimulationError(f"node with non-positive network bandwidth hosting job {job.job_id}")
        penalty = job.comm_intensity * (REFERENCE_NETWORK_BW_GBPS / bottleneck_bw)
        return 1.0 / (1.0 + penalty)

    def effective_rate(self, job: Job, cluster_state: ClusterState) -> float:
        """Progress in requested-allocation seconds per wall-clock second."""
        gpus = cluster_state.gpus_for_job(job.job_id)
        if not gpus:
            return 0.0
        scaling = job.throughput_factor(len(gpus))
        compute_factor = min(g.gpu_type.compute_factor for g in gpus)
        placement = self.placement_efficiency(job, cluster_state)
        cpu_factor = float(job.metrics.get("cpu_throughput_factor", 1.0))
        jitter = self.overheads.iteration_jitter(job)
        return scaling * compute_factor * placement * cpu_factor * jitter

    def cached_rate(self, job: Job, cluster_state: ClusterState) -> Tuple[float, bool, int]:
        """``(effective_rate, is_fragmented, num_gpus)`` with memoization.

        The three values are pure functions of state covered by the cluster's
        version stamps, so one entry serves every round until the job's
        allocation or the cluster membership changes.  Falls back to a fresh
        computation per call when the overhead model has per-round jitter
        (the RNG draw must happen exactly once per round).
        """
        if not self._rates_cacheable:
            return (
                self.effective_rate(job, cluster_state),
                len(cluster_state.nodes_for_job(job.job_id)) > 1,
                cluster_state.num_gpus_for_job(job.job_id),
            )
        membership = cluster_state.membership_version
        alloc = cluster_state.alloc_version(job.job_id)
        entry = self._rate_cache.get(job.job_id)
        if (
            entry is not None
            and entry[0] is cluster_state
            and entry[1] == membership
            and entry[2] == alloc
        ):
            return entry[3], entry[4], entry[5]
        rate = self.effective_rate(job, cluster_state)
        fragmented = len(cluster_state.nodes_for_job(job.job_id)) > 1
        num_gpus = cluster_state.num_gpus_for_job(job.job_id)
        self._rate_cache[job.job_id] = (
            cluster_state, membership, alloc, rate, fragmented, num_gpus
        )
        return rate, fragmented, num_gpus

    # ------------------------------------------------------------------
    # Round advancement
    # ------------------------------------------------------------------

    def advance(
        self,
        jobs: Iterable[Job],
        cluster_state: ClusterState,
        final_round_start: float,
        round_duration: float,
        rounds: int = 1,
    ) -> None:
        """Advance running jobs across ``rounds`` rounds of wall-clock time.

        The one method that changes job progress: the stepping loop calls it
        once per round with every running job, the skip executor with whole
        strides.  Each job's ``work_done``, ``attained_service`` and
        ``pending_overhead`` end exactly where ``rounds`` one-round calls
        would leave them (the same per-round float fold, see :func:`_fold`);
        the application metrics are pure functions of that final state and
        the constant rate, so they are pushed once.  A job reaching its
        termination target is marked completed with a sub-round-accurate
        completion time; strides are sized (via :meth:`steady_scan`) so a
        completion can only fall in their last round, which starts at
        ``final_round_start``.
        """
        work_target = self.termination.work_target
        for job in jobs:
            if job.status != JobStatus.RUNNING:
                raise SimulationError(f"cannot advance job {job.job_id} in status {job.status}")
            rate, fragmented, num_gpus = self.cached_rate(job, cluster_state)
            if not num_gpus:
                raise SimulationError(f"running job {job.job_id} holds no GPUs")
            completing, work, pending, service, overhead_used, compute_seconds = _fold(
                work_target(job),
                rate,
                round_duration,
                job.work_done,
                job.pending_overhead,
                job.attained_service,
                num_gpus,
                rounds,
                rounds - 1,
            )
            if completing is not None and completing != rounds:
                raise SimulationError(
                    f"job {job.job_id} completes before the last of its {rounds} "
                    "stride rounds; the stride was sized past its completion"
                )
            if fragmented:
                job.metrics["was_fragmented"] = True
            job.work_done = work
            job.attained_service = service
            job.pending_overhead = pending
            self._update_app_metrics(job, rate)
            if completing is not None:
                # completion_time first: the status setter notifies JobState
                # observers, which read the JCT off the job.
                job.completion_time = final_round_start + overhead_used + compute_seconds
                job.status = JobStatus.COMPLETED

    @staticmethod
    def steady_scan(
        target: float,
        rate: float,
        round_duration: float,
        work: float,
        pending: float,
        max_rounds: int,
    ) -> Tuple[Optional[int], float, float]:
        """Pure, resumable probe of the round in which a job would complete.

        Replays up to ``max_rounds`` rounds of :meth:`advance`'s fold under a
        constant ``rate`` -- without mutating any job, so the skip executor
        can size strides exactly -- from the explicit ``(work, pending)``
        state and returns ``(completing_round, work, pending)`` where
        ``completing_round`` is 1-based within *this* scan or ``None``.  When
        no completion is found the returned state is exactly the state after
        ``max_rounds`` rounds, so a caller can resume the scan later from
        where it stopped -- the event core's completion-probe cache uses this
        to amortise probing across fast-forward entries (each round of a
        job's life is scanned at most once per allocation epoch).  On a
        completion the returned state is that of the completing round and
        must not be resumed from.

        Because the probe and every execution path run the same fold, a
        probe taken rounds ago still names the exact absolute completion
        round.
        """
        completing, work, pending, _service, _overhead, _compute = _fold(
            target, rate, round_duration, work, pending, 0.0, 0, max_rounds, 0
        )
        return completing, work, pending

    def _update_app_metrics(self, job: Job, rate: float) -> None:
        """Push the application-level metrics the paper's schedulers consume."""
        duration = job.duration
        progress = 1.0 if duration <= 0 else min(1.0, job.work_done / duration)
        # A simple exponentially decaying loss curve: reaches ~1% of its initial
        # value at the job's convergence point and stays flat afterwards.
        convergence_progress = min(1.0, progress / job.convergence_fraction)
        loss = 10.0 * (0.01 ** convergence_progress)
        metrics = job.metrics
        metrics["loss"] = loss
        metrics["progress"] = progress
        if rate > 0:
            iteration_time = job.iteration_time
            metrics["iteration_time"] = iteration_time / rate
            metrics["throughput"] = rate / iteration_time
        metrics["attained_service"] = job.attained_service
