"""Automatic scheduler synthesizer (Blox §5.2).

Different scheduling/admission combinations win under different arrival
patterns, and no single static choice is best across a day of cluster
operation.  The synthesizer exploits Blox's modularity: every ``evaluate_every``
rounds it forks the live ``JobState``/``ClusterState`` into shadow simulations,
one per combination in its policy grid, runs each forward over a short horizon
with the jobs currently on the cluster, scores them with the operator's
objective, and switches the live scheduler to the winning combination.

The synthesizer itself implements the scheduling-policy and admission-policy
interfaces, so it drops into the ordinary scheduling loop unchanged -- the
composition trick the paper highlights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.abstractions import (
    AdmissionPolicy,
    PlacementPolicy,
    ScheduleEntry,
    SchedulingPolicy,
)
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.core.mechanisms import SimulatedLauncher, SimulatedPreemption
from repro.simulator.execution import ExecutionModel
from repro.simulator.overheads import OverheadModel
from repro.synthesizer.objectives import AverageJct, Objective


#: A factory returns a *fresh* policy instance; shadow simulations and the live
#: loop must never share mutable policy state.
PolicyFactory = Callable[[], SchedulingPolicy]
AdmissionFactory = Callable[[], AdmissionPolicy]


@dataclass(frozen=True)
class PolicyCombination:
    """One cell of the synthesizer's search grid."""

    scheduling_name: str
    admission_name: str
    scheduling_factory: PolicyFactory
    admission_factory: AdmissionFactory

    @property
    def label(self) -> str:
        return f"{self.scheduling_name}/{self.admission_name}"


class _ShadowSimulator:
    """Runs one policy combination forward from a snapshot of the live state."""

    def __init__(
        self,
        combination: PolicyCombination,
        placement_factory: Callable[[], PlacementPolicy],
        round_duration: float,
        horizon_rounds: int,
    ) -> None:
        self.combination = combination
        self.placement_factory = placement_factory
        self.round_duration = round_duration
        self.horizon_rounds = horizon_rounds

    def run(
        self,
        job_state: JobState,
        cluster_state: ClusterState,
        start_time: float,
    ) -> Tuple[List[Job], float]:
        """Simulate ``horizon_rounds`` rounds; returns (jobs, horizon_end_time)."""
        jobs = job_state.snapshot()
        cluster = cluster_state.snapshot()
        scheduling = self.combination.scheduling_factory()
        admission = self.combination.admission_factory()
        placement = self.placement_factory()
        overheads = OverheadModel()
        execution = ExecutionModel(overhead_model=overheads)
        launcher = SimulatedLauncher(overheads)
        preemptor = SimulatedPreemption(overheads)

        time = start_time
        for round_index in range(self.horizon_rounds):
            if round_index > 0:
                execution.advance(
                    jobs.running_jobs(), cluster, time - self.round_duration, self.round_duration
                )
            for job in jobs.finished_jobs():
                if cluster.gpus_for_job(job.job_id):
                    cluster.release_job(job.job_id)
                    job.allocated_gpus = []
            if not jobs.active_jobs() and not jobs.waiting_admission_jobs():
                break
            jobs.current_time = time
            # The shadow run only considers jobs already on the cluster (no new
            # arrivals), mirroring the paper's description of the synthesizer.
            accepted = admission.accept(jobs.waiting_admission_jobs(), cluster, jobs)
            jobs.add_new_jobs(accepted, time)
            schedule = scheduling.schedule(jobs, cluster)
            decision = placement.place(schedule, cluster, jobs)
            for job_id in decision.to_suspend:
                preemptor.preempt(jobs.get(job_id), cluster, time)
            for job_id, gpu_ids in sorted(decision.to_launch.items()):
                job = jobs.get(job_id)
                if job.is_finished:
                    continue
                if job.status == JobStatus.RUNNING and sorted(gpu_ids) == sorted(job.allocated_gpus):
                    continue
                if job.status == JobStatus.RUNNING:
                    preemptor.preempt(job, cluster, time)
                launcher.launch(job, gpu_ids, cluster, time)
            time += self.round_duration
        return jobs.all_jobs(), time


class AutoSchedulerSynthesizer(SchedulingPolicy, AdmissionPolicy):
    """Switches between policy combinations at runtime based on shadow simulations."""

    name = "auto-synthesizer"

    #: The evaluation counter advances once per ``schedule`` call, so skipping
    #: rounds would shift when policy switches happen; the simulator must run
    #: every round when the synthesizer is in the loop.
    supports_fast_forward = False
    steady_state_safe = False

    def __init__(
        self,
        combinations: Sequence[PolicyCombination],
        placement_factory: Callable[[], PlacementPolicy] = None,
        objective: Optional[Objective] = None,
        evaluate_every: int = 10,
        horizon_rounds: int = 48,
        round_duration: float = 300.0,
    ) -> None:
        from repro.policies.placement.consolidated import ConsolidatedPlacement

        if not combinations:
            raise ConfigurationError("the synthesizer needs at least one policy combination")
        if evaluate_every < 1 or horizon_rounds < 1:
            raise ConfigurationError("evaluate_every and horizon_rounds must be >= 1")
        self.combinations = list(combinations)
        self.placement_factory = placement_factory or ConsolidatedPlacement
        self.objective = objective or AverageJct()
        self.evaluate_every = evaluate_every
        self.horizon_rounds = horizon_rounds
        self.round_duration = round_duration

        self._round_counter = 0
        self._current = self.combinations[0]
        self._current_scheduling = self._current.scheduling_factory()
        self._current_admission = self._current.admission_factory()
        self._carryover: List[Job] = []
        #: (round_index, combination_label) history, used to reproduce Fig. 15/21.
        self.choice_log: List[Tuple[int, str]] = [(0, self._current.label)]

    # ------------------------------------------------------------------

    @classmethod
    def from_grid(
        cls,
        scheduling_factories: Sequence[Tuple[str, PolicyFactory]],
        admission_factories: Sequence[Tuple[str, AdmissionFactory]],
        **kwargs,
    ) -> "AutoSchedulerSynthesizer":
        """Build the full cross-product grid of scheduling x admission policies."""
        combinations = [
            PolicyCombination(
                scheduling_name=s_name,
                admission_name=a_name,
                scheduling_factory=s_factory,
                admission_factory=a_factory,
            )
            for (s_name, s_factory), (a_name, a_factory) in itertools.product(
                scheduling_factories, admission_factories
            )
        ]
        return cls(combinations, **kwargs)

    @property
    def current_name(self) -> str:
        """Label of the combination currently driving the live cluster."""
        return self._current.label

    @property
    def current_combination(self) -> PolicyCombination:
        return self._current

    # ------------------------------------------------------------------
    # Policy switching
    # ------------------------------------------------------------------

    def _evaluate_combinations(
        self, job_state: JobState, cluster_state: ClusterState
    ) -> PolicyCombination:
        start_time = getattr(job_state, "current_time", 0.0)
        best = self._current
        best_score = float("inf")
        for combination in self.combinations:
            shadow = _ShadowSimulator(
                combination,
                self.placement_factory,
                self.round_duration,
                self.horizon_rounds,
            )
            jobs, horizon_end = shadow.run(job_state, cluster_state, start_time)
            score = self.objective.score(jobs, horizon_end)
            if score < best_score - 1e-9:
                best_score = score
                best = combination
        return best

    def _maybe_switch(self, job_state: JobState, cluster_state: ClusterState) -> None:
        if self._round_counter % self.evaluate_every != 0:
            return
        if not job_state.active_jobs() and not job_state.waiting_admission_jobs():
            return
        best = self._evaluate_combinations(job_state, cluster_state)
        if best.label != self._current.label:
            # Jobs queued inside the outgoing admission policy must not be lost
            # on a switch; they are re-submitted to the incoming policy.
            self._carryover.extend(self._current_admission.pending_jobs())
            self._current = best
            self._current_scheduling = best.scheduling_factory()
            self._current_admission = best.admission_factory()
        self.choice_log.append((self._round_counter, self._current.label))

    # ------------------------------------------------------------------
    # AdmissionPolicy / SchedulingPolicy interfaces (delegation)
    # ------------------------------------------------------------------

    def accept(self, new_jobs, cluster_state, job_state):
        jobs = list(self._carryover) + list(new_jobs)
        self._carryover = []
        return self._current_admission.accept(jobs, cluster_state, job_state)

    def pending_jobs(self):
        return self._current_admission.pending_jobs()

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> List[ScheduleEntry]:
        self._maybe_switch(job_state, cluster_state)
        self._round_counter += 1
        return self._current_scheduling.schedule(job_state, cluster_state)
