"""Property-based differential fuzzing: the skip executor vs the stepping loop.

Each drawn spec is a random point in (workload x cluster shape x round
duration x policy x placement x churn x observers) space; the property is
always the same: the default run (fast-forward on, so every sanctioned skip
goes through the event core) must replay the stepping loop
(``fast_forward=False``, the paper's round loop) bit-identically -- per-job
completion times, the full round log, round count and end time -- and both
runs must leave the shared state in the same condition as judged by
``check_invariants()``.  The stepping loop shares no skip logic with the
event core, so the property also checks skip *eligibility*, not just skip
execution.

Three drawn dimensions force the event core onto its per-round fallback:
an attached :class:`MetricCollector`, an :class:`OverheadModel` with
per-round iteration jitter, and a :class:`BloxManager` overriding
``advance_time``, ``update_metrics`` or both.  Each records what it observed every
round, and those observations must match the stepping loop's too.

Two tiers:

* the **fixed corpus** (always on) replays a handful of frozen seeds chosen
  to cover every drawn dimension at least once -- non-integral round
  durations, every policy and placement, churn, delayed starts, collectors,
  jitter and per-round managers on and off -- and to reach every
  event-core path;
* the **wide sweep** (``pytest --fuzz``) draws a few dozen fresh specs; it
  is marked ``fuzz`` and skipped by default so tier-1 wall time stays flat.
"""

import functools
import random

import pytest

from repro.cluster.builder import build_cluster
from repro.core.abstractions import ClusterManager, MetricCollector
from repro.core.blox_manager import BloxManager
from repro.core.job import JobStatus
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.placement.first_free import FirstFreePlacement
from repro.policies.scheduling import (
    FifoScheduling,
    LasScheduling,
    SrtfScheduling,
    TiresiasScheduling,
)
from repro.simulator.engine import Simulator
from repro.simulator.overheads import OverheadModel
from repro.workloads.philly import generate_philly_trace

POLICIES = {
    "fifo": FifoScheduling,
    "srtf": SrtfScheduling,
    "las": LasScheduling,
    "tiresias": TiresiasScheduling,
}
PLACEMENTS = {
    "consolidated": ConsolidatedPlacement,
    "first-free": FirstFreePlacement,
}
#: Round durations the generator draws from; the non-integral entries force
#: the event core off its closed-form clock arithmetic and onto the mirrored
#: float-accumulation path, which is where rounding divergence would hide.
ROUND_DURATIONS = (60.0, 150.0, 300.0, 287.5, 299.25)

#: Frozen corpus seeds (always run).  Together the specs they draw cover all
#: four policies, both placements, integral and non-integral round durations,
#: and churn, delayed starts, collectors, jitter and per-round managers both
#: on and off, and they reach every event-core path -- re-derive with
#: ``_draw_spec`` if the generator changes.
FIXED_CORPUS_SEEDS = (11, 67, 99, 104, 108, 125, 131, 195)

#: Wide-sweep seeds (``--fuzz`` only).
FUZZ_SWEEP_SEEDS = tuple(range(1000, 1040))

#: The event core's skip paths; ``light`` counts only batched idle segments
#: (its per-round fallback is counted as ``per_round``).
EVENT_CORE_PATHS = ("chain", "steady", "light", "per_round")


class ScriptedChurn(ClusterManager):
    """Deterministic fail/recover script with a predictable event horizon."""

    name = "scripted-churn"

    def __init__(self, script):
        #: ``script`` is a list of ``(time, action, node_id)`` tuples with
        #: action in {"fail", "recover"}; sorted so ``next_event_time`` can
        #: report the earliest unapplied entry.
        self.script = sorted(script)
        self.index = 0

    def update(self, cluster_state, current_time):
        affected = []
        while self.index < len(self.script) and self.script[self.index][0] <= current_time:
            _, action, node_id = self.script[self.index]
            self.index += 1
            if action == "fail":
                affected.extend(cluster_state.mark_node_failed(node_id))
            else:
                cluster_state.mark_node_recovered(node_id)
        return affected

    def next_event_time(self, current_time):
        if self.index >= len(self.script):
            return None
        return self.script[self.index][0]


class SamplingCollector(MetricCollector):
    """Samples the running set and its progress every round it is called."""

    name = "sampling-collector"

    def __init__(self):
        self.samples = []

    def collect(self, job_state, cluster_state, current_time):
        running = job_state.running_jobs()
        self.samples.append(
            (current_time, [(job.job_id, job.work_done) for job in running])
        )


class JitteredOverheads(OverheadModel):
    """Seeded per-round rate jitter: a skip that drew out of order diverges."""

    def __init__(self, amplitude, seed):
        super().__init__()
        self.amplitude = amplitude
        self._rng = random.Random(seed)

    def iteration_jitter(self, job):
        return 1.0 + self._rng.uniform(-self.amplitude, self.amplitude)


class TickingManager(BloxManager):
    """A manager that logs what its per-round hook overrides observe."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ticks = []


class ClockTickingManager(TickingManager):
    def advance_time(self):
        super().advance_time()
        self.ticks.append(("tick", self.round_number, self.current_time))


class ProgressTickingManager(TickingManager):
    def update_metrics(self, cluster_state, job_state):
        super().update_metrics(cluster_state, job_state)
        self.ticks.append(
            ("advance", self.round_number, job_state.count_with_status(JobStatus.RUNNING))
        )


class FullTickingManager(ClockTickingManager, ProgressTickingManager):
    pass


#: Which per-round hooks the drawn manager overrides.
TICKING_MANAGERS = {
    "advance_time": ClockTickingManager,
    "update_metrics": ProgressTickingManager,
    "both": FullTickingManager,
}


def _draw_spec(seed):
    rng = random.Random(seed)
    # Cluster shapes stay comfortably above the largest Philly gang (8 GPUs):
    # an infeasible draw would starve under FIFO on *both* engines, which
    # times out the run instead of testing parity.
    nodes = rng.randint(4, 8)
    round_duration = rng.choice(ROUND_DURATIONS)
    spec = {
        "seed": seed,
        "nodes": nodes,
        "gpus_per_node": rng.choice((4, 8)),
        "jobs": rng.randint(8, 32),
        "jobs_per_hour": rng.choice((1.0, 3.0, 6.0, 10.0)),
        "round_duration": round_duration,
        "policy": rng.choice(sorted(POLICIES)),
        "placement": rng.choice(sorted(PLACEMENTS)),
        "churn": None,
    }
    if rng.random() < 0.5:
        # One fail/recover pair per churn run, landing on round boundaries
        # a few dozen rounds in, so failures hit live allocations.
        node_id = rng.randrange(nodes)
        fail_round = rng.randint(5, 40)
        recover_round = fail_round + rng.randint(3, 30)
        spec["churn"] = (
            (fail_round * round_duration, "fail", node_id),
            (recover_round * round_duration, "recover", node_id),
        )
    # Dimensions added later are drawn last, so a seed's earlier fields never
    # change when the generator grows.  A delayed start holds every arrival
    # back by a few rounds, which the event core skips as an idle segment.
    spec["idle_start"] = (
        rng.randint(2, 40) * round_duration + rng.choice((0.0, 0.5 * round_duration))
        if rng.random() < 0.5
        else None
    )
    spec["collector"] = rng.random() < 0.15
    spec["jitter"] = rng.choice((0.05, 0.2)) if rng.random() < 0.15 else None
    spec["ticking_manager"] = (
        rng.choice(sorted(TICKING_MANAGERS)) if rng.random() < 0.15 else None
    )
    return spec


def _run(spec, fast_forward):
    trace = generate_philly_trace(
        num_jobs=spec["jobs"], jobs_per_hour=spec["jobs_per_hour"], seed=spec["seed"]
    )
    jobs = trace.fresh_jobs()
    if spec["idle_start"]:
        for job in jobs:
            job.arrival_time += spec["idle_start"]
    manager = ScriptedChurn(list(spec["churn"])) if spec["churn"] else None
    collectors = [SamplingCollector()] if spec["collector"] else []
    overheads = (
        JitteredOverheads(spec["jitter"], spec["seed"]) if spec["jitter"] else None
    )
    simulator = Simulator(
        cluster_state=build_cluster(
            num_nodes=spec["nodes"], gpus_per_node=spec["gpus_per_node"]
        ),
        jobs=jobs,
        scheduling_policy=POLICIES[spec["policy"]](),
        placement_policy=PLACEMENTS[spec["placement"]](),
        round_duration=spec["round_duration"],
        cluster_manager=manager,
        metric_collectors=collectors,
        overhead_model=overheads,
        manager_factory=TICKING_MANAGERS.get(spec["ticking_manager"]),
        fast_forward=fast_forward,
    )
    paths = dict.fromkeys(EVENT_CORE_PATHS, 0)
    core = simulator._event_core
    for name in EVENT_CORE_PATHS:
        setattr(core, name, _counting(getattr(core, name), name, paths))
    result = simulator.run()
    paths["light"] -= paths["per_round"]  # every fallback enters via light()
    observed = (
        [c.samples for c in collectors],
        getattr(simulator.manager, "ticks", None),
    )
    return simulator, result, observed, paths


def _counting(method, name, counts):
    def wrapper(*args):
        counts[name] += 1
        return method(*args)

    return wrapper


@functools.lru_cache(maxsize=None)
def _skipping_run(seed):
    """The fast-forward run of one seed, shared by the parity and path tests."""
    return _run(_draw_spec(seed), fast_forward=True)


def _invariant_outcome(simulator):
    """The state-invariant verdict after a run: None, or the failure text."""
    try:
        simulator.cluster_state.check_invariants()
        simulator.job_state.check_invariants()
    except Exception as exc:  # noqa: BLE001 - the outcome itself is the datum
        return f"{type(exc).__name__}: {exc}"
    return None


def _assert_parity(seed):
    spec = _draw_spec(seed)
    fast_sim, fast_result, fast_observed, _ = _skipping_run(seed)
    step_sim, step_result, step_observed, step_paths = _run(spec, fast_forward=False)
    assert not any(step_paths.values()), spec

    fast_completions = {j.job_id: j.completion_time for j in fast_result.jobs}
    step_completions = {j.job_id: j.completion_time for j in step_result.jobs}
    assert fast_completions == step_completions, spec
    assert fast_result.round_log == step_result.round_log, spec
    assert fast_result.rounds == step_result.rounds, spec
    assert fast_result.end_time == step_result.end_time, spec
    assert fast_observed == step_observed, spec
    assert _invariant_outcome(fast_sim) == _invariant_outcome(step_sim), spec


def test_corpus_covers_every_drawn_dimension():
    """The frozen corpus must keep covering all policies/placements/etc."""
    specs = [_draw_spec(seed) for seed in FIXED_CORPUS_SEEDS]
    assert {s["policy"] for s in specs} == set(POLICIES)
    assert {s["placement"] for s in specs} == set(PLACEMENTS)
    assert any(not float(s["round_duration"]).is_integer() for s in specs)
    assert any(float(s["round_duration"]).is_integer() for s in specs)
    for dimension in ("churn", "idle_start", "collector", "jitter", "ticking_manager"):
        assert any(s[dimension] for s in specs), dimension
        assert any(not s[dimension] for s in specs), dimension
    # Each hook overridden alone; managers overriding both come from the sweep.
    assert {"advance_time", "update_metrics"} <= {s["ticking_manager"] for s in specs}


@pytest.mark.parametrize("seed", FIXED_CORPUS_SEEDS)
def test_event_engine_parity_fixed_corpus(seed):
    _assert_parity(seed)


def test_corpus_reaches_every_event_core_path():
    """The frozen corpus drives every skip path of the event core."""
    reached = dict.fromkeys(EVENT_CORE_PATHS, 0)
    for seed in FIXED_CORPUS_SEEDS:
        for name, count in _skipping_run(seed)[3].items():
            reached[name] += count
    assert all(reached.values()), reached


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", FUZZ_SWEEP_SEEDS)
def test_event_engine_parity_fuzz_sweep(seed):
    _assert_parity(seed)
