"""The skip executor on every resumable-loop surface, against the stepping loop.

The event core is a skip *executor* inside the round loop, so everything
built on the loop's pausability must behave identically with fast-forward on
and with the stepping loop (``fast_forward=False``):

* ``_advance_loop(stop_time)`` pause/resume on a plain simulator;
* federation shards (``run_until``/``submit``/``finish`` driven by the
  serial engine);
* the deployment path (:class:`CentralScheduler` composes the simulator);
* trace record -> replay -> diff round-trips, with the recorded event
  streams bit-identical to the stepping loop's and trace headers recorded
  while the simulator still had an engine switch still replaying.
"""

import json

import pytest

from repro.cluster.builder import build_cluster
from repro.federation.engine import FederationEngine, build_uniform_shards
from repro.federation.router import make_router
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling import FifoScheduling, SrtfScheduling
from repro.runtime.central_scheduler import CentralScheduler
from repro.simulator.engine import Simulator
from repro.simulator.overheads import OverheadModel
from repro.telemetry.events import NONDETERMINISTIC_KINDS, TraceFormatError
from repro.telemetry.runspec import LEGACY_ENGINES, RunSpec, run_recorded
from repro.telemetry.sinks import open_sink
from repro.trace import main as trace_main
from repro.workloads.philly import generate_philly_trace

ROUND = 300.0


def small_trace(num_jobs=30, seed=13, jobs_per_hour=6.0):
    return generate_philly_trace(
        num_jobs=num_jobs, jobs_per_hour=jobs_per_hour, seed=seed
    )


def make_sim(trace, fast_forward=True, **kwargs):
    return Simulator(
        cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
        jobs=trace.fresh_jobs(),
        scheduling_policy=FifoScheduling(),
        placement_policy=ConsolidatedPlacement(),
        round_duration=ROUND,
        fast_forward=fast_forward,
        **kwargs,
    )


def completions(result):
    return {j.job_id: j.completion_time for j in result.jobs}


def assert_identical(first, second):
    assert completions(first) == completions(second)
    assert first.round_log == second.round_log
    assert first.rounds == second.rounds
    assert first.end_time == second.end_time


# ----------------------------------------------------------------------
# Pause/resume on the plain loop
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "fast_forward", [True, False], ids=["fast-forward", "stepping"]
)
def test_paused_and_resumed_loop_matches_uninterrupted_run(fast_forward):
    trace = small_trace()
    uninterrupted = make_sim(trace, fast_forward).run()

    paused = make_sim(trace, fast_forward)
    for stop_time in (2_000.0, 9_000.0, 30_000.0):
        assert paused._advance_loop(stop_time) is False
        assert paused.manager.current_time >= stop_time
    assert paused._advance_loop(None) is True
    assert_identical(uninterrupted, paused.build_result())


def test_pause_points_are_engine_invariant():
    """Skipping and stepping paused at one stop_time stand at the same round."""
    trace = small_trace()
    stepping, skipping = make_sim(trace, False), make_sim(trace, True)
    for stop_time in (1_500.0, 12_000.0):
        for sim in (stepping, skipping):
            assert sim._advance_loop(stop_time) is False
        assert stepping.manager.round_number == skipping.manager.round_number
        assert stepping.manager.current_time == skipping.manager.current_time
    for sim in (stepping, skipping):
        assert sim._advance_loop(None) is True
    assert_identical(stepping.build_result(), skipping.build_result())


# ----------------------------------------------------------------------
# Federation shards
# ----------------------------------------------------------------------


def _run_federation(fast_forward, scheduling=FifoScheduling, router_name="round-robin"):
    trace = small_trace(num_jobs=40, seed=7)
    shards = build_uniform_shards(
        2,
        4,
        scheduling,
        ConsolidatedPlacement,
        round_duration=ROUND,
        fast_forward=fast_forward,
    )
    engine_obj = FederationEngine(
        shards,
        make_router(router_name),
        trace.fresh_jobs(),
        tracked_job_ids=trace.tracked_ids(),
    )
    return engine_obj.run()


@pytest.mark.parametrize("scheduling", [FifoScheduling, SrtfScheduling])
def test_federation_shards_event_engine_parity(scheduling):
    stepping = _run_federation(False, scheduling=scheduling)
    skipping = _run_federation(True, scheduling=scheduling)
    assert stepping.assignments == skipping.assignments
    for stepping_shard, skipping_shard in zip(
        stepping.shard_results, skipping.shard_results
    ):
        assert_identical(stepping_shard, skipping_shard)


# ----------------------------------------------------------------------
# Deployment path (CentralScheduler)
# ----------------------------------------------------------------------


def test_central_scheduler_event_engine_parity():
    trace = small_trace(num_jobs=25, seed=21)
    results = {}
    for fast_forward in (False, True):
        scheduler = CentralScheduler(
            cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
            jobs=trace.fresh_jobs(),
            scheduling_policy=FifoScheduling(),
            placement_policy=ConsolidatedPlacement(),
            round_duration=ROUND,
            overhead_model=OverheadModel(),
            fast_forward=fast_forward,
        )
        results[fast_forward] = scheduler.run()
        assert scheduler.leaked_leases() == 0
    assert_identical(results[False], results[True])


# ----------------------------------------------------------------------
# Trace record / replay / diff, legacy engine headers included
# ----------------------------------------------------------------------


def test_runspec_engine_round_trip_and_default():
    """Specs carry no engine; a legacy ``engine`` key is accepted and dropped."""
    spec = RunSpec(policy="srtf", num_jobs=12)
    assert "engine" not in spec.as_dict()
    assert RunSpec.from_dict(spec.as_dict()) == spec
    for legacy in LEGACY_ENGINES:
        assert RunSpec.from_dict({**spec.as_dict(), "engine": legacy}) == spec
    with pytest.raises(TraceFormatError, match="unknown engine"):
        RunSpec.from_dict({**spec.as_dict(), "engine": "instant"})


def _with_header_engine(source, target, engine):
    """Copy a trace, stamping ``engine`` into its header's run spec."""
    with open(source) as handle:
        header, *events = handle.readlines()
    record = json.loads(header)
    record["spec"]["engine"] = engine
    with open(target, "w") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.writelines(events)


@pytest.mark.parametrize("mode_args", [
    [],
    ["--mode", "runtime"],
    ["--mode", "federation", "--shards", "2"],
    ["--scenario", "steady", "--scenario-smoke"],
])
def test_trace_record_replay_diff_event_engine(tmp_path, mode_args, capsys):
    spec_args = ["--jobs", "12", "--nodes", "4", "--seed", "11", *mode_args]
    recorded = str(tmp_path / "trace.jsonl")
    assert trace_main(["record", *spec_args, "--out", recorded]) == 0
    assert trace_main(["replay", recorded]) == 0
    assert trace_main(["diff", recorded, recorded]) == 0

    # The same spec recorded on the stepping loop: the *event streams*
    # (everything after the header) must be bit-identical -- the skipped
    # segments' round payloads are a parity surface, not just completions.
    # Wall-clock kinds (timing, supervisor) are excluded exactly as the
    # repo's own `trace diff` excludes them.
    with open(recorded) as handle:
        spec = RunSpec.from_dict(json.loads(handle.readline())["spec"])
    stepped = str(tmp_path / "stepping.jsonl")
    sink = open_sink(stepped)
    try:
        run_recorded(spec, sink, fast_forward=False)
    finally:
        sink.close()

    def stream(path):
        with open(path) as handle:
            lines = handle.readlines()[1:]
        return [
            line
            for line in lines
            if json.loads(line)["kind"] not in NONDETERMINISTIC_KINDS
        ]

    assert stream(recorded) == stream(stepped)

    # Headers recorded under either value of the removed engine switch still
    # replay, bit-identically: both values named the same schedule.
    for legacy in LEGACY_ENGINES:
        legacy_path = str(tmp_path / f"{legacy}.jsonl")
        _with_header_engine(recorded, legacy_path, legacy)
        assert trace_main(["replay", legacy_path]) == 0
        assert trace_main(["diff", legacy_path, recorded]) == 0

    # Any other engine value is malformed input: a typed format error
    # (exit 2), never a silent replay.
    bad_path = str(tmp_path / "bad.jsonl")
    _with_header_engine(recorded, bad_path, "instant")
    capsys.readouterr()
    assert trace_main(["replay", bad_path]) == 2
    assert "unknown engine" in capsys.readouterr().err
