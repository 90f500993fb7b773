"""The event-core benchmark: the skip executor vs the stepping loop.

Three parity surfaces plus one performance cell, each running the same
simulator twice -- with fast-forward (every sanctioned skip executed by the
event core) and as the plain stepping loop (``fast_forward=False``, the
paper's round loop and the differential oracle), identical everything else:

* **long_horizon** -- the 30-day low-load Philly cell
  (:mod:`repro.bench.workload` ``LONG_*``): both legs timed best-of-N with
  the round log disabled (the streaming configuration, where skipped segments
  are O(1) for the event core), parity checked on per-job completion times,
  round count and end time; then one untimed leg each with the full round
  log to prove the logs bit-identical too.  The full configuration gates
  ``speedup_rounds_per_sec >= EVENT_SPEEDUP_GATE``.
* **scenarios** -- every scenario in the registry (churn timelines,
  failure storms, spot markets...) under fifo and tiresias, run in-process
  through :func:`repro.scenarios.runner.run_scenario_matrix`, whose cells
  check the same fast-forward vs stepping bit-identity.
* **policies** -- the policy x placement matrix on the seeded bench workload,
  same bit-identity check per cell.

Every cell must hold schedule parity; the report records it and
:func:`run_event_bench` raises ``AssertionError`` otherwise, exactly like the
other bench gates.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.bench import workload
from repro.simulator.engine import SimulationResult, Simulator

#: The long-horizon cell must run at least this many times faster with
#: fast-forward than as the stepping loop (full configuration only; the smoke
#: cell finishes in milliseconds, where timer noise dominates).  The cell
#: measures about 50x on a 2-core VM; the gate sits at half that, so a
#: several-fold slowdown of the event core trips it but host noise does not.
EVENT_SPEEDUP_GATE = 25.0
#: Timing repetitions per leg (best-of).
_TIMING_REPS = 3

_POLICY_NAMES = ("fifo", "srtf", "las", "tiresias")
_PLACEMENT_NAMES = ("consolidated", "first-free")


def _make_policy(name: str):
    if name == "fifo":
        from repro.policies.scheduling.fifo import FifoScheduling

        return FifoScheduling()
    if name == "srtf":
        from repro.policies.scheduling.srtf import SrtfScheduling

        return SrtfScheduling()
    if name == "las":
        from repro.policies.scheduling.las import LasScheduling

        return LasScheduling()
    if name == "tiresias":
        from repro.policies.scheduling.tiresias import TiresiasScheduling

        return TiresiasScheduling()
    raise ValueError(f"unknown policy {name!r}")


def _make_placement(name: str):
    if name == "consolidated":
        from repro.policies.placement.consolidated import ConsolidatedPlacement

        return ConsolidatedPlacement()
    if name == "first-free":
        from repro.policies.placement.first_free import FirstFreePlacement

        return FirstFreePlacement()
    raise ValueError(f"unknown placement {name!r}")


def schedule_parity(
    stepping: SimulationResult, skipping: SimulationResult
) -> Dict[str, object]:
    """Bit-identity verdict between a stepping run and a fast-forward run."""
    stepping_completions = {j.job_id: j.completion_time for j in stepping.jobs}
    skipping_completions = {j.job_id: j.completion_time for j in skipping.jobs}
    mismatched = sorted(
        job_id
        for job_id in set(stepping_completions) | set(skipping_completions)
        if stepping_completions.get(job_id) != skipping_completions.get(job_id)
    )
    return {
        "identical_completion_times": not mismatched,
        "identical_round_logs": stepping.round_log == skipping.round_log,
        "identical_round_count": stepping.rounds == skipping.rounds,
        "identical_end_time": stepping.end_time == skipping.end_time,
        "mismatched_job_ids": mismatched[:20],
    }


def _parity_ok(parity: Dict[str, object]) -> bool:
    return bool(
        parity["identical_completion_times"]
        and parity["identical_round_logs"]
        and parity["identical_round_count"]
        and parity["identical_end_time"]
    )


def _run_long_horizon(
    fast_forward: bool, smoke: bool, round_log_limit: Optional[int]
) -> Tuple[SimulationResult, float]:
    simulator = Simulator(
        cluster_state=workload.long_horizon_cluster(smoke=smoke),
        jobs=workload.long_horizon_trace(smoke=smoke).fresh_jobs(),
        scheduling_policy=_make_policy("fifo"),
        placement_policy=_make_placement("consolidated"),
        round_duration=workload.long_horizon_round_duration(smoke=smoke),
        fast_forward=fast_forward,
        round_log_limit=round_log_limit,
        max_rounds=2_000_000,
    )
    start = time.perf_counter()
    result = simulator.run()
    return result, time.perf_counter() - start


def _long_horizon_cell(smoke: bool) -> Dict[str, object]:
    best: Dict[bool, float] = {}
    last: Dict[bool, SimulationResult] = {}
    for _ in range(_TIMING_REPS):
        for fast_forward in (False, True):
            result, wall = _run_long_horizon(fast_forward, smoke, round_log_limit=0)
            best[fast_forward] = min(best.get(fast_forward, wall), wall)
            last[fast_forward] = result
    timed_parity = schedule_parity(last[False], last[True])

    # One untimed leg each with the full round log: the timed legs disable it
    # (that is the streaming configuration the cell measures), so log
    # bit-identity is proved separately at the same cell.
    logged_stepping, _ = _run_long_horizon(False, smoke, round_log_limit=None)
    logged_skipping, _ = _run_long_horizon(True, smoke, round_log_limit=None)
    log_parity = schedule_parity(logged_stepping, logged_skipping)

    rounds_count = last[False].rounds
    stepping_rps = rounds_count / best[False] if best[False] > 0 else float("inf")
    skipping_rps = rounds_count / best[True] if best[True] > 0 else float("inf")
    speedup = skipping_rps / stepping_rps if stepping_rps > 0 else float("inf")
    return {
        "horizon_days": round(last[False].end_time / 86400.0, 2),
        "rounds": rounds_count,
        "finished_jobs": len(last[False].finished_jobs()),
        "stepping_wall_s": round(best[False], 4),
        "fast_forward_wall_s": round(best[True], 4),
        "stepping_rounds_per_sec": round(stepping_rps, 1),
        "fast_forward_rounds_per_sec": round(skipping_rps, 1),
        "speedup_rounds_per_sec": round(speedup, 2),
        "speedup_gate": EVENT_SPEEDUP_GATE,
        # The gate binds on the full configuration only: the smoke cell runs
        # in milliseconds, where timer noise dwarfs the real separation.
        "gated": not smoke,
        "speedup_ok": smoke or speedup >= EVENT_SPEEDUP_GATE,
        "schedule_parity": _parity_ok(timed_parity) and _parity_ok(log_parity),
        "parity": timed_parity,
        "round_log_parity": log_parity,
    }


def _scenario_cells(smoke: bool) -> Dict[str, object]:
    from repro.scenarios.registry import scenario_names
    from repro.scenarios.runner import SMOKE_COMBOS, run_scenario_matrix

    del smoke  # Scenario cells always use the smoke-compiled variants: the
    # parity claim is per scenario mechanism (churn kinds), not per scale,
    # and the full variants would dominate the bench wall time.
    matrix = run_scenario_matrix(
        smoke=True, scenarios=scenario_names(), combos=SMOKE_COMBOS, processes=1
    )
    cells = {
        name: {key: cell[key] for key in ("schedule_parity", "rounds", "cluster_events")}
        for name, cell in matrix["cells"].items()
    }
    return {"all_schedule_parity": matrix["all_schedule_parity"], "cells": cells}


def _policy_cells(smoke: bool) -> Dict[str, object]:
    cells: Dict[str, object] = {}
    all_parity = True
    for policy_name in _POLICY_NAMES:
        for placement_name in _PLACEMENT_NAMES:
            results = {}
            for fast_forward in (False, True):
                simulator = Simulator(
                    cluster_state=workload.bench_cluster(smoke=smoke),
                    jobs=workload.bench_trace(smoke=smoke).fresh_jobs(),
                    scheduling_policy=_make_policy(policy_name),
                    placement_policy=_make_placement(placement_name),
                    round_duration=workload.ROUND_DURATION,
                    fast_forward=fast_forward,
                )
                results[fast_forward] = simulator.run()
            parity = schedule_parity(results[False], results[True])
            ok = _parity_ok(parity)
            all_parity = all_parity and ok
            cells[f"{policy_name}/{placement_name}"] = {
                "schedule_parity": ok,
                "rounds": results[False].rounds,
            }
    return {"all_schedule_parity": all_parity, "cells": cells}


def run_event_bench(smoke: bool = False) -> Dict[str, object]:
    """Run the event-core bench; returns the ``event_core`` report section.

    Raises ``AssertionError`` when any parity surface diverges, or (full
    configuration) when the long-horizon speedup misses its gate.
    """
    long_horizon = _long_horizon_cell(smoke)
    scenarios = _scenario_cells(smoke)
    policies = _policy_cells(smoke)
    all_parity = bool(
        long_horizon["schedule_parity"]
        and scenarios["all_schedule_parity"]
        and policies["all_schedule_parity"]
    )
    report = {
        "scale": "smoke" if smoke else "full",
        "long_horizon": long_horizon,
        "scenarios": scenarios,
        "policies": policies,
        "all_schedule_parity": all_parity,
    }
    if not all_parity:
        failing: List[str] = []
        if not long_horizon["schedule_parity"]:
            failing.append(f"long_horizon: {long_horizon['parity']}")
        failing.extend(
            f"scenario {name}"
            for name, cell in scenarios["cells"].items()
            if not cell["schedule_parity"]
        )
        failing.extend(
            f"policy {name}"
            for name, cell in policies["cells"].items()
            if not cell["schedule_parity"]
        )
        raise AssertionError(
            "fast-forward diverged from the stepping loop: " + "; ".join(failing)
        )
    if not long_horizon["speedup_ok"]:
        raise AssertionError(
            f"long-horizon fast-forward speedup {long_horizon['speedup_rounds_per_sec']}x "
            f"missed the >= {EVENT_SPEEDUP_GATE}x gate"
        )
    return report
