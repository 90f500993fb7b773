"""The package runs on the standard library alone.

README promises no third-party runtime dependencies.  An optional import that
happens to succeed (an accelerator installed in the environment) would break
that promise silently, so a simulation run is made in a fresh interpreter and
every module it loads is checked against the standard library's names.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

RUN = """
import json, sys
before = set(sys.modules)
import repro
from repro import Simulator, build_cluster
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling.fifo import FifoScheduling
from repro.workloads.philly import generate_philly_trace

result = Simulator(
    cluster_state=build_cluster(num_nodes=2, gpus_per_node=4),
    jobs=generate_philly_trace(num_jobs=12, jobs_per_hour=6.0, seed=3),
    scheduling_policy=FifoScheduling(),
    placement_policy=ConsolidatedPlacement(),
).run()
assert all(job.completion_time is not None for job in result.jobs)
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names needs Python 3.10"
)
def test_simulation_loads_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-c", RUN],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = json.loads(proc.stdout)
    assert "repro" in loaded
    foreign = [
        name
        for name in loaded
        if name != "repro" and name not in sys.stdlib_module_names
    ]
    assert foreign == []
