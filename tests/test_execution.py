"""Direct tests of the execution model's progress fold.

``ExecutionModel.advance`` is the one method that changes job progress: the
stepping loop calls it once per round, the skip executor once per stride
(``rounds=k``).  Its stride must land bit for bit where ``k`` one-round calls
land, and ``steady_scan`` -- the pure probe that sizes strides -- must name
the round in which those one-round calls complete a job.
"""

import pytest

from repro.cluster.builder import build_cluster
from repro.core.exceptions import SimulationError
from repro.core.job import Job, JobStatus
from repro.simulator.execution import ExecutionModel
from repro.simulator.overheads import OverheadModel

#: Non-integral, so clock sums and per-round products are inexact floats.
ROUND = 287.5

#: (pending overhead in seconds, rounds in the stride): overhead longer than
#: a round, shorter than a round, and none at all.
NON_COMPLETING = [
    pytest.param(2.5 * ROUND, 9, id="overhead-longer-than-round"),
    pytest.param(0.4 * ROUND, 9, id="overhead-shorter-than-round"),
    pytest.param(0.0, 9, id="zero-overhead"),
]


class StalledOverheads(OverheadModel):
    """Every job runs at rate 0.0: the jitter factor zeroes it."""

    def iteration_jitter(self, job: Job) -> float:
        return 0.0


def make_running(pending=0.0, duration=40_000.0, overheads=None):
    """A fragmented 3-GPU job (rate < 1) running on its own cluster."""
    cluster = build_cluster(num_nodes=2, gpus_per_node=4)
    job = Job(arrival_time=0.0, num_gpus=3, duration=duration, comm_intensity=0.3)
    gpus = [2, 3, 4]  # spans both nodes: placement efficiency < 1
    cluster.assign(job.job_id, gpus)
    job.allocated_gpus = list(gpus)
    job.status = JobStatus.RUNNING
    job.pending_overhead = pending
    return ExecutionModel(overhead_model=overheads), job, cluster


def round_starts(rounds, start=1_000.0):
    """Start of each round, accumulated the way the manager's clock is."""
    starts = []
    clock = start
    for _ in range(rounds):
        starts.append(clock)
        clock += ROUND
    return starts


def progress(job):
    return (
        job.work_done,
        job.attained_service,
        job.pending_overhead,
        job.completion_time,
        job.status,
        dict(job.metrics),
    )


def step(model, job, cluster, starts):
    """One-round advances until the job completes; returns the rounds run."""
    for index, start in enumerate(starts, start=1):
        model.advance([job], cluster, start, ROUND)
        if job.status == JobStatus.COMPLETED:
            return index
    return len(starts)


def rounds_to_complete(pending, duration):
    model, job, cluster = make_running(pending, duration)
    done = step(model, job, cluster, round_starts(1_000))
    assert job.status == JobStatus.COMPLETED
    return done


def assert_stride_equals_steps(pending, rounds, duration=40_000.0):
    starts = round_starts(rounds)
    model, stepped, cluster = make_running(pending, duration)
    step(model, stepped, cluster, starts)
    model, strided, cluster = make_running(pending, duration)
    model.advance([strided], cluster, starts[-1], ROUND, rounds=rounds)
    assert progress(strided) == progress(stepped)
    return strided


@pytest.mark.parametrize("pending,rounds", NON_COMPLETING)
def test_stride_equals_one_round_steps(pending, rounds):
    job = assert_stride_equals_steps(pending, rounds)
    assert job.status == JobStatus.RUNNING
    assert job.work_done > 0.0


@pytest.mark.parametrize("pending", [2.5 * ROUND, 0.4 * ROUND, 0.0])
def test_stride_completing_in_its_last_round_equals_steps(pending):
    duration = 3_333.3
    rounds = rounds_to_complete(pending, duration)
    assert rounds > 2
    job = assert_stride_equals_steps(pending, rounds, duration)
    assert job.status == JobStatus.COMPLETED
    assert job.completion_time is not None


def make_pair():
    """The fragmented job plus a single-GPU one that completes in round 4."""
    model, first, cluster = make_running(pending=100.0)
    second = Job(arrival_time=0.0, num_gpus=1, duration=900.0)
    cluster.assign(second.job_id, [0])
    second.allocated_gpus = [0]
    second.status = JobStatus.RUNNING
    return model, [first, second], cluster


def test_batched_jobs_advance_independently():
    starts = round_starts(4)
    model, stepped, cluster = make_pair()
    for start in starts:
        model.advance(stepped, cluster, start, ROUND)
    model, strided, cluster = make_pair()
    model.advance(strided, cluster, starts[-1], ROUND, rounds=4)
    assert [progress(job) for job in strided] == [progress(job) for job in stepped]
    assert [job.status for job in strided] == [JobStatus.RUNNING, JobStatus.COMPLETED]


def test_rate_zero_job_accrues_nothing_and_never_completes():
    model, job, cluster = make_running(overheads=StalledOverheads())
    assert model.cached_rate(job, cluster)[0] == 0.0
    before = (job.work_done, job.attained_service, job.pending_overhead)
    model.advance([job], cluster, 0.0, ROUND)
    model.advance([job], cluster, ROUND, ROUND, rounds=100_000)
    assert (job.work_done, job.attained_service, job.pending_overhead) == before
    assert job.status == JobStatus.RUNNING
    assert job.completion_time is None
    target = model.termination.work_target(job)
    assert ExecutionModel.steady_scan(target, 0.0, ROUND, 0.0, 0.0, 10_000) == (
        None,
        0.0,
        0.0,
    )


def test_rate_zero_job_still_drains_overhead():
    model, job, cluster = make_running(pending=1.5 * ROUND, overheads=StalledOverheads())
    model.advance([job], cluster, 0.0, ROUND, rounds=5)
    assert job.work_done == 0.0
    assert job.pending_overhead == 0.0
    assert job.attained_service == 3 * (ROUND + 0.0) + 3 * (0.5 * ROUND + 0.0)
    assert job.status == JobStatus.RUNNING


@pytest.mark.parametrize(
    "pending,duration",
    [
        pytest.param(0.0, 3_333.3, id="constant-arm"),
        pytest.param(4.5 * ROUND, 100.0, id="draining-arm"),
    ],
)
@pytest.mark.parametrize("overrun", [1, 2, 7])
def test_stride_past_completion_raises_and_writes_nothing(pending, duration, overrun):
    rounds = rounds_to_complete(pending, duration) + overrun
    model, job, cluster = make_running(pending, duration)
    before = progress(job)
    with pytest.raises(SimulationError, match="sized past its completion"):
        model.advance([job], cluster, 0.0, ROUND, rounds=rounds)
    assert progress(job) == before


def test_advance_rejects_jobs_that_are_not_running_or_hold_no_gpus():
    model, job, cluster = make_running()
    job.status = JobStatus.PREEMPTED
    with pytest.raises(SimulationError, match="cannot advance"):
        model.advance([job], cluster, 0.0, ROUND)
    job.status = JobStatus.RUNNING
    cluster.release_job(job.job_id)
    with pytest.raises(SimulationError, match="holds no GPUs"):
        model.advance([job], cluster, 0.0, ROUND)


@pytest.mark.parametrize("pending", [2.5 * ROUND, 0.4 * ROUND, 0.0])
@pytest.mark.parametrize("split", [1, 3, 8])
def test_steady_scan_resumes_exactly(pending, split):
    model, job, cluster = make_running(pending, duration=3_333.3)
    rate = model.cached_rate(job, cluster)[0]
    target = model.termination.work_target(job)
    whole = ExecutionModel.steady_scan(target, rate, ROUND, 0.0, pending, 50)
    assert whole[0] is not None
    head = ExecutionModel.steady_scan(target, rate, ROUND, 0.0, pending, split)
    assert head[0] is None
    tail = ExecutionModel.steady_scan(target, rate, ROUND, head[1], head[2], 50 - split)
    assert split + tail[0] == whole[0]
    # Without a completion, two pieces end exactly where one scan ends.
    short = whole[0] - 1
    once = ExecutionModel.steady_scan(target, rate, ROUND, 0.0, pending, short)
    first = ExecutionModel.steady_scan(target, rate, ROUND, 0.0, pending, split - 1)
    second = ExecutionModel.steady_scan(
        target, rate, ROUND, first[1], first[2], short - (split - 1)
    )
    assert once[0] is None and first[0] is None and second[0] is None
    assert second == once


@pytest.mark.parametrize("pending", [2.5 * ROUND, 0.4 * ROUND, 0.0])
@pytest.mark.parametrize("duration", [250.0, 3_333.3, 12_345.6])
def test_steady_scan_names_the_round_one_round_advances_complete_in(pending, duration):
    model, job, cluster = make_running(pending, duration)
    rate = model.cached_rate(job, cluster)[0]
    target = model.termination.work_target(job)
    probed, _work, _pending = ExecutionModel.steady_scan(
        target, rate, ROUND, job.work_done, job.pending_overhead, 1_000
    )
    assert probed == rounds_to_complete(pending, duration)
