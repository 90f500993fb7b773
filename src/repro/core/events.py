"""Typed simulation events and the event heap of the event-driven core.

The simulator's skip executor (:mod:`repro.simulator.event_core`) organises its
round-skipping around a heap of :class:`SimEvent` entries: the next thing
that can change a scheduling decision.  Four kinds cover every source of
change the round loop reacts to:

* ``KIND_CLUSTER`` -- the cluster manager's next membership event
  (scenario-timeline churn, federation routing bounds surfaced through
  :meth:`~repro.core.abstractions.ClusterManager.next_event_time`);
* ``KIND_ARRIVAL`` -- the next trace/routed job becoming poppable from the
  manager's wait queue;
* ``KIND_POLICY`` -- the scheduling policy's own next internal event
  (:meth:`~repro.core.abstractions.SchedulingPolicy.next_policy_event_time`,
  e.g. a Tiresias demotion threshold crossing);
* ``KIND_COMPLETION`` -- a running job reaching its termination target, found
  by the exact per-round replay of
  :meth:`~repro.simulator.execution.ExecutionModel.steady_scan`.

**Event time is the absolute round index**, not a float timestamp.  The
stepping round loop is the differential oracle the event core must match
bit-for-bit, and the loop quantises every observable effect to a round
boundary: an arrival at t=1234.5s takes effect in the first round whose
``pop_wait_queue`` sees it.  Storing the integer round keeps heap ordering
exact (no float-comparison ambiguity between event sources) while the core
derives the round index from float timestamps with the loop's own
accumulated-clock comparisons.

Deterministic tie-breaking is the tuple order ``(time, kind, id)``:

* equal rounds resolve by *kind* -- boundary kinds (cluster, arrival, policy)
  order before completions, encoding explicitly what the round loop resolves
  implicitly: a completion that lands in the same round as a boundary event
  is materialised by that round's full pass through the loop (advance ->
  prune -> admit -> schedule), never by the skip executor;
* equal ``(time, kind)`` resolve by *id* (job id for arrivals/completions),
  matching the ascending-job-id order in which the loop's per-round steps
  visit jobs.
"""

from __future__ import annotations

import heapq
from typing import List, NamedTuple, Optional

#: Kind ordinals double as tie-break priority at an equal round; see module
#: docstring.  Boundary kinds (the skip executor must hand the round back to
#: the full loop) sort before completions (materialised inside the skip).
KIND_CLUSTER = 0
KIND_ARRIVAL = 1
KIND_POLICY = 2
KIND_COMPLETION = 3

KIND_NAMES = {
    KIND_CLUSTER: "cluster",
    KIND_ARRIVAL: "arrival",
    KIND_POLICY: "policy",
    KIND_COMPLETION: "completion",
}


class SimEvent(NamedTuple):
    """One entry of the event heap; orders by ``(time, kind, id)``.

    ``time`` is the absolute round index the event takes effect in (see
    module docstring for why rounds, not seconds).  ``id`` is the job id for
    arrival/completion events and 0 for sourceless boundary events.
    """

    time: int
    kind: int
    id: int

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"kind{self.kind}")


class EventHeap:
    """A min-heap of :class:`SimEvent` with the ``(time, kind, id)`` order.

    A thin, explicit wrapper over :mod:`heapq`: tuple comparison on the
    NamedTuple *is* the tie-break contract, so push/pop order is a pure
    function of the event set -- no insertion-order dependence, which is what
    makes the event core's schedule reproducible and comparable against the
    stepping loop.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: List[SimEvent] = []

    def push(self, event: SimEvent) -> None:
        heapq.heappush(self._entries, event)

    def pop(self) -> SimEvent:
        return heapq.heappop(self._entries)

    def peek(self) -> Optional[SimEvent]:
        return self._entries[0] if self._entries else None

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __repr__(self) -> str:
        head = self.peek()
        return f"EventHeap(len={len(self._entries)}, next={head})"
