"""Span recording from outside the program: wrap instance attributes, keep
spans in flat arrays, write them out once at the end.

A :class:`Tracer` replaces a bound method on one *instance* with a wrapper
that records a span (name, start, end, parent, run id).  Wrapping instances
rather than classes leaves every ``type()``-based check inside the simulator
(skip eligibility, unmigrated-manager detection) looking at the original
class, so a traced run takes exactly the code paths an untraced one does.

Spans live in :mod:`array` columns (32 bytes a span) until :meth:`write`
dumps them; a layer's self time is its spans' durations minus the durations
of their direct children, so the self times of every span under a root add
up to the root's duration.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

SPAN_FORMAT = "perfbench-spans/1"


class Tracer:
    """Records nested spans around wrapped callables of one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.run_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._run = 0
        #: Boundaries asked for that the program no longer has ("layer:attr").
        self.absent: List[str] = []

    # ------------------------------------------------------------------

    def begin_run(self, run_id: int) -> None:
        """Tag every span recorded from now on with ``run_id``."""
        self._run = run_id

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable, on_exit: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_exit(args, result, start)`` runs after the span closed, in a
        ``trace.hooks`` span of its own, so the benchmark's bookkeeping is
        charged neither to ``name`` nor to its caller.
        """
        nid = self._nid(name)
        hook_nid = self._nid("trace.hooks") if on_exit is not None else -1
        stack = self._stack
        name_id, parent, run_id = self.name_id, self.parent, self.run_id
        starts, ends = self.start, self.end
        tracer = self

        def traced(*args, **kwargs):
            index = len(starts)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run_id.append(tracer._run)
            ends.append(0.0)
            stack.append(index)
            begin = perf_counter()
            starts.append(begin)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if on_exit is not None:
                with _Span(tracer, hook_nid):
                    on_exit(args, result, begin)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_attrs(
        self,
        name: str,
        obj: object,
        attrs: Iterable[str],
        on_exit: Optional[Dict[str, Callable]] = None,
    ) -> None:
        """Wrap ``obj.<attr>`` for each attr on the instance; record misses."""
        for attr in attrs:
            fn = getattr(obj, attr, None)
            if fn is None or not callable(fn):
                label = f"{name}:{attr}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            hook = on_exit.get(attr) if on_exit else None
            setattr(obj, attr, self.wrap(name, fn, hook))

    def span(self, name: str) -> "_Span":
        """Context manager recording a span around a block of benchmark code."""
        return _Span(self, self._nid(name))

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def self_times(self, run_id: Optional[int] = None) -> Dict[str, float]:
        """Per-name self time, over spans of ``run_id`` (all runs if None)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals: Dict[str, float] = defaultdict(float)
        names, nids, runs = self.names, self.name_id, self.run_id
        for i in range(n):
            if run_id is None or runs[i] == run_id:
                totals[names[nids[i]]] += (end[i] - start[i]) - child[i]
        return dict(totals)

    def call_counts(self, run_id: Optional[int] = None) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        names, runs = self.names, self.run_id
        for i, nid in enumerate(self.name_id):
            if run_id is None or runs[i] == run_id:
                counts[names[nid]] += 1
        return dict(counts)

    def write(self, path: str, meta: Dict[str, object]) -> None:
        """Dump every span: one JSON header line, then the raw columns."""
        header = {
            "format": SPAN_FORMAT,
            "spans": len(self.start),
            "names": self.names,
            "columns": [
                ["name_id", self.name_id.typecode],
                ["parent", self.parent.typecode],
                ["run_id", self.run_id.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
            ],
            "absent": self.absent,
            "meta": meta,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for column in (self.name_id, self.parent, self.run_id, self.start, self.end):
                column.tofile(handle)


class _Span:
    __slots__ = ("_tracer", "_nid", "_index")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer = tracer
        self._nid = nid
        self._index = -1

    def __enter__(self) -> "_Span":
        t = self._tracer
        self._index = len(t.start)
        t.name_id.append(self._nid)
        t.parent.append(t._stack[-1] if t._stack else -1)
        t.run_id.append(t._run)
        t.end.append(0.0)
        t._stack.append(self._index)
        t.start.append(perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        t = self._tracer
        t.end[self._index] = perf_counter()
        t._stack.pop()


def load_spans(path: str) -> Dict[str, object]:
    """Read a span file written by :meth:`Tracer.write` back into columns."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["spans"]
        columns = {}
        for name, typecode in header["columns"]:
            column = array(typecode)
            column.fromfile(handle, count)
            columns[name] = column
    header["columns"] = columns
    return header
