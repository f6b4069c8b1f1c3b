"""In-memory spans around the calls the benchmark makes into each layer.

Nothing here edits or patches the simulator.  Spans come from three
places, all in the benchmark's own files:

* explicit :meth:`Tracer.span` blocks around build, views, attach,
  reset, run and campaign calls;
* :func:`traced_protocol`, a subclass of a protocol whose ``dispatch``
  is one span (the ``core`` layer) and whose ``api`` is a
  :class:`TracedApi` proxy timing every ``NodeApi.send`` (``hardware``);
* :meth:`Tracer.install`, a scheduler observer that times every fired
  event by tag.  The scheduler calls observers right after an event's
  action, so the time since the previous observer call is that event's
  cost: pop, action, and whatever spans ran inside it.

A span's name is ``<layer>.<what>``; the layer is the module under
``src/repro/`` the call enters.  Self time is a span's duration minus
the spans directly inside it; the self time of an event (its cost minus
the spans inside it) is charged to the layer its tag belongs to, less
the kernel's per-event cost measured by :func:`noop_event_us`, which is
charged to ``sim``.

Spans are kept in flat arrays and written out once, by
:meth:`Tracer.dump`, when the run ends.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

#: Raw spans kept for :meth:`Tracer.dump`; beyond this only the
#: per-name aggregates grow (the count of dropped spans is reported).
SPAN_CAPACITY = 1_000_000

#: Event tag -> layer charged with the event's self time.  ``hop`` is
#: the switching subsystem; ``ncu``/``timer``/``start``/``datalink``
#: are NCU service and job delivery; ``scenario:*`` are link writes
#: (fail, partition, crash, heal, restart).  Anything else is ``sim``.
TAG_LAYERS = {
    "hop": "hardware",
    "ncu": "hardware",
    "timer": "hardware",
    "start": "hardware",
    "datalink": "hardware",
    "inject": "hardware",
    "scenario": "network",
}

#: The tag buckets ``sim.events.<bucket>`` counts.
EVENT_BUCKETS = ("hop", "ncu", "timer", "other")


def _bucket(tag: str) -> str:
    head = tag.partition(":")[0]
    return head if head in ("hop", "ncu", "timer") else "other"


class _EventStats:
    """Per-tag-head totals of fired events."""

    __slots__ = ("count", "cost_s", "child_s")

    def __init__(self) -> None:
        self.count = 0
        self.cost_s = 0.0
        self.child_s = 0.0


class Tracer:
    """Spans and event timings of one traced run, held in memory.

    A frame on the open-span stack is ``[name_index, start, child_s]``.
    Aggregates per span name (count, total, self) are always kept; raw
    spans up to :data:`SPAN_CAPACITY`.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.count: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        #: Raw spans: name index, parent span index (-1 = none), times.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._stack: list[list[Any]] = []
        self._ids: list[int] = []
        #: Durations of every ``core`` dispatch span, for percentiles.
        self.handler_durations = array("d")
        self.events: dict[str, _EventStats] = {}
        self.obs_s = 0.0
        self.pending_peak = 0
        self._mark = 0.0
        self._child_mark = 0.0
        self._scheduler: Any = None
        self.link_changes = 0
        self._links: list[Any] = []
        self._link_state: list[bool] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _name_index(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return index

    def begin(self, name: str) -> None:
        """Open a span; spans nest strictly (close with :meth:`end`)."""
        index = self._name_index(name)
        if len(self.span_name) < SPAN_CAPACITY:
            self._ids.append(len(self.span_name))
            self.span_name.append(index)
            self.span_parent.append(self._ids[-2] if len(self._ids) > 1 else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            self._ids.append(-1)
        self._stack.append([index, perf_counter(), 0.0])

    def end(self) -> float:
        """Close the innermost span; returns its duration in seconds."""
        return self._close(perf_counter())

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-finished span under the innermost open one."""
        self.begin(name)
        self._stack[-1][1] = start
        self._close(end)

    def _close(self, t: float) -> float:
        index, start, child = self._stack.pop()
        duration = t - start
        self.count[index] += 1
        self.total_s[index] += duration
        self.self_s[index] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        span_id = self._ids.pop()
        if span_id >= 0:
            self.span_start[span_id] = start
            self.span_end[span_id] = t
        else:
            self.dropped += 1
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def install(self, scheduler: Any) -> None:
        """Time every event ``scheduler`` fires from now on.

        Call :meth:`install_tail` after adding other observers (the
        churn monitor) so their cost is split out as ``obs`` time.
        """
        self._scheduler = scheduler
        scheduler.add_observer(self._on_event)

    def install_tail(self, scheduler: Any) -> None:
        scheduler.add_observer(self._on_event_tail)

    def watch_links(self, links: Any) -> None:
        """Count link state flips made by ``scenario:*`` events."""
        self._links = list(links)
        self._link_state = [link.active for link in self._links]

    def run(self, name: str, fn: Any, *args: Any) -> Any:
        """Call ``fn(*args)`` — a scheduler run — inside a ``name`` span,
        with the event clock started at the span's start."""
        self.begin(name)
        frame = self._stack[-1]
        self._mark = frame[1]
        self._child_mark = 0.0
        pending = self._scheduler.pending
        if pending > self.pending_peak:
            self.pending_peak = pending
        try:
            return fn(*args)
        finally:
            self.end()

    def _on_event(self, event: Any) -> None:
        t = perf_counter()
        frame = self._stack[-1]
        child = frame[2] - self._child_mark
        self._child_mark = frame[2]
        head = event.tag.partition(":")[0]
        stats = self.events.get(head)
        if stats is None:
            stats = self.events[head] = _EventStats()
        stats.count += 1
        stats.cost_s += t - self._mark
        stats.child_s += child
        if head == "scenario" and self._links:
            state = [link.active for link in self._links]
            self.link_changes += sum(
                a != b for a, b in zip(state, self._link_state)
            )
            self._link_state = state
        pending = self._scheduler.pending
        if pending > self.pending_peak:
            self.pending_peak = pending
        # The observer's own cost lands in the next event, as it does
        # in :func:`noop_event_us`, so subtracting that cancels it.
        self._mark = t

    def _on_event_tail(self, event: Any) -> None:
        t = perf_counter()
        self.obs_s += t - self._mark
        self._mark = t

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def totals(self, name: str) -> tuple[int, float, float]:
        """``(count, total_s, self_s)`` of one span name (zeros if none)."""
        index = self._index.get(name)
        if index is None:
            return 0, 0.0, 0.0
        return self.count[index], self.total_s[index], self.self_s[index]

    def totals_prefix(self, prefix: str) -> tuple[int, float, float]:
        count = total = self_s = 0.0
        for i, name in enumerate(self.names):
            if name.startswith(prefix):
                count += self.count[i]
                total += self.total_s[i]
                self_s += self.self_s[i]
        return int(count), total, self_s

    def event_stats(self, *buckets: str) -> _EventStats:
        """Events summed over tag heads falling in ``buckets``."""
        out = _EventStats()
        for head, stats in self.events.items():
            if _bucket(head) in buckets:
                out.count += stats.count
                out.cost_s += stats.cost_s
                out.child_s += stats.child_s
        return out

    def layer_self_s(self, noop_us: float) -> dict[str, float]:
        """Self time per layer, events charged by :data:`TAG_LAYERS`.

        A ``sim.run`` span's self time is its events' own cost plus the
        loop around them; each event's own cost moves to its tag's
        layer, except ``noop_us`` per event (the kernel), which stays in
        ``sim``, and monitor observer time, which goes to ``obs``.
        ``noop_us`` is :func:`noop_event_us` at this run's pending peak.
        """
        noop_s = noop_us / 1e6
        layers: dict[str, float] = {}
        for i, name in enumerate(self.names):
            layer = name.partition(".")[0]
            layers[layer] = layers.get(layer, 0.0) + self.self_s[i]
        moved = 0.0
        for head, stats in self.events.items():
            layer = TAG_LAYERS.get(head, "sim")
            own = stats.cost_s - stats.child_s - stats.count * noop_s
            if layer != "sim":
                layers[layer] = layers.get(layer, 0.0) + own
                moved += own
        layers["sim"] = layers.get("sim", 0.0) - moved - self.obs_s
        layers["obs"] = layers.get("obs", 0.0) + self.obs_s
        return layers

    def dump(self, path: Path, meta: dict[str, Any]) -> None:
        """Write the raw spans (columnar, times in µs from the first)."""
        n = len(self.span_name)
        origin = self.span_start[0] if n else 0.0
        doc = {
            "meta": meta,
            "names": self.names,
            "dropped": self.dropped,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_us": [round((t - origin) * 1e6, 3) for t in self.span_start],
            "end_us": [round((t - origin) * 1e6, 3) for t in self.span_end],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


class TracedApi:
    """A ``NodeApi`` stand-in that times ``send``; the rest delegates."""

    __slots__ = ("_api", "_tracer")

    def __init__(self, api: Any, tracer: Tracer) -> None:
        self._api = api
        self._tracer = tracer

    def send(self, header: tuple[int, ...], payload: Any) -> Any:
        tracer = self._tracer
        tracer.begin("hardware.send")
        try:
            return self._api.send(header, payload)
        finally:
            tracer.end()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._api, name)


def traced_protocol(cls: type, label: str, tracer: Tracer) -> type:
    """``cls`` with each dispatch a ``core.dispatch.<label>`` span and
    its ``api`` wrapped in a :class:`TracedApi`."""
    span_name = f"core.dispatch.{label}"
    durations = tracer.handler_durations

    class Traced(cls):  # type: ignore[misc, valid-type]
        def __init__(self, api: Any, **kwargs: Any) -> None:
            super().__init__(TracedApi(api, tracer), **kwargs)

        def dispatch(self, api: Any, job: Any) -> None:
            tracer.begin(span_name)
            try:
                super().dispatch(api, job)
            finally:
                durations.append(tracer.end())

    Traced.__name__ = Traced.__qualname__ = f"Traced{cls.__name__}"
    return Traced


#: No-op events fired by :func:`noop_event_us`.
NOOP_EVENTS = 200_000


def noop_event_us(depth: int) -> float:
    """Host µs per no-op event through a fresh public ``Scheduler``.

    The queue is held at ``depth`` pending events (each event schedules
    its successor), and a :class:`Tracer` observes every event exactly
    as in a traced workload, so the result is the per-event cost of the
    kernel plus the tracing observer — what an event costs before its
    action does any work.
    """
    from repro.sim.scheduler import Scheduler

    scheduler = Scheduler()
    depth = max(1, depth)
    horizon = float(depth)
    budget = [NOOP_EVENTS]

    def noop() -> None:
        budget[0] -= 1
        if budget[0] > 0:
            scheduler.schedule(horizon, noop, 0, "noop")

    for i in range(depth):
        scheduler.schedule_at(float(i), noop, 0, "noop")
    tracer = Tracer()
    tracer.install(scheduler)
    start = perf_counter()
    tracer.run("sim.noop", scheduler.run)
    elapsed = perf_counter() - start
    return elapsed / scheduler.events_processed * 1e6
