"""Congestion probe: sampled queue-occupancy telemetry for fc links.

The flow-control layer (:mod:`repro.hardware.link`) keeps exact
per-direction state — occupancy, stalls, watermarks — but exposes it
only as live attributes.  :class:`CongestionProbe` turns that state
into a *record stream*: a scheduler observer that samples every k-th
simulation event, emits one :attr:`TraceKind.QUEUE` record per link
direction whose occupancy changed since the previous sample (delta
compression), and keeps them in a bounded ring like the flight
recorder, so month-long runs cost O(capacity) memory.  When the
network's trace is enabled the samples are mirrored into it too, so
``--trace-out`` files and Chrome exports carry the queue counters.

Record shape (also what the trace records for each stall through its
sink subscription when tracing is on)::

    TraceRecord(time, QUEUE, node=<sender id>,
                detail={"link": key, "occupancy": n,
                        "stalled": s, "in_flight": f})

The records replay through the standard pipeline: the text heatmap
(:func:`repro.obs.timeline.render_congestion_heatmap`) and the Chrome
counter tracks (:func:`repro.obs.exporters.chrome_trace_document` with
``counters=``) both consume them.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from ..metrics.report import format_table
from ..sim.trace import TraceKind, TraceRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..network.network import Network
    from ..sim.events import Event


class CongestionProbe:
    """Sampled, capacity-bounded queue-occupancy recorder.

    ``sample_every`` thins the sampling to every k-th scheduler event
    (1 = every event); ``capacity`` bounds the ring;  ``to_trace``
    mirrors emitted records into ``net.trace`` (respecting its own
    ``enabled``/capacity gates) so exports see them.
    """

    def __init__(
        self,
        net: "Network",
        *,
        sample_every: int = 16,
        capacity: int = 4096,
        to_trace: bool = False,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.net = net
        self.sample_every = sample_every
        self.capacity = capacity
        self.to_trace = to_trace
        self._ring: deque[TraceRecord] = deque(maxlen=capacity)
        self._events = 0
        self._installed = False
        #: (link, state) directions snapshotted at install time, with a
        #: parallel last-seen occupancy vector for delta compression.
        self._directions: list[tuple[Any, Any]] = []
        self._last: list[int] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "CongestionProbe":
        """Subscribe to the scheduler; snapshots the fc links; returns self."""
        if not self._installed:
            self._directions = self.net.flow_states()
            self._last = [-1] * len(self._directions)
            self.net.scheduler.add_observer(self._on_event)
            self._installed = True
        return self

    def uninstall(self) -> None:
        """Unsubscribe (idempotent; the ring keeps its contents)."""
        if self._installed:
            self.net.scheduler.remove_observer(self._on_event)
            self._installed = False

    @property
    def tracked_directions(self) -> int:
        """Flow-controlled link directions being sampled."""
        return len(self._directions)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _on_event(self, event: "Event") -> None:
        self._events += 1
        if self._events % self.sample_every:
            return
        now = self.net.scheduler.now
        trace = self.net.trace if self.to_trace else None
        last = self._last
        for i, (link, state) in enumerate(self._directions):
            occupancy = len(state.pending) + state.in_flight
            if occupancy == last[i]:
                continue
            last[i] = occupancy
            detail = {
                "link": link.key,
                "occupancy": occupancy,
                "stalled": len(state.pending),
                "in_flight": state.in_flight,
            }
            self._ring.append(
                TraceRecord(
                    time=now, kind=TraceKind.QUEUE,
                    node=state.sender, detail=detail,
                )
            )
            if trace is not None:
                trace.record(now, TraceKind.QUEUE, state.sender, **detail)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self) -> list[TraceRecord]:
        """Sampled QUEUE records, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def summary_rows(self) -> list[list[Any]]:
        """Per-direction congestion totals straight from the fc states."""
        rows = []
        for link, state in self._directions:
            rows.append(
                [
                    f"{link.key} from {state.sender}",
                    state.xmits,
                    state.stalls,
                    f"{state.stall_time:g}",
                    state.max_occupancy,
                    f"{state.max_delay:g}",
                ]
            )
        return rows

    def render_summary(self, *, title: str = "link congestion") -> str:
        """Text table of per-direction congestion totals."""
        rows = self.summary_rows()
        if not rows:
            return "(no flow-controlled links)"
        return format_table(
            ["direction", "xmits", "stalls", "stall time", "peak occ", "max delay"],
            rows,
            title=title,
        )
