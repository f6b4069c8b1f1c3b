"""Structured event tracing.

The trace is the simulator's flight recorder: every packet injection,
hop, copy, drop, NCU job and link-state change can be recorded as a
typed :class:`TraceRecord`.  Tests use traces to assert fine-grained
behaviour (e.g. "the DFS broadcast packet died on the failed link"),
and the metrics layer is deliberately *not* built on the trace so that
tracing can be disabled for large benchmark runs without losing
complexity accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Hashable, Iterator

from .sink import Sink


class TraceKind(Enum):
    """Categories of trace records."""

    PACKET_INJECTED = "packet_injected"
    PACKET_HOP = "packet_hop"
    PACKET_COPIED = "packet_copied"
    PACKET_DELIVERED = "packet_delivered"
    PACKET_DROPPED = "packet_dropped"
    NCU_JOB_START = "ncu_job_start"
    NCU_JOB_END = "ncu_job_end"
    LINK_STATE = "link_state"
    TIMER_FIRED = "timer_fired"
    PROTOCOL_NOTE = "protocol_note"
    ALERT = "alert"
    SCHED_EVENT = "sched_event"
    QUEUE = "queue"


@dataclass(slots=True)
class TraceRecord:
    """One recorded simulator event.

    ``detail`` is a free-form mapping whose keys depend on ``kind``
    (e.g. ``{"packet": 17, "link": (2, 3)}`` for a hop).
    """

    time: float
    kind: TraceKind
    node: Any = None
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        where = f" @{self.node}" if self.node is not None else ""
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:10.4f}] {self.kind.value}{where} {extras}"


class Trace(Sink):
    """Append-only record store with simple filtering helpers.

    A network subscribes its trace to its sink when tracing is enabled
    (``Network(trace=True)``); the typed hot-path calls below become
    records.  Everything else calls :meth:`record` directly.
    """

    __slots__ = ("enabled", "capacity", "records", "_dropped")

    def __init__(self, enabled: bool = True, capacity: int | None = None) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.records: list[TraceRecord] = []
        self._dropped = 0

    def record(
        self,
        time: float,
        kind: TraceKind,
        node: Any = None,
        **detail: Any,
    ) -> None:
        """Append a record (no-op when tracing is disabled or full)."""
        if not self.enabled:
            return
        if self.capacity is not None and len(self.records) >= self.capacity:
            self._dropped += 1
            return
        self.records.append(TraceRecord(time=time, kind=kind, node=node, detail=detail))

    # ------------------------------------------------------------------
    # Sink calls (see repro.sim.sink)
    # ------------------------------------------------------------------
    def hop(self, time: float, node: Any, seq: int, link: Hashable, to: Any) -> None:
        self.record(time, TraceKind.PACKET_HOP, node, packet=seq, link=link, to=to)

    def copy(
        self, time: float, node: Any, seq: int, final: bool, group: int | None
    ) -> None:
        if group is None:
            self.record(time, TraceKind.PACKET_COPIED, node, packet=seq, final=final)
        else:
            self.record(time, TraceKind.PACKET_COPIED, node, packet=seq, group=group)

    def drop(self, time: float, node: Any, seq: int, reason: str, **detail: Any) -> None:
        self.record(
            time, TraceKind.PACKET_DROPPED, node, packet=seq, reason=reason, **detail
        )

    def ncu_begin(
        self, time: float, node: Any, kind: str, seq: int | None, service: float
    ) -> None:
        self.record(time, TraceKind.NCU_JOB_START, node, job=kind, packet=seq)

    def ncu_end(self, time: float, node: Any, kind: str, handler_s: float) -> None:
        self.record(time, TraceKind.NCU_JOB_END, node, job=kind)

    def queue(
        self,
        time: float,
        node: Any,
        seq: int,
        link: Hashable,
        occupancy: int,
        stalled: int | None,
    ) -> None:
        if stalled is not None:
            self.record(
                time, TraceKind.QUEUE, node,
                packet=seq, link=link, occupancy=occupancy, stalled=stalled,
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @property
    def dropped(self) -> int:
        """Records discarded because ``capacity`` was reached."""
        return self._dropped

    def filter(
        self,
        kind: TraceKind | None = None,
        node: Any = None,
        predicate: Callable[[TraceRecord], bool] | None = None,
    ) -> list[TraceRecord]:
        """Records matching all the given criteria."""
        out = []
        for rec in self.records:
            if kind is not None and rec.kind is not kind:
                continue
            if node is not None and rec.node != node:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def count(self, kind: TraceKind) -> int:
        """Number of records of the given kind."""
        return sum(1 for rec in self.records if rec.kind is kind)

    def last(self, kind: TraceKind) -> TraceRecord | None:
        """Most recent record of the given kind, if any."""
        for rec in reversed(self.records):
            if rec.kind is kind:
                return rec
        return None

    def clear(self) -> None:
        """Drop all records (the ``dropped`` counter is reset too)."""
        self.records.clear()
        self._dropped = 0

    def dump(self, limit: int | None = None) -> str:  # pragma: no cover
        """Human-readable multi-line rendering, for debugging."""
        records = self.records if limit is None else self.records[-limit:]
        return "\n".join(str(rec) for rec in records)
