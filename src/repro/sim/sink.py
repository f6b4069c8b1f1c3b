"""The observation sink: one typed hook per hot simulator site.

Every hot site — an SS hop, copy or drop, the start and end of an NCU
system call, a flow-controlled link's stall, transmit or credit
release — loads its network's ``sink`` attribute once and, when it is
not ``None``, makes one typed call.  The calls follow the paper's cost
split: ``hop``/``copy``/``drop`` are hardware (SS) events,
``ncu_begin``/``ncu_end`` bracket one system call, and
``queue``/``release`` belong to the opt-in link-capacity extension.

``net.sink`` is ``None`` when nothing observes, so the dormant cost of
a site is one attribute load and one identity check.  With one
subscriber it is that subscriber; with several it is a :class:`FanOut`.
Subscribers — the trace, ``repro.obs.LiveStats``,
``repro.obs.PerfCounters`` — subclass :class:`Sink` and override only
the calls they use.  The simulator never imports the observability
layer: subscribers are handed to it.

Subscription scopes:

* *per network* — ``net.subscribe(sub)``; :meth:`Network.reset` drops
  these (each is told through :meth:`Sink.detach`);
* *ambient* — :func:`subscribe_ambient` lists a subscriber process-wide.
  A network joins every ambient subscriber when it is built and when it
  is reset; :func:`unsubscribe_ambient` stops further joins.  This is
  how ``PerfCounters.activate()`` attributes networks built inside
  campaign tasks without a handle threaded into task functions.

Per-event observation (monitors, the flight recorder, the congestion
probe) stays on :meth:`Scheduler.add_observer`; cold-path records
(injection, link state, timers, protocol notes, alerts) go straight to
``net.trace.record``, which does nothing when the trace is off.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable


class Sink:
    """Base subscriber: every typed call is a no-op."""

    __slots__ = ()

    def hop(self, time: float, node: Any, seq: int, link: Hashable, to: Any) -> None:
        """Packet ``seq`` left ``node`` over ``link`` toward ``to`` at ``time``."""

    def copy(
        self, time: float, node: Any, seq: int, final: bool, group: int | None
    ) -> None:
        """The SS at ``node`` copied packet ``seq`` to its NCU.

        ``final`` is set when the copy ends the route (the NCU ID);
        ``group`` is the multicast group ID for a group copy, else ``None``.
        """

    def drop(self, time: float, node: Any, seq: int, reason: str, **detail: Any) -> None:
        """The hardware lost packet ``seq`` (``detail``: link or ID involved)."""

    def ncu_begin(
        self, time: float, node: Any, kind: str, seq: int | None, service: float
    ) -> None:
        """One system call entered service for ``service`` time units."""

    def ncu_end(self, time: float, node: Any, kind: str, handler_s: float) -> None:
        """One system call's handler returned after ``handler_s`` wall seconds."""

    def queue(
        self,
        time: float,
        node: Any,
        seq: int,
        link: Hashable,
        occupancy: int,
        stalled: int | None,
    ) -> None:
        """A flow-controlled link direction changed occupancy.

        ``stalled`` is the sender's stall-queue length when packet
        ``seq`` had to wait for a credit, ``None`` when it went onto the
        wire.
        """

    def release(self, time: float, link: Hashable, waited: float) -> None:
        """A stalled packet got its credit after ``waited`` time units."""

    def substrate(self, reused: bool, seconds: float) -> None:
        """A substrate pool built (``reused=False``) or reset a network."""

    def attach(self, net: Any) -> None:
        """``net`` started delivering calls to this subscriber."""

    def detach(self, net: Any) -> None:
        """``net`` stopped delivering calls (unsubscribe or reset)."""


class FanOut(Sink):
    """Forwards every call to several subscribers, in order."""

    __slots__ = ("subscribers",)

    def __init__(self, subscribers: Iterable[Sink]) -> None:
        self.subscribers = tuple(subscribers)

    def hop(self, time, node, seq, link, to):
        for sub in self.subscribers:
            sub.hop(time, node, seq, link, to)

    def copy(self, time, node, seq, final, group):
        for sub in self.subscribers:
            sub.copy(time, node, seq, final, group)

    def drop(self, time, node, seq, reason, **detail):
        for sub in self.subscribers:
            sub.drop(time, node, seq, reason, **detail)

    def ncu_begin(self, time, node, kind, seq, service):
        for sub in self.subscribers:
            sub.ncu_begin(time, node, kind, seq, service)

    def ncu_end(self, time, node, kind, handler_s):
        for sub in self.subscribers:
            sub.ncu_end(time, node, kind, handler_s)

    def queue(self, time, node, seq, link, occupancy, stalled):
        for sub in self.subscribers:
            sub.queue(time, node, seq, link, occupancy, stalled)

    def release(self, time, link, waited):
        for sub in self.subscribers:
            sub.release(time, link, waited)


def compose(subscribers: Iterable[Sink]) -> Sink | None:
    """The sink for ``subscribers``: ``None``, the one, or a fan-out."""
    subs = tuple(subscribers)
    if not subs:
        return None
    if len(subs) == 1:
        return subs[0]
    return FanOut(subs)


_AMBIENT: list[Sink] = []


def ambient() -> tuple[Sink, ...]:
    """The process-wide subscribers, in subscription order."""
    return tuple(_AMBIENT)


def subscribe_ambient(sub: Sink) -> None:
    """Join ``sub`` to every network built or reset from now on."""
    if sub not in _AMBIENT:
        _AMBIENT.append(sub)


def unsubscribe_ambient(sub: Sink) -> None:
    """Stop joining ``sub`` to new networks (idempotent)."""
    if sub in _AMBIENT:
        _AMBIENT.remove(sub)
