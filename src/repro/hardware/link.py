"""Bidirectional communication links.

A link connects two switching subsystems.  Each side knows the link
under its own local IDs (normal + copy).  Links are either *active* —
delivering every message in finite time, FIFO per direction — or
*inactive* — delivering nothing (the paper's "changing topology" model,
Section 2).  Packets forwarded onto an inactive link are silently lost,
which is exactly the failure mode that breaks the DFS broadcast and
motivates the branching-paths broadcast of Section 3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from ..sim.trace import TraceKind


class LinkFlowState:
    """Per-direction flow-control state (owned by the sending side).

    One instance exists per direction of a flow-controlled link.  It
    tracks the credit window (``in_flight`` packets accepted onto the
    link stage but not yet drained at the far side), the serialisation
    frontier (``busy_until``) and the sender-side stall queue
    (``pending``), plus monotonic telemetry the observability layer and
    the network-calculus monitor read: cumulative arrivals/transmits/
    stalls, total stalled simulated time, and the high watermarks of
    occupancy and per-packet link delay.
    """

    __slots__ = (
        "sender",
        "rate",
        "interval",
        "buffer",
        "busy_until",
        "in_flight",
        "pending",
        "arrivals",
        "xmits",
        "stalls",
        "stall_time",
        "max_occupancy",
        "max_delay",
    )

    def __init__(self, sender: Any, rate: float | None, buffer: int | None) -> None:
        self.sender = sender
        self.rate = rate
        #: Serialisation time per packet (0.0 = infinite bandwidth).
        self.interval = (1.0 / rate) if rate is not None else 0.0
        self.buffer = buffer
        self.clear()

    def clear(self) -> None:
        """Zero all dynamic state (configuration survives)."""
        self.busy_until = 0.0
        self.in_flight = 0
        self.pending: deque[tuple[Any, Any, float]] = deque()
        self.arrivals = 0
        self.xmits = 0
        self.stalls = 0
        self.stall_time = 0.0
        self.max_occupancy = 0
        self.max_delay = 0.0

    @property
    def occupancy(self) -> int:
        """Packets currently held by this direction (stalled + in flight)."""
        return len(self.pending) + self.in_flight


@dataclass(frozen=True)
class LinkInfo:
    """One node's view of an adjacent link.

    This is the unit of "local topology" in the paper: the node at
    ``u`` knows the neighbour's identity and the link's IDs (both
    sides — the data-link initialisation exchanges them) and the
    operational state.  ``LinkInfo`` values are immutable snapshots;
    protocols store and ship them inside topology messages.
    """

    u: Any
    v: Any
    normal_at_u: int
    copy_at_u: int
    normal_at_v: int
    copy_at_v: int
    active: bool = True

    @cached_property
    def key(self) -> tuple[Any, Any]:
        """Canonical undirected identifier of the link.

        Cached: the ``repr`` comparison runs once per snapshot, not per
        use (``cached_property`` writes straight into ``__dict__``, so
        it coexists with ``frozen=True``).
        """
        return (self.u, self.v) if repr(self.u) <= repr(self.v) else (self.v, self.u)

    def reversed(self) -> "LinkInfo":
        """The same link as seen from the other endpoint."""
        return LinkInfo(
            u=self.v,
            v=self.u,
            normal_at_u=self.normal_at_v,
            copy_at_u=self.copy_at_v,
            normal_at_v=self.normal_at_u,
            copy_at_v=self.copy_at_u,
            active=self.active,
        )


class Link:
    """The mutable link object owned by the network.

    Memory layout: the per-endpoint ID pairs and the per-direction FIFO
    watermarks are scalar slots, not dicts — at 10⁴–10⁵ links the two
    dicts the old layout carried per link dominated per-link memory.
    Endpoint dispatch is two equality compares instead of a dict lookup,
    which is also faster on the ``fifo_arrival`` hot path.
    """

    __slots__ = (
        "node_u",
        "node_v",
        "active",
        "key",
        "fc",
        "_u_id",
        "_v_id",
        "_normal_u",
        "_copy_u",
        "_normal_v",
        "_copy_v",
        "_arrival_u",
        "_arrival_v",
    )

    def __init__(
        self,
        node_u: Any,
        node_v: Any,
        *,
        normal_at_u: int,
        copy_at_u: int,
        normal_at_v: int,
        copy_at_v: int,
        key: tuple[Any, Any] | None = None,
    ) -> None:
        self.node_u = node_u
        self.node_v = node_v
        self._u_id = node_u.node_id
        self._v_id = node_v.node_id
        self._normal_u = normal_at_u
        self._copy_u = copy_at_u
        self._normal_v = normal_at_v
        self._copy_v = copy_at_v
        self.active = True
        #: Canonical undirected identifier ``(min, max)`` of endpoints.
        #: Computed once here — the forwarding hot path reads it per hop
        #: (delay model, metrics, traces) and the old per-access ``repr``
        #: comparison was measurable.  Bulk builders that already hold
        #: the repr-sorted node order pass ``key`` precomputed.
        if key is None:
            a, b = node_u.node_id, node_v.node_id
            key = (a, b) if repr(a) <= repr(b) else (b, a)
        self.key = key
        #: Per-direction FIFO watermark: latest arrival time already
        #: promised on this link, one slot per *sending* endpoint.
        self._arrival_u = 0.0
        self._arrival_v = 0.0
        #: Flow control is off by default (``None``) so the free-hardware
        #: model — and every golden trace — is untouched.  When enabled,
        #: maps sending node id -> :class:`LinkFlowState`.
        self.fc = None

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def other(self, node_id: Any) -> Any:
        """The node object at the far end from ``node_id``."""
        if node_id == self.node_u.node_id:
            return self.node_v
        if node_id == self.node_v.node_id:
            return self.node_u
        raise KeyError(f"node {node_id} is not an endpoint of link {self.key}")

    def ids_at(self, node_id: Any) -> tuple[int, int]:
        """``(normal, copy)`` IDs of this link at the given endpoint."""
        if node_id == self._u_id:
            return (self._normal_u, self._copy_u)
        if node_id == self._v_id:
            return (self._normal_v, self._copy_v)
        raise KeyError(f"node {node_id} is not an endpoint of link {self.key}")

    def info_at(self, node_id: Any) -> LinkInfo:
        """The :class:`LinkInfo` snapshot as seen from ``node_id``."""
        if node_id == self._u_id:
            return LinkInfo(
                u=self._u_id,
                v=self._v_id,
                normal_at_u=self._normal_u,
                copy_at_u=self._copy_u,
                normal_at_v=self._normal_v,
                copy_at_v=self._copy_v,
                active=self.active,
            )
        if node_id == self._v_id:
            return LinkInfo(
                u=self._v_id,
                v=self._u_id,
                normal_at_u=self._normal_v,
                copy_at_u=self._copy_v,
                normal_at_v=self._normal_u,
                copy_at_v=self._copy_u,
                active=self.active,
            )
        raise KeyError(f"node {node_id} is not an endpoint of link {self.key}")

    # ------------------------------------------------------------------
    # Substrate reuse
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore the pristine post-build state: active, FIFO idle.

        IDs, endpoints and ``key`` are build products and stay put —
        that is the whole point of substrate reuse (see
        :meth:`repro.network.network.Network.reset`).
        """
        self.active = True
        self._arrival_u = 0.0
        self._arrival_v = 0.0
        if self.fc is not None:
            for state in self.fc.values():
                state.clear()

    # ------------------------------------------------------------------
    # FIFO bookkeeping
    # ------------------------------------------------------------------
    def fifo_arrival(self, sender_id: Any, proposed: float) -> float:
        """Clamp an arrival time so per-direction FIFO order holds.

        With fixed delays this is a no-op; with random delays it
        prevents a later packet overtaking an earlier one, which the
        model forbids (FIFO links, required in Section 5).
        """
        if sender_id == self._u_id:
            last = self._arrival_u
            arrival = proposed if proposed >= last else last
            self._arrival_u = arrival
        else:
            last = self._arrival_v
            arrival = proposed if proposed >= last else last
            self._arrival_v = arrival
        return arrival

    # ------------------------------------------------------------------
    # Credit-based flow control
    # ------------------------------------------------------------------
    def set_flow_control(
        self, *, rate: float | None = None, buffer: int | None = None
    ) -> None:
        """Configure (or clear) capacity limits on this link.

        ``rate`` is the per-direction bandwidth in packets per simulated
        time unit (each transmit occupies the link for ``1/rate``);
        ``buffer`` is the per-direction credit window — at most that
        many packets may be in flight before the sender stalls, and a
        credit returns when the far side drains a packet.  Both default
        to ``None`` (unlimited); with both ``None`` flow control is
        removed entirely and the link reverts to the free-hardware fast
        path.
        """
        if rate is not None and rate <= 0:
            raise ValueError(f"link rate must be positive, got {rate!r}")
        if buffer is not None and buffer < 1:
            raise ValueError(f"link buffer must be >= 1, got {buffer!r}")
        if rate is None and buffer is None:
            self.fc = None
            return
        u_id = self.node_u.node_id
        v_id = self.node_v.node_id
        self.fc = {
            u_id: LinkFlowState(u_id, rate, buffer),
            v_id: LinkFlowState(v_id, rate, buffer),
        }

    def fc_forward(self, sender_id: Any, packet: Any, port: tuple) -> None:
        """Capacity-aware forward: stall on exhausted credits, else send.

        Called by the switching subsystem in place of the free-hardware
        schedule when :attr:`fc` is set.  ``port`` is the subsystem's
        port tuple ``(link, far_id, receiving_normal, deliver)``.
        """
        state = self.fc[sender_id]
        state.arrivals += 1
        net = self.node_u.net
        now = net.scheduler.now
        buffer = state.buffer
        if buffer is not None and state.in_flight >= buffer:
            # No credit: queue at the sender until the far side drains.
            state.stalls += 1
            state.pending.append((packet, port, now))
            occupancy = len(state.pending) + state.in_flight
            if occupancy > state.max_occupancy:
                state.max_occupancy = occupancy
            probe = net.probe
            if probe is not None:
                probe.link_queue(self.key, occupancy, now)
            perf = net.perf
            if perf is not None:
                perf.link_stalls += 1
                perf.link_occupancy.add(occupancy)
            trace = net.trace
            if trace.enabled:
                trace.record(now, TraceKind.QUEUE, sender_id,
                             packet=packet.seq, link=self.key,
                             occupancy=occupancy, stalled=len(state.pending))
            return
        self._fc_transmit(state, packet, port, now)

    def _fc_transmit(self, state: LinkFlowState, packet: Any, port: tuple,
                     requested_at: float) -> None:
        """Consume a credit and put ``packet`` on the wire."""
        net = self.node_u.net
        sender_id = state.sender
        if not self.active:
            net.metrics.count_drop("inactive_link")
            trace = net.trace
            if trace.enabled:
                trace.record(net.scheduler.now, TraceKind.PACKET_DROPPED,
                             sender_id, packet=packet.seq,
                             reason="inactive_link", link=self.key)
            return
        now = net.scheduler.now
        delay = net.delays.hardware_delay(self.key, packet.seq)
        depart = now
        if state.interval:
            if state.busy_until > depart:
                depart = state.busy_until
            state.busy_until = depart + state.interval
        arrival = self.fifo_arrival(sender_id, depart + delay)
        if self.fc is None:
            # Draining a queue left behind by removed flow control: the
            # watermark just moved past what cut-through legs planned
            # for this link, so they go back to per-hop timing here.
            net._split_legs(self)
        state.in_flight += 1
        state.xmits += 1
        occupancy = len(state.pending) + state.in_flight
        if occupancy > state.max_occupancy:
            state.max_occupancy = occupancy
        traverse = arrival - requested_at
        if traverse > state.max_delay:
            state.max_delay = traverse
        packet.hops += 1
        packet._reverse.append(port[2])
        net.metrics.count_hop(self.key)
        probe = net.probe
        if probe is not None:
            probe.hop(self.key, now)
            probe.link_queue(self.key, occupancy, now)
        perf = net.perf
        if perf is not None:
            perf.ss_hops += 1
            perf.link_xmits += 1
            perf.link_occupancy.add(occupancy)
        trace = net.trace
        if trace.enabled:
            trace.record(now, TraceKind.PACKET_HOP, sender_id,
                         packet=packet.seq, link=self.key, to=port[1])
        net.scheduler.schedule_at(arrival, self._fc_arrive, priority=0,
                                  tag="hop", args=(packet, port, state))

    def _fc_arrive(self, packet: Any, port: tuple, state: LinkFlowState) -> None:
        """Far-side drain: deliver, return the credit, wake one waiter."""
        state.in_flight -= 1
        port[3](packet, self)
        if state.pending:
            waiter, waiter_port, requested_at = state.pending.popleft()
            net = self.node_u.net
            now = net.scheduler.now
            waited = now - requested_at
            state.stall_time += waited
            probe = net.probe
            if probe is not None:
                probe.link_stall(self.key, waited, now)
            self._fc_transmit(state, waiter, waiter_port, requested_at)
