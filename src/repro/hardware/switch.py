"""The switching subsystem (SS): the paper's "hardware".

An SS receives a packet ``xy`` over one of its incident links (or from
its own NCU), strips the leading ID ``x`` and outputs ``y`` over every
incident link whose ID set contains ``x``:

* a **normal** link ID matches exactly one outgoing link;
* a **copy** link ID matches that link *and* the NCU link (the NCU link
  holds all copy IDs), realising the selective copy;
* the **NCU ID** (0) matches only the NCU link — the packet terminates
  here.

Everything in this module runs at hardware speed: the only delays are
the per-hop hardware delay ``C`` charged when a packet is forwarded
over a link.  No system calls are counted here.

Hot path
--------
``receive`` → ``_forward`` → (scheduler) → ``_deliver`` → ``receive`` is
the forwarding cycle and must be allocation-free in steady state:

* **cut-through**: when the delay model's ``fixed_hardware_delay`` is
  a number, ``_forward`` keeps walking the port tables through every
  following *pure transit* hop (a normal link ID over an active link
  without flow control) and schedules one event, a :class:`Leg`, for
  the whole run.  The walk stops where anything but switching happens:
  a copy to the NCU, a group, the end of the header, a down link or a
  flow-controlled link.  A leg with no walked hop is the plain per-hop
  ``_deliver`` event, so there is one code path.  The walked hops are
  accounted when the leg lands — hop count, reverse ANR, per-link
  counts, FIFO watermarks, header cursor and one time-stamped sink
  ``hop`` per walked hop — and a link change while the leg flies
  splits it back to per-hop (:meth:`Leg.split`);
* the header is consumed by advancing ``packet.header_pos``, never by
  slicing (O(1) per hop instead of O(remaining header));
* the ID-set match is one dict lookup into a **port table** built at
  attach time, whose entries pre-resolve everything a hop needs (link,
  far node ID, the receiving side's normal ID, the far SS's bound
  ``_deliver``), so no ``other()`` / ``ids_at()`` / ``repr`` work is
  redone per packet;
* an event is scheduled as a long-lived callable (the far side's bound
  ``_deliver``, or ``Leg.land``) plus ``args`` — no per-hop closure;
* observation is one ``net.sink`` load per function and one typed call
  per fact (:mod:`repro.sim.sink`); with nothing observing, a site
  costs one attribute load and one identity check, not a kwargs dict;
* capacity limits are opt-in: the free-hardware path pays one
  ``link.fc is not None`` check per hop, and flow-controlled links
  divert to :meth:`repro.hardware.link.Link.fc_forward`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .ids import NCU_ID, LinkIdSpace
from .link import Link
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

#: One outbound port, pre-resolved at attach time:
#: ``(link, far node id, normal ID at the far side, far SS._deliver)``.
Port = tuple[Link, object, int, "object"]


#: Shared empty multicast-group table.  Almost no node ever installs a
#: group, so a per-SS empty dict is pure waste at 10⁴–10⁵ nodes; the
#: hot path's ``next_id in self._groups`` works identically on the
#: shared sentinel, and :meth:`SwitchingSubsystem.install_group` swaps
#: in a private dict on first use (copy-on-write).
_NO_GROUPS: dict[int, tuple[tuple[Link, ...], bool]] = {}


class SwitchingSubsystem:
    """Per-node hardware switch with the paper's ID-set semantics."""

    __slots__ = (
        "_node",
        "_id_space",
        "_port_by_id",
        "_port_by_link",
        "_copy_flag",
        "_groups",
        "_deliver_cb",
    )

    def __init__(self, node: "Node", id_space: LinkIdSpace) -> None:
        self._node = node
        self._id_space = id_space
        #: Both the normal and the copy ID of a link map to its port.
        self._port_by_id: dict[int, Port] = {}
        #: Link object -> port, for multicast groups (links hash by id).
        #: Lazily derived from ``_port_by_id`` on first group use — the
        #: overwhelming majority of SSs never install a group, and a
        #: per-SS dict is hundreds of bytes per node at fabric scale.
        self._port_by_link: dict[Link, Port] | None = None
        #: The copy-ID bit, cached as a plain int: ``id & _copy_flag``
        #: on a known port ID decides NCU delivery, replacing the old
        #: per-SS set of copy IDs (one more per-node container gone).
        self._copy_flag = id_space.flag
        #: Installed multicast groups: id -> (member links, copy to NCU).
        #: Part of the "more powerful hardware" extension; the shared
        #: empty sentinel until software installs one (``install_group``).
        self._groups = _NO_GROUPS
        #: The one bound ``_deliver`` every neighbouring port entry
        #: shares.  Binding it per port (``other.ss._deliver``) allocated
        #: one method object per link direction — measurable memory and
        #: build time at fabric scale.
        self._deliver_cb = self._deliver

    @property
    def id_space(self) -> LinkIdSpace:
        """The ID scheme shared by the whole network."""
        return self._id_space

    def attach_link(self, link: Link) -> None:
        """Register a link's IDs (called once per link at build time)."""
        normal, copy = link.ids_at(self._node.node_id)
        for link_id in (normal, copy):
            if link_id in self._port_by_id:
                raise ValueError(
                    f"duplicate link ID {link_id} at node {self._node.node_id}"
                )
        other = link.other(self._node.node_id)
        receiving_normal, _ = link.ids_at(other.node_id)
        port: Port = (link, other.node_id, receiving_normal, other.ss._deliver_cb)
        self._port_by_id[normal] = port
        self._port_by_id[copy] = port
        self._port_by_link = None

    def build_ports(self) -> None:
        """Bulk-(re)build the port table from the node's registered links.

        One pass over ``node.links``, no per-link duplicate checks: the
        network builder hands this SS a simple graph with IDs assigned
        uniquely by construction, so the incremental validation in
        :meth:`attach_link` would only re-prove invariants the builder
        already guarantees.  Replaces the table wholesale.
        """
        me = self._node.node_id
        port_by_id: dict[int, Port] = {}
        for link in self._node.links.values():
            if me == link._u_id:
                normal, copy = link._normal_u, link._copy_u
                other = link.node_v
                receiving_normal = link._normal_v
            else:
                normal, copy = link._normal_v, link._copy_v
                other = link.node_u
                receiving_normal = link._normal_u
            port: Port = (link, other.node_id, receiving_normal, other.ss._deliver_cb)
            port_by_id[normal] = port
            port_by_id[copy] = port
        self._port_by_id = port_by_id
        self._port_by_link = None

    def _link_ports(self) -> dict[Link, Port]:
        """Link -> port map, built on first use and cached.

        ``_port_by_id`` holds each port twice (normal and copy ID) in
        per-link build order; deduplicating by first occurrence yields
        the same insertion order the eager map had.
        """
        ports = self._port_by_link
        if ports is None:
            ports = {port[0]: port for port in self._port_by_id.values()}
            self._port_by_link = ports
        return ports

    def reset(self) -> None:
        """Drop run-time hardware state (installed multicast groups).

        The port table survives: it is pure build product, derived only
        from the topology and the ID assignment.  Part of the
        substrate-reuse contract (see
        :meth:`repro.network.network.Network.reset`).
        """
        self._groups = _NO_GROUPS

    # ------------------------------------------------------------------
    # Multicast groups (hardware extension)
    # ------------------------------------------------------------------
    def install_group(
        self, group_id: int, links: tuple[Link, ...], *, to_ncu: bool = True
    ) -> None:
        """Install a multicast group ID at this SS.

        A packet whose next ID is ``group_id`` is replicated in hardware
        over every member link — with the group ID *re-prepended*, so
        the tree forwards itself — and, when ``to_ncu`` is set, a copy
        of the remainder is delivered to the local NCU.  Installing is a
        software action (the setup protocol pays system calls for it);
        once installed, a network-wide multicast costs the sender one
        injection.

        Group IDs must come from the group range (above all normal and
        copy IDs) so they can never shadow point-to-point routing.
        """
        if group_id < self._id_space.group_base:
            raise ValueError(
                f"{group_id} is not a group ID (group range starts at "
                f"{self._id_space.group_base})"
            )
        if self._groups is _NO_GROUPS:
            self._groups = {}
        self._groups[group_id] = (tuple(links), to_ncu)

    def uninstall_group(self, group_id: int) -> None:
        """Remove a previously installed group (idempotent)."""
        self._groups.pop(group_id, None)

    def _receive_group(self, packet: Packet, group_id: int) -> None:
        net = self._node.net
        me = self._node.node_id
        links, to_ncu = self._groups[group_id]
        sink = net.sink
        if to_ncu:
            copy = packet.delivery_copy()
            net.metrics.count_copy(me)
            if sink is not None:
                sink.copy(net.scheduler.now, me, packet.seq, False, group_id)
            self._node.ncu.enqueue_packet(copy)
        # The dmax guard doubles as cycle protection: a mis-installed
        # cyclic group drops its packets instead of replicating forever.
        if packet.hops >= self._node.net.dmax:
            if links:
                net.metrics.count_drop("group_hop_limit")
                if sink is not None:
                    sink.drop(net.scheduler.now, me, packet.seq, "group_hop_limit")
            return
        remainder = packet.header[packet.header_pos:]
        for link in links:
            branch = packet.delivery_copy()
            branch.header = (group_id,) + remainder
            branch.header_pos = 0
            self._forward(branch, self._link_ports()[link])

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, via_link: Link | None) -> None:
        """Process a packet arriving over ``via_link`` (None = local NCU).

        Consumes the leading header ID and dispatches according to the
        ID-set matching rule.  Unroutable or header-exhausted packets
        are dropped (and traced) — the hardware has no error channel.
        """
        net = self._node.net
        me = self._node.node_id
        header = packet.header
        pos = packet.header_pos
        sink = net.sink
        if pos >= len(header):
            net.metrics.count_drop("header_exhausted")
            if sink is not None:
                sink.drop(net.scheduler.now, me, packet.seq, "header_exhausted")
            return

        next_id = header[pos]
        packet.header_pos = pos + 1

        if next_id in self._groups:
            self._receive_group(packet, next_id)
            return

        port = self._port_by_id.get(next_id)
        # A copy ID is a known port ID with the copy bit set; testing
        # the bit on the already-fetched port replaces the per-SS set
        # of copy IDs (identical semantics: normal IDs never carry the
        # bit, group IDs are never in the port table).
        to_ncu = next_id == NCU_ID or (port is not None and next_id & self._copy_flag)

        if to_ncu:
            copy = packet.delivery_copy()
            net.metrics.count_copy(me)
            if sink is not None:
                sink.copy(net.scheduler.now, me, packet.seq, port is None, None)
            self._node.ncu.enqueue_packet(copy)

        if port is not None:
            self._forward(packet, port)
        elif not to_ncu:
            net.metrics.count_drop("unroutable_id")
            if sink is not None:
                sink.drop(
                    net.scheduler.now, me, packet.seq, "unroutable_id", id=next_id
                )

    def _forward(self, packet: Packet, port: Port) -> None:
        """Send the packet onward over one port, charging the C delay.

        Under a constant hardware delay the packet then cuts through
        every following pure transit hop, and one event carries the
        whole run (see :class:`Leg`).  The first hop is accounted here;
        the rest when the leg lands.
        """
        net = self._node.net
        me = self._node.node_id
        link, other_id, receiving_normal, deliver = port
        sink = net.sink
        if not link.active:
            net.metrics.count_drop("inactive_link")
            if sink is not None:
                sink.drop(
                    net.scheduler.now, me, packet.seq, "inactive_link", link=link.key
                )
            return

        fc = link.fc
        if fc is not None:
            link.fc_forward(me, packet, port)
            return

        now = net.scheduler.now
        delays = net.delays
        delay = delays.hardware_delay(link.key, packet.seq)
        arrival = link.fifo_arrival(me, now + delay)
        packet.hops += 1
        packet._reverse.append(receiving_normal)
        net.metrics.count_hop(link.key)
        if sink is not None:
            sink.hop(now, me, packet.seq, link.key, other_id)

        # Walk the port tables through every pure transit hop: a normal
        # link ID (no copy bit; the NCU ID and group IDs are never in a
        # port table) over an active link without flow control.  Each
        # walked hop departs when the previous one arrives, clamped to
        # its direction's FIFO watermark exactly as ``fifo_arrival``
        # would clamp it then.  The first ID is screened before the
        # delay model is asked, so forwards that end in a copy or at
        # the NCU pay almost nothing for the walk.
        header = packet.header
        pos = packet.header_pos
        end = len(header)
        flag = self._copy_flag
        step = None
        if pos < end and header[pos] and not header[pos] & flag:
            step = delays.fixed_hardware_delay
        if step is not None:
            port_by_id = deliver.__self__._port_by_id
            here = other_id
            ports = times = None
            t = arrival
            while pos < end:
                next_id = header[pos]
                if next_id & flag:
                    break
                hop = port_by_id.get(next_id)
                if hop is None:
                    break
                hop_link = hop[0]
                if not hop_link.active or hop_link.fc is not None:
                    break
                if here == hop_link._u_id:
                    watermark = hop_link._arrival_u
                else:
                    watermark = hop_link._arrival_v
                t_next = t + step
                if watermark > t_next:
                    t_next = watermark
                if ports is None:
                    ports = [port, hop]
                    times = [now, t, t_next]
                else:
                    ports.append(hop)
                    times.append(t_next)
                t = t_next
                here = hop[1]
                port_by_id = hop[3].__self__._port_by_id
                pos += 1
            if ports is not None:
                leg = Leg(net, packet, ports, times)
                net._legs[leg] = None
                leg.event = net.scheduler.schedule_at(t, Leg.land, 0, "hop", (leg,))
                return
        net.scheduler.schedule_at(arrival, deliver, 0, "hop", (packet, link))

    def _deliver(self, packet: Packet, link: Link) -> None:
        """Arrival at this side of ``link``; the scheduled hop payload.

        A link that went down while the packet was in flight loses it.
        """
        if not link.active:
            net = self._node.net
            net.metrics.count_drop("inactive_link")
            sink = net.sink
            if sink is not None:
                sink.drop(
                    net.scheduler.now,
                    self._node.node_id,
                    packet.seq,
                    "inactive_link",
                    link=link.key,
                )
            return
        self.receive(packet, link)


class Leg:
    """A run of hops flown as one scheduled event (cut-through).

    ``ports[0]`` is the hop the forwarding SS accounted at departure;
    ``ports[1:]`` are the pure transit hops after it.  ``times[k]`` is
    hop ``k``'s departure and ``times[k + 1]`` its arrival, so
    ``times[-1]`` is when the leg lands.  The walked hops are committed
    — header cursor, hop count, reverse ANR, per-link counts, FIFO
    watermark and a sink ``hop`` stamped with each hop's departure —
    when the leg lands or when a link change splits
    it, so the paper's accounting matches one event per hop.

    What differs is the event stream: fewer events, and the landing
    event is ordered among same-instant events as if pushed at the
    leg's departure.  Simultaneous arrivals at one busy NCU may
    therefore be served in another order; counts, final time and
    delivery times do not move.  The walk's timing is fixed when the
    leg departs, so a delay model swapped in mid-flight applies from
    the next forward on.

    While in flight a leg sits in its network's ``_legs`` registry (an
    insertion-ordered dict, so splits happen in a deterministic order).
    """

    __slots__ = ("net", "packet", "ports", "times", "event")

    def __init__(
        self, net: Any, packet: Packet, ports: list[Port], times: list[float]
    ) -> None:
        self.net = net
        self.packet = packet
        self.ports = ports
        self.times = times
        self.event: Any = None

    def land(self) -> None:
        """The leg's event: commit every walked hop, then arrive."""
        del self.net._legs[self]
        ports = self.ports
        self._commit(len(ports))
        link, _, _, deliver = ports[-1]
        deliver(self.packet, link)

    def split(self, link: Link) -> None:
        """``link`` changed now: fall back to per-hop if the leg cares.

        The hop in flight is the last one that departed strictly before
        now (the first hop always has).  If ``link`` is that hop or a
        later one, the leg's event is cancelled, every departed hop (the
        one in flight included) is committed, and the in-flight hop's
        arrival becomes an ordinary ``_deliver`` event, so forwarding
        from there on sees the change.
        """
        net = self.net
        now = net.scheduler.now
        ports, times = self.ports, self.times
        flying = len(ports) - 1
        while flying > 0 and times[flying] >= now:
            flying -= 1
        if not any(port[0] is link for port in ports[flying:]):
            return
        self.event.cancel()
        del net._legs[self]
        self._commit(flying + 1)
        hop_link, _, _, deliver = ports[flying]
        net.scheduler.schedule_at(
            times[flying + 1], deliver, 0, "hop", (self.packet, hop_link)
        )

    def _commit(self, upto: int) -> None:
        """Account walked hops ``1 .. upto - 1`` as ``_forward`` would."""
        if upto <= 1:
            return
        net = self.net
        packet = self.packet
        ports, times = self.ports, self.times
        hops = ports[1:upto]
        keys = [hop[0].key for hop in hops]
        net.metrics.count_hops(keys)
        packet._reverse.extend([hop[2] for hop in hops])
        walked = upto - 1
        packet.hops += walked
        packet.header_pos += walked
        # FIFO watermarks, kept as a max, on the direction leaving ``here``.
        here = ports[0][1]
        for (link, other_id, _, _), arrival in zip(hops, times[2 : upto + 1]):
            if here == link._u_id:
                if arrival > link._arrival_u:
                    link._arrival_u = arrival
            elif arrival > link._arrival_v:
                link._arrival_v = arrival
            here = other_id
        sink = net.sink
        if sink is not None:
            seq = packet.seq
            here = ports[0][1]
            for key, (_, other_id, _, _), departed in zip(keys, hops, times[1:upto]):
                sink.hop(departed, here, seq, key, other_id)
                here = other_id
