"""The network: nodes, links, and the simulation harness around them.

``Network`` assembles the hardware substrate from a graph, owns the
scheduler / delay model / metrics / trace, attaches protocols, injects
START signals, and applies link failures with data-link notification.

A note on ``dmax``: the paper bounds the length of hardware paths and
suggests the network diameter or the number of nodes as natural values.
The default here is ``2 * n + 2`` because the leader election's return
routes concatenate two linear-length ANRs (Section 4.1); callers may
tighten it to the diameter to study the restriction.
"""

from __future__ import annotations

import gc
import itertools
from typing import Any, Iterable, Mapping

import networkx as nx

from ..hardware.ids import LinkIdSpace
from ..hardware.link import Link
from ..hardware.ncu import Job, JobKind
from ..hardware.node import Node
from ..metrics.accounting import MetricsCollector
from ..sim.delays import DelayModel, limiting_model
from ..sim.errors import ProtocolError
from ..sim.scheduler import Scheduler
from ..sim.trace import Trace, TraceKind
from .datalink import DataLinkMonitor
from .protocol import ProtocolFactory


class Network:
    """A simulated fast network with SS/NCU nodes."""

    #: Perf-counter registry (see :mod:`repro.obs.perf`).  A class
    #: attribute so process-global activation reaches every network —
    #: including those built inside campaign task functions — and
    #: survives :meth:`reset`; a per-network install shadows it with an
    #: instance attribute.  ``None`` means dormant: the SS/NCU hot
    #: paths then pay one attribute load + identity check per hook.
    perf: Any = None

    def __init__(
        self,
        graph: nx.Graph,
        *,
        delays: DelayModel | None = None,
        dmax: int | None = None,
        trace: bool = False,
        trace_capacity: int | None = None,
        datalink_delay: float = 0.0,
        copy_graph: bool = True,
    ) -> None:
        """Assemble the substrate from ``graph``.

        ``copy_graph=False`` takes ownership of ``graph`` instead of
        copying it — the bulk build path (:mod:`repro.network.builder`)
        passes graphs it constructed privately, and at 10⁴–10⁵ nodes
        the defensive ``nx.Graph(graph)`` copy is a measurable share of
        both build time and retained memory.  Callers passing
        ``copy_graph=False`` must not mutate the graph afterwards.
        """
        if graph.number_of_nodes() == 0:
            raise ValueError("a network needs at least one node")

        # Pause the cyclic GC for the whole build (restored in the
        # ``finally`` below).  Construction allocates O(n + m) objects
        # that are all retained, so collections triggered mid-build can
        # never free anything — they only scan and promote, and at
        # 10⁴–10⁵ nodes those pauses dominate the build itself.  The
        # standard bulk-load idiom; prior GC state is preserved.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._build(
                graph,
                delays=delays,
                dmax=dmax,
                trace=trace,
                trace_capacity=trace_capacity,
                datalink_delay=datalink_delay,
                copy_graph=copy_graph,
            )
        finally:
            if gc_was_enabled:
                gc.enable()

    def _build(
        self,
        graph: nx.Graph,
        *,
        delays: DelayModel | None,
        dmax: int | None,
        trace: bool,
        trace_capacity: int | None,
        datalink_delay: float,
        copy_graph: bool,
    ) -> None:
        self.graph = nx.Graph(graph) if copy_graph else graph
        self.scheduler = Scheduler()
        self.delays = delays if delays is not None else limiting_model()
        self.metrics = MetricsCollector()
        self.trace = Trace(enabled=trace, capacity=trace_capacity)
        self.dmax = dmax if dmax is not None else 2 * graph.number_of_nodes() + 2
        self.outputs: dict[Any, dict[str, Any]] = {}
        #: Observability probe (see :mod:`repro.obs.live`).  ``None``
        #: means disabled; the NCU and SS hot paths then pay one
        #: attribute load + identity check per hook site.  Install via
        #: ``LiveStats.install(net)`` rather than assigning directly.
        self.probe: Any = None

        self._packet_seq = itertools.count(1)
        self._group_seq = itertools.count(0)
        #: Cut-through legs in flight (see
        #: :class:`repro.hardware.switch.Leg`): a link change splits
        #: every leg that still has to cross the link.
        self._legs: dict[Any, None] = {}
        self._datalink = DataLinkMonitor(self, delay=datalink_delay)
        #: Remembered by :meth:`attach` so crashed nodes can be
        #: restarted with fresh protocol instances.
        self._protocol_factory: ProtocolFactory | None = None

        #: Bumped whenever a link changes state; the derived-view caches
        #: (``active_graph`` / ``adjacency`` / ``diameter``) key on it.
        self._topology_version = 0
        self._active_graph_cache: tuple[int, nx.Graph] | None = None
        self._adjacency_cache: tuple[int, dict[Any, tuple[Any, ...]]] | None = None
        self._diameter_cache: tuple[int, int] | None = None

        max_degree = max((d for _, d in self.graph.degree), default=1)
        id_space = LinkIdSpace(capacity=max(max_degree, 1))
        self.id_space = id_space

        # One fused pass over nodes and edges.  Everything below is the
        # same construction the incremental path (``add_link`` +
        # ``build_ports``) performs — same repr-sorted orders, same ID
        # assignment, same dict insertion orders, hence byte-identical
        # golden traces — with the per-edge method calls inlined and the
        # port tables filled as the links are created instead of in a
        # second sweep.  At 10⁴–10⁵ nodes the call overhead was the
        # build-time wall (see docs/PERFORMANCE.md § Construction at
        # scale).
        #
        # The repr of every node is needed many times below (node order,
        # edge order, link keys); compute each exactly once.
        graph_nodes = self.graph.nodes
        reprs = dict(zip(graph_nodes, map(repr, graph_nodes)))
        self.nodes: dict[Any, Node] = {
            node_id: Node(node_id, self, id_space)
            for node_id in sorted(reprs, key=reprs.__getitem__)
        }
        self.links: dict[tuple[Any, Any], Link] = {}
        links = self.links
        nodes = self.nodes
        link_index: dict[Any, int] = dict.fromkeys(nodes, 0)
        flag = id_space.flag
        link_new = Link.__new__
        # Decorate-sort-undecorate beats ``sorted(key=...)`` here: the
        # list comp builds the sort keys at comprehension speed instead
        # of one lambda frame per edge, and the unique index tie-break
        # reproduces the stable keyed sort exactly without ever
        # comparing node objects.
        edge_list = list(self.graph.edges)
        decorated = [
            (reprs[u], reprs[v], i) for i, (u, v) in enumerate(edge_list)
        ]
        decorated.sort()
        for repr_u, repr_v, i in decorated:
            u, v = edge_list[i]
            if u == v:
                raise ValueError("self-loops are not supported")
            iu, iv = link_index[u], link_index[v]
            link_index[u] = iu + 1
            link_index[v] = iv + 1
            # Normal ID = local index + 1 (0 is the NCU); the range
            # check in ``LinkIdSpace.normal_id`` is redundant here
            # because ``capacity`` is the maximum degree by
            # construction.
            normal_u = iu + 1
            normal_v = iv + 1
            node_u = nodes[u]
            node_v = nodes[v]
            # Hand-rolled Link construction (the builder's hot
            # allocation), mirroring ``Link.__init__`` field for field.
            link = link_new(Link)
            link.node_u = node_u
            link.node_v = node_v
            link._u_id = u
            link._v_id = v
            link._normal_u = normal_u
            link._copy_u = flag | normal_u
            link._normal_v = normal_v
            link._copy_v = flag | normal_v
            link.active = True
            link.key = key = (u, v) if repr_u <= repr_v else (v, u)
            link._arrival_u = 0.0
            link._arrival_v = 0.0
            link.fc = None
            # ``add_link`` without the parallel-edge check (nx.Graph is
            # simple by construction) ...
            node_u.links[v] = link
            node_v.links[u] = link
            links[key] = link
            # ... and the port-table entries ``build_ports`` would
            # derive from the same data in a second pass.
            ss_u = node_u.ss
            ss_v = node_v.ss
            port_u = (link, v, normal_v, ss_v._deliver_cb)
            port_v = (link, u, normal_u, ss_u._deliver_cb)
            ss_u._port_by_id[normal_u] = port_u
            ss_u._port_by_id[flag | normal_u] = port_u
            ss_v._port_by_id[normal_v] = port_v
            ss_v._port_by_id[flag | normal_v] = port_v

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def m(self) -> int:
        """Number of links."""
        return len(self.links)

    def node(self, node_id: Any) -> Node:
        """Node object by ID."""
        return self.nodes[node_id]

    def link(self, u: Any, v: Any) -> Link:
        """Link object by (unordered) endpoint pair."""
        key = (u, v) if (u, v) in self.links else (v, u)
        return self.links[key]

    def set_flow_control(
        self,
        *,
        rate: float | None = None,
        buffer: int | None = None,
        links: "list[tuple[Any, Any]] | None" = None,
    ) -> int:
        """Apply credit-based flow control network-wide (or to ``links``).

        ``rate`` is the per-direction bandwidth in packets per time
        unit, ``buffer`` the per-direction credit window; both ``None``
        removes flow control (see
        :meth:`repro.hardware.link.Link.set_flow_control`).  Returns the
        number of links configured.
        """
        if links is None:
            targets = list(self.links.values())
        else:
            targets = [self.link(u, v) for u, v in links]
        for link in targets:
            link.set_flow_control(rate=rate, buffer=buffer)
            if link.fc is not None:
                self._split_legs(link)
        return len(targets)

    def flow_states(self) -> "list[tuple[Link, Any]]":
        """All ``(link, LinkFlowState)`` directions with flow control on.

        Deterministic order: links in build (repr-sorted) order, the
        two directions in each link's endpoint order.
        """
        out = []
        for link in self.links.values():
            if link.fc is not None:
                for state in link.fc.values():
                    out.append((link, state))
        return out

    #: Above this node count ``diameter()`` switches from the exact
    #: all-pairs BFS to the two-sweep pseudo-diameter (a lower bound,
    #: exact on every generator in :mod:`repro.network.topologies`) —
    #: the exact computation is O(n·m), a minutes-long wall at fabric
    #: scale.  Pass ``exact=True`` to force the full computation.
    EXACT_DIAMETER_MAX_NODES = 2048

    def diameter(self, *, exact: bool | None = None) -> int:
        """Hop diameter of the (current, active) topology.

        Memoised on the topology version: repeated calls with unchanged
        link state are one tuple compare, no graph rebuild and no BFS.
        ``exact=None`` (default) computes exactly up to
        :attr:`EXACT_DIAMETER_MAX_NODES` nodes and falls back to the
        two-sweep BFS pseudo-diameter beyond that (see
        :func:`repro.network.topologies.pseudo_diameter` for the
        accuracy contract); ``exact=True`` / ``exact=False`` force one
        side.  The memo is shared — a forced call refreshes it.
        """
        cached = self._diameter_cache
        version = self._topology_version
        if cached is not None and cached[0] == version and exact is None:
            return cached[1]
        g = self.active_graph()
        if exact is None:
            exact = g.number_of_nodes() <= self.EXACT_DIAMETER_MAX_NODES
        if exact:
            diameter = nx.diameter(g)
        else:
            from .topologies import pseudo_diameter

            diameter = pseudo_diameter(g)
        self._diameter_cache = (version, diameter)
        return diameter

    def active_graph(self) -> nx.Graph:
        """The topology restricted to active links.

        Memoised on the topology version; callers share the cached
        graph, so treat it as a read-only view (copy before mutating).
        """
        cached = self._active_graph_cache
        version = self._topology_version
        if cached is not None and cached[0] == version:
            return cached[1]
        g = nx.Graph()
        g.add_nodes_from(self.graph.nodes)
        g.add_edges_from(key for key, link in self.links.items() if link.active)
        self._active_graph_cache = (version, g)
        return g

    # ------------------------------------------------------------------
    # Substrate reuse
    # ------------------------------------------------------------------
    def reset(self, *, delays: DelayModel | None = None) -> "Network":
        """Restore this network to its pristine pre-:meth:`attach` state.

        The expensive build products survive — node objects, links,
        SS port tables, ID assignments, ``Link.key``\\s, the copied
        graph — while every piece of *run* state is renewed: a fresh
        :class:`Scheduler` (time 0, sequence 0), fresh
        :class:`MetricsCollector` and :class:`Trace` (same
        ``enabled``/``capacity`` configuration), empty outputs, no
        protocol/handler on any node, empty NCU queues, no installed
        multicast groups, all links active with FIFO watermarks at 0,
        restarted packet/group sequences, a cleared data-link monitor
        and no observability probe.

        The contract is **bit-identity**: a workload run on a reset
        network produces byte-for-byte the same metrics, drop reasons,
        routes and trace stream as on a freshly constructed one (locked
        by the golden-equivalence suite).  What reset deliberately does
        NOT renew is the delay model — models with RNG state
        (:class:`~repro.sim.delays.RandomDelays`) keep their stream
        unless a replacement is passed via ``delays``; pass a freshly
        seeded model to reproduce a fresh build exactly.

        Returns ``self`` so callers can chain ``net.reset().attach(...)``.
        """
        self.scheduler = Scheduler()
        self.metrics = MetricsCollector()
        self.trace = Trace(enabled=self.trace.enabled, capacity=self.trace.capacity)
        self.outputs = {}
        self.probe = None
        # Drop any per-network perf install (global activations live on
        # the class and are deliberately untouched).
        self.__dict__.pop("perf", None)
        self._packet_seq = itertools.count(1)
        self._group_seq = itertools.count(0)
        self._legs = {}
        self._protocol_factory = None
        if delays is not None:
            self.delays = delays
        self._datalink.reset()
        topology_touched = False
        for link in self.links.values():
            if not link.active:
                topology_touched = True
            link.reset()
        if topology_touched:
            # Links came back up: invalidate the derived-view caches.
            # When nothing ever failed they stay warm across resets.
            self._topology_version += 1
        for node in self.nodes.values():
            node.reset()
        return self

    # ------------------------------------------------------------------
    # Protocol lifecycle
    # ------------------------------------------------------------------
    def attach(self, factory: ProtocolFactory) -> None:
        """Instantiate the protocol on every node and wire the NCUs."""
        self._protocol_factory = factory
        for node in self.nodes.values():
            protocol = factory(node.api)
            node.protocol = protocol
            node.ncu.handler = protocol.dispatch

    def start(
        self,
        node_ids: Iterable[Any] | None = None,
        *,
        payload: Any = None,
        at: float | None = None,
    ) -> None:
        """Deliver START signals (each one is an NCU job, hence a system
        call) to the given nodes — all nodes by default — at time ``at``
        (default: the current simulated time)."""
        if at is None:
            at = self.scheduler.now
        targets = list(self.nodes) if node_ids is None else list(node_ids)
        for node_id in targets:
            # Long-lived bound method + args, not a per-node closure —
            # the convention every hot scheduling site follows.
            self.scheduler.schedule_at(
                at,
                self.nodes[node_id].ncu.enqueue,
                priority=2,
                tag="start",
                args=(Job(kind=JobKind.START, payload=payload, enqueued_at=at),),
            )

    def run(self, **kwargs: Any) -> float:
        """Run the scheduler (see :meth:`repro.sim.Scheduler.run`)."""
        return self.scheduler.run(**kwargs)

    def run_to_quiescence(self, max_events: int = 5_000_000) -> float:
        """Run until no events remain; returns the final time."""
        return self.scheduler.run(max_events=max_events)

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def record_output(self, node_id: Any, key: str, value: Any) -> None:
        """Store a protocol-reported output (see ``api.report``)."""
        self.outputs.setdefault(node_id, {})[key] = value

    def output(self, node_id: Any, key: str, default: Any = None) -> Any:
        """Read back a protocol-reported output."""
        return self.outputs.get(node_id, {}).get(key, default)

    def outputs_for_key(self, key: str) -> dict[Any, Any]:
        """All nodes' values for one output key."""
        return {
            node_id: values[key]
            for node_id, values in self.outputs.items()
            if key in values
        }

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def fail_link(self, u: Any, v: Any) -> None:
        """Deactivate a link now; endpoints learn via the data link."""
        self._set_link_state(u, v, active=False)

    def restore_link(self, u: Any, v: Any) -> None:
        """Reactivate a link now; endpoints learn via the data link."""
        self._set_link_state(u, v, active=True)

    def fail_node(self, node_id: Any) -> None:
        """Model a node failure: deactivate all its links (Section 2)."""
        for neighbor in list(self.nodes[node_id].links):
            self.fail_link(node_id, neighbor)

    def restore_node(self, node_id: Any) -> None:
        """Reactivate all links of a previously failed node."""
        for neighbor in list(self.nodes[node_id].links):
            self.restore_link(node_id, neighbor)

    def crash_node(self, node_id: Any) -> None:
        """Crash a node: links go down, NCU state is lost (Section 2 +
        churn extension).

        Unlike :meth:`fail_node` — which only severs the links and
        leaves the software intact — a crash also destroys the node's
        protocol state, queued jobs, in-service job and pending timers.
        Jobs arriving while crashed are dropped (``ncu_crashed``).
        """
        for neighbor in list(self.nodes[node_id].links):
            self._set_link_state(node_id, neighbor, active=False)
        self.nodes[node_id].crash()

    def restart_node(self, node_id: Any, *, start: bool = True) -> None:
        """Restart a crashed node with a blank protocol instance.

        The software comes up *before* the links, so the fresh instance
        observes its links returning via ``on_link_change`` — the
        restart-triggered rejoin signal.  With ``start=True`` (default)
        a START job is also enqueued, modelling a boot script that
        launches the protocol, which is what triggers re-elections.
        """
        if self._protocol_factory is None:
            raise ProtocolError(
                f"cannot restart node {node_id}: no protocol was attached"
            )
        node = self.nodes[node_id]
        node.restart(self._protocol_factory)
        for neighbor in list(node.links):
            self._set_link_state(node_id, neighbor, active=True)
        if start:
            now = self.scheduler.now
            node.ncu.enqueue(Job(kind=JobKind.START, payload=None, enqueued_at=now))

    def partition(self, groups: Iterable[Iterable[Any]]) -> list[tuple[Any, Any]]:
        """Cut every active link between distinct groups of nodes.

        ``groups`` are disjoint sets of node IDs; nodes not listed in
        any group form one implicit extra group.  Links *within* a group
        are untouched, so each side keeps operating — and electing its
        own coordinator — independently.  Returns the keys of the links
        cut, in build order (deterministic).
        """
        index: dict[Any, int] = {}
        for i, group in enumerate(groups):
            for node_id in group:
                if node_id not in self.nodes:
                    raise ValueError(f"unknown node {node_id!r} in partition group")
                if node_id in index:
                    raise ValueError(
                        f"node {node_id!r} appears in two partition groups"
                    )
                index[node_id] = i
        cut: list[tuple[Any, Any]] = []
        for key, link in self.links.items():
            u, v = key
            if link.active and index.get(u, -1) != index.get(v, -1):
                self._set_link_state(u, v, active=False)
                cut.append(key)
        return cut

    def heal(self) -> list[tuple[Any, Any]]:
        """Reactivate every inactive link; returns their keys.

        Links of still-crashed nodes come back up too — the hardware
        heals even when the software is down; packets reaching a crashed
        NCU are dropped until it restarts.
        """
        healed: list[tuple[Any, Any]] = []
        for key, link in self.links.items():
            if not link.active:
                self._set_link_state(*key, active=True)
                healed.append(key)
        return healed

    def schedule_link_failure(self, u: Any, v: Any, at: float) -> None:
        """Deactivate a link at a future simulated time."""
        self.scheduler.schedule_at(at, self.fail_link, tag="fail", args=(u, v))

    def schedule_link_restore(self, u: Any, v: Any, at: float) -> None:
        """Reactivate a link at a future simulated time."""
        self.scheduler.schedule_at(at, self.restore_link, tag="restore", args=(u, v))

    def _set_link_state(self, u: Any, v: Any, *, active: bool) -> None:
        link = self.link(u, v)
        if link.active == active:
            return
        link.active = active
        self._topology_version += 1
        self._split_legs(link)
        if self.trace.enabled:
            self.trace.record(
                self.scheduler.now,
                TraceKind.LINK_STATE,
                None,
                link=link.key,
                active=active,
            )
        self._datalink.link_changed(link)

    def _split_legs(self, link: Link) -> None:
        """Hand every in-flight leg still to cross ``link`` back to the
        per-hop path, so the change is seen by every check from now on."""
        if self._legs:
            for leg in list(self._legs):
                leg.split(link)

    # ------------------------------------------------------------------
    # Omniscient helpers (drivers and tests, not protocols)
    # ------------------------------------------------------------------
    def next_packet_seq(self) -> int:
        """Fresh network-unique packet number."""
        return next(self._packet_seq)

    def id_lookup(self, a: Any, b: Any) -> tuple[int, int]:
        """Omniscient ANR ID lookup: IDs of link (a, b) at a's side.

        Protocols must *not* call this — they learn IDs from local
        topology and received messages; it exists for tests, drivers and
        baseline algorithms that the paper grants full routing tables.
        """
        return self.nodes[a].link_to(b).ids_at(a)

    def allocate_group_id(self) -> int:
        """A fresh network-unique multicast-group ID (hardware extension)."""
        return self.id_space.group_base + next(self._group_seq)

    def install_multicast_tree(self, tree) -> int:
        """Omniscient driver helper: install a multicast tree everywhere.

        Protocols should install groups through the setup broadcast
        (see :class:`repro.core.group_multicast.GroupMulticast`), which
        pays the system calls; this shortcut exists for tests and for
        modelling pre-provisioned hardware state.
        """
        group_id = self.allocate_group_id()
        for node_id in tree.parent:
            node = self.nodes[node_id]
            links = tuple(node.link_to(child) for child in tree.children[node_id])
            node.ss.install_group(group_id, links, to_ncu=node_id != tree.root)
        return group_id

    def adjacency(self) -> Mapping[Any, tuple[Any, ...]]:
        """Deterministic adjacency view of the active topology.

        Memoised on the topology version; callers share the cached
        mapping, so treat it as a read-only view.
        """
        cached = self._adjacency_cache
        version = self._topology_version
        if cached is not None and cached[0] == version:
            return cached[1]
        g = self.active_graph()
        adjacency = {
            node: tuple(sorted(g.neighbors(node), key=repr))
            for node in sorted(g.nodes, key=repr)
        }
        self._adjacency_cache = (version, adjacency)
        return adjacency
