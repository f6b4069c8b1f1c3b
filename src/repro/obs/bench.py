"""Benchmark telemetry: named benchmarks, ``BENCH_*.json``, regression gates.

The repo's claims are quantitative, so its performance trajectory
should be too.  This module gives the ``repro bench`` subcommand its
machinery:

* a small registry of named :class:`Benchmark`\\s, each a deterministic
  workload that reports a metric dict (simulation counters, which are
  machine-independent, plus ``wall_ms`` / ``events_per_sec`` /
  ``hops_per_sec``, which are
  not);
* :func:`run_benchmark` → a JSON document pairing the metrics with a
  full :class:`~repro.obs.manifest.RunManifest` (seed, topology,
  ``(C, P)``, git revision, interpreter), written as
  ``BENCH_<name>.json`` so a number on disk months later still says
  what produced it;
* :func:`compare_documents` — the regression gate: current vs baseline
  per metric, with a threshold ratio per metric and a direction
  (``events_per_sec`` and ``hops_per_sec`` are better *higher*;
  everything else better
  lower).  CI runs it against committed baselines and fails on breach.

Determinism note: all simulation metrics (system calls, hops, events,
sim time) are exactly reproducible, so their default threshold is
"no increase at all".  Wall-clock metrics get loose defaults; CI
loosens them further because the baseline was produced elsewhere.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..metrics.report import format_table
from .manifest import RunManifest

#: Metrics where a *drop* (ratio below threshold) is the regression.
HIGHER_IS_BETTER = frozenset(
    {
        "events_per_sec",
        "hops_per_sec",
        "reuse_speedup",
        "nodes_per_sec",
        "build_speedup",
    }
)

#: Default allowed current/baseline ratio per metric.  Deterministic
#: counters fall back to 1.0 (any increase regresses); wall-clock noise
#: gets headroom.
DEFAULT_THRESHOLDS: dict[str, float] = {
    "wall_ms": 2.0,
    "events_per_sec": 0.5,
    # One event carries a whole cut-through leg, so events/s moves with
    # leg length; hops/s is the SS throughput a change must not lose.
    "hops_per_sec": 0.5,
    "build_ms": 2.0,
    "reuse_run_ms": 2.0,
    "rebuild_run_ms": 2.0,
    "reuse_speedup": 0.5,
    "legacy_build_ms": 2.0,
    "nodes_per_sec": 0.5,
    "build_speedup": 0.5,
    # Retained-bytes figures are allocation-deterministic up to
    # interpreter version; a quarter of headroom absorbs that.
    "bytes_per_node": 1.25,
    "legacy_bytes_per_node": 1.25,
    "bytes_per_node_ratio": 1.25,
}

#: Tolerance on the ratio comparison (floats in, floats out).
_EPSILON = 1e-9


@dataclass(frozen=True)
class Benchmark:
    """One named benchmark: a zero-argument workload returning
    ``(metrics, manifest)``."""

    name: str
    description: str
    run: Callable[[], tuple[dict[str, float], RunManifest]]


def _timed(net, drive: Callable[[], None]) -> dict[str, float]:
    """Run ``drive`` and return the shared metric block for ``net``."""
    t0 = time.perf_counter()
    drive()
    wall = time.perf_counter() - t0
    events = net.scheduler.events_processed
    hops = net.metrics.hops
    return {
        "system_calls": float(net.metrics.system_calls),
        "hops": float(hops),
        "sim_time": float(net.scheduler.now),
        "events": float(events),
        "wall_ms": wall * 1000.0,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "hops_per_sec": hops / wall if wall > 0 else 0.0,
    }


def _bench_broadcast_grid() -> tuple[dict[str, float], RunManifest]:
    """Theorem 2 workload: branching-paths broadcast on an 8×8 grid."""
    from ..core import BranchingPathsBroadcast, run_standalone_broadcast
    from ..network.builder import from_spec
    from ..sim import FixedDelays

    net = from_spec("grid:8,8", delays=FixedDelays(0.0, 1.0))
    adjacency = net.adjacency()
    holder: dict[str, Any] = {}

    def drive() -> None:
        holder["run"] = run_standalone_broadcast(
            net,
            lambda api: BranchingPathsBroadcast(
                api, root=0, adjacency=adjacency, ids=net.id_lookup
            ),
            0,
        )

    metrics = _timed(net, drive)
    metrics["completion_time"] = float(holder["run"].completion_time())
    manifest = RunManifest.collect(
        net, command="bench:broadcast_grid", topology="grid:8,8", C=0.0, P=1.0
    )
    return metrics, manifest


def _bench_flood_random() -> tuple[dict[str, float], RunManifest]:
    """Flooding's m..2m band on a random connected graph."""
    from ..core import FloodingBroadcast, run_standalone_broadcast
    from ..network.builder import from_spec
    from ..sim import FixedDelays

    net = from_spec("random:64,16", delays=FixedDelays(0.0, 1.0))

    def drive() -> None:
        run_standalone_broadcast(
            net, lambda api: FloodingBroadcast(api, root=0), 0
        )

    metrics = _timed(net, drive)
    manifest = RunManifest.collect(
        net, command="bench:flood_random", topology="random:64,16", C=0.0, P=1.0
    )
    return metrics, manifest


def _bench_election_ring() -> tuple[dict[str, float], RunManifest]:
    """Theorem 5 workload: all-starters election on a 64-ring."""
    from ..core import LeaderElection
    from ..network.builder import from_spec
    from ..sim import FixedDelays

    net = from_spec("ring:64", delays=FixedDelays(0.0, 1.0))
    net.attach(lambda api: LeaderElection(api))

    def drive() -> None:
        net.start()
        net.run_to_quiescence(max_events=10_000_000)

    metrics = _timed(net, drive)
    snap = net.metrics.snapshot()
    metrics["tour_return_calls"] = float(
        snap.system_calls_by_kind.get("tour", 0)
        + snap.system_calls_by_kind.get("return", 0)
    )
    manifest = RunManifest.collect(
        net, command="bench:election_ring", topology="ring:64", C=0.0, P=1.0
    )
    return metrics, manifest


def _bench_scheduler_churn() -> tuple[dict[str, float], RunManifest]:
    """Raw event-loop throughput: timer chains, no packets.

    The same shape as E16's workload, but run through a real network's
    timer plumbing so the number tracks the production code path.
    """
    from ..network.builder import from_spec
    from ..network.protocol import Protocol
    from ..sim import FixedDelays

    chains, per_chain = 16, 400

    class Chain(Protocol):
        def on_start(self, payload):
            self.remaining = per_chain
            self.api.set_timer(1.0, "tick", None)

        def on_timer(self, tag, payload):
            self.remaining -= 1
            if self.remaining > 0:
                self.api.set_timer(1.0, "tick", None)

    net = from_spec("line:16", delays=FixedDelays(0.0, 1.0))
    net.attach(lambda api: Chain(api))

    def drive() -> None:
        net.start(list(range(chains)))
        net.run_to_quiescence(max_events=10_000_000)

    metrics = _timed(net, drive)
    manifest = RunManifest.collect(
        net, command="bench:scheduler_churn", topology="line:16", C=0.0, P=1.0
    )
    return metrics, manifest


def _bench_kernel_scale() -> tuple[dict[str, float], RunManifest]:
    """Pure event-kernel throughput at a large pending set.

    Preloads 400k no-op events spread over 13 distinct timestamps —
    the paper's (C, P) regime taken to the pending-set sizes the
    ROADMAP's 10⁴–10⁵-node studies imply: a handful of distinct delay
    values, huge same-timestamp cohorts.  No protocol and no NCU, so
    the number isolates the kernel data structure itself: an O(log n)
    heap sift with n in the hundreds of thousands for every push and
    pop.  It is the committed record of per-event kernel cost.
    (``scheduler_churn`` keeps only ~32 events pending and is
    NCU-bound — see ``docs/PERFORMANCE.md`` for the Amdahl split.)
    """
    from ..network.builder import from_spec

    events, spread, repeats = 400_000, 13, 3
    # Timestamps are precomputed so the timed section is kernel work
    # (schedule + drain), not float arithmetic.
    times = [float(i % spread) for i in range(events)]

    def noop() -> None:
        pass

    # Best-of-3 on fresh networks, so single-shot scheduling jitter
    # does not set the number.  Deterministic counters are
    # cross-checked identical across repeats.
    best: dict[str, float] | None = None
    net = None
    for _ in range(repeats):
        net = from_spec("line:2")
        sched = net.scheduler

        def drive() -> None:
            schedule = sched.schedule
            for t in times:
                schedule(t, noop, 2, "tick")
            sched.run()

        metrics = _timed(net, drive)
        if best is not None:
            assert all(
                metrics[key] == best[key]
                for key in ("system_calls", "hops", "sim_time", "events")
            ), "kernel_scale repeats diverged"
        if best is None or metrics["wall_ms"] < best["wall_ms"]:
            best = metrics
    manifest = RunManifest.collect(
        net, command="bench:kernel_scale", topology="line:2", C=0.0, P=1.0
    )
    return best, manifest


def _bench_hotpath_forwarding() -> tuple[dict[str, float], RunManifest]:
    """Pure switching-fabric throughput: long ANR routes, idle NCUs.

    Streams packets end-to-end down a 64-node line with maximal source
    routes, so almost every event is a hardware hop (``receive`` →
    ``_forward`` → ``_deliver``).  This is the microbenchmark for the
    per-hop cost model in ``docs/PERFORMANCE.md``: header cursoring,
    port-table lookup and the closure-free hop scheduling show up here
    undiluted by protocol work.
    """
    from ..hardware.anr import build_anr
    from ..network.builder import from_spec
    from ..network.protocol import Protocol
    from ..sim import FixedDelays

    length, packets = 64, 200
    net = from_spec(f"line:{length}", delays=FixedDelays(0.1, 1.0))
    net.attach(lambda api: Protocol(api))  # deliveries terminate quietly
    header = build_anr(list(range(length)), net.id_lookup)
    source = net.node(0)

    def drive() -> None:
        # Staggered injections keep ~60 packets in flight at once, so
        # the heap churns under realistic interleaving, not lockstep.
        for i in range(packets):
            net.scheduler.schedule_at(
                0.01 * i, source.inject, args=(header, i), tag="inject"
            )
        net.run_to_quiescence(max_events=10_000_000)

    metrics = _timed(net, drive)
    metrics["hops_per_packet"] = float(net.metrics.hops) / packets
    manifest = RunManifest.collect(
        net,
        command="bench:hotpath_forwarding",
        topology=f"line:{length}",
        C=0.1,
        P=1.0,
    )
    return metrics, manifest


def _bench_congested_forwarding() -> tuple[dict[str, float], RunManifest]:
    """Flow-controlled bottleneck: the hotpath workload, over-driven.

    The same line-streaming shape as ``hotpath_forwarding``, but every
    link carries credit-based flow control (rate 2 packets per time
    unit, window 4) while the source injects at 20 per time unit — ten
    times the sustainable rate — so the first link's sender queue grows
    deep and drains at the bottleneck rate.  Exercises the entire
    congestion path: stall queueing, credit return, serialisation
    spacing and the occupancy/stall telemetry.  All congestion metrics
    (stalls, stalled simulated time, occupancy/delay watermarks) are
    deterministic, so they regression-gate at the exact-equality
    threshold, and the queue-occupancy histogram is embedded in the
    manifest for the on-disk document.
    """
    from ..hardware.anr import build_anr
    from ..network.builder import from_spec
    from ..network.protocol import Protocol
    from ..sim import FixedDelays
    from .live import LiveStats

    length, packets = 32, 240
    rate, buffer = 2.0, 4
    net = from_spec(f"line:{length}", delays=FixedDelays(0.1, 1.0))
    net.set_flow_control(rate=rate, buffer=buffer)
    net.attach(lambda api: Protocol(api))  # deliveries terminate quietly
    header = build_anr(list(range(length)), net.id_lookup)
    source = net.node(0)
    stats = LiveStats().install(net)

    def drive() -> None:
        for i in range(packets):
            net.scheduler.schedule_at(
                0.05 * i, source.inject, args=(header, i), tag="inject"
            )
        net.run_to_quiescence(max_events=10_000_000)

    metrics = _timed(net, drive)
    stats.uninstall()
    states = [state for _, state in net.flow_states()]
    metrics["stalls"] = float(sum(s.stalls for s in states))
    metrics["stall_sim_time"] = float(sum(s.stall_time for s in states))
    metrics["max_occupancy"] = float(max(s.max_occupancy for s in states))
    metrics["max_link_delay"] = float(max(s.max_delay for s in states))
    manifest = RunManifest.collect(
        net,
        command="bench:congested_forwarding",
        topology=f"line:{length}",
        C=0.1,
        P=1.0,
        link_rate=rate,
        link_buffer=buffer,
        queue_occupancy=stats.queue_occupancy.to_dict(),
        stall_time=stats.link_stall_time.to_dict(),
    )
    return metrics, manifest


def _bench_substrate_reuse() -> tuple[dict[str, float], RunManifest]:
    """Cold-path benchmark: 200-seed Monte-Carlo, reuse vs rebuild.

    Runs the same fixed-topology campaign (the ``anr_roundtrip_time``
    workload: per-seed random delays, one ping-pong to the farthest
    node on ``random:64,16``) twice per repeat — once acquiring every
    substrate through a :class:`~repro.exec.substrate.SubstratePool`
    (build once, reset per seed) and once rebuilding per seed — and
    reports the best-of-5 wall time of each leg plus their ratio
    (``reuse_speedup``, higher is better).  The deterministic totals of
    both legs are cross-checked for exact equality every repeat, so the
    speedup can never come from doing different work.
    """
    from ..exec.substrate import SubstratePool
    from ..exec.workloads import _roundtrip_route, _run_roundtrip
    from ..network.builder import from_spec
    from ..sim import RandomDelays

    topology, seeds, repeats = "random:64,16", 200, 5

    def delays(seed: int) -> RandomDelays:
        return RandomDelays(hardware=0.4, software=1.0, seed=seed)

    net = from_spec(topology)
    route = _roundtrip_route(net, topology)

    def run_leg(acquire) -> tuple[float, tuple[float, ...]]:
        """One 200-seed campaign; returns (wall seconds, counter totals)."""
        system_calls = hops = events = 0
        sim_time = rtt_sum = 0.0
        t0 = time.perf_counter()
        for seed in range(seeds):
            leg_net = acquire(seed)
            row = _run_roundtrip(leg_net, route)
            system_calls += int(row["system_calls"])
            hops += int(row["hops"])
            events += leg_net.scheduler.events_processed
            sim_time += row["final_time"]
            rtt_sum += row["rtt"]
        wall = time.perf_counter() - t0
        return wall, (float(system_calls), float(hops), float(events),
                      sim_time, rtt_sum)

    pool = SubstratePool()
    best_reuse = best_rebuild = float("inf")
    totals: tuple[float, ...] | None = None
    for _ in range(repeats):
        reuse_wall, reuse_totals = run_leg(
            lambda seed: pool.acquire(topology, delays=delays(seed))
        )
        rebuild_wall, rebuild_totals = run_leg(
            lambda seed: from_spec(topology, delays=delays(seed))
        )
        if reuse_totals != rebuild_totals:
            raise RuntimeError(
                "substrate reuse changed the simulation: "
                f"reuse totals {reuse_totals} != rebuild totals {rebuild_totals}"
            )
        totals = reuse_totals
        best_reuse = min(best_reuse, reuse_wall)
        best_rebuild = min(best_rebuild, rebuild_wall)

    build_ms = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        from_spec(topology, delays=delays(0))
        build_ms = min(build_ms, (time.perf_counter() - t0) * 1000.0)

    assert totals is not None
    system_calls, hops, events, sim_time, rtt_sum = totals
    metrics = {
        "seeds": float(seeds),
        "system_calls": system_calls,
        "hops": hops,
        "sim_time": sim_time,
        "rtt_total": rtt_sum,
        "events": events,
        "build_ms": build_ms,
        "reuse_run_ms": best_reuse * 1000.0,
        "rebuild_run_ms": best_rebuild * 1000.0,
        "reuse_speedup": best_rebuild / best_reuse if best_reuse > 0 else 0.0,
        "wall_ms": (best_reuse + best_rebuild) * 1000.0,
        "events_per_sec": events / best_reuse if best_reuse > 0 else 0.0,
        "hops_per_sec": hops / best_reuse if best_reuse > 0 else 0.0,
    }
    manifest = RunManifest.collect(
        net, command="bench:substrate_reuse", topology=topology, C=0.4, P=1.0
    )
    return metrics, manifest


def _bench_churn_recovery() -> tuple[dict[str, float], RunManifest]:
    """Churn scenario: partition, crash, heal, restart, re-elect.

    Runs the canonical seeded churn story on a 6×6 grid under pinned
    worst-case delays with a :class:`ChurnMonitor` riding along.  Every
    metric is deterministic — system calls, tour/return calls, drops,
    final time, and the monitor's violation count (gated at exactly
    zero) — so the benchmark pins both the cost *and* the correctness
    of recovery from heavy churn.
    """
    from ..scenario import churn_scenario, run_scenario
    from ..network.builder import from_spec
    from ..sim import FixedDelays

    topology = "grid:6,6"
    spec = churn_scenario(topology, seed=11, C=0.0, P=1.0, crashes=2)
    net = from_spec(topology, delays=FixedDelays(0.0, 1.0))
    holder: dict[str, Any] = {}

    def drive() -> None:
        holder["row"] = run_scenario(net, spec)

    metrics = _timed(net, drive)
    row = holder["row"]
    metrics["tour_return_calls"] = float(row["tour_return_calls"])
    metrics["drops"] = float(row["drops"])
    metrics["leaders"] = float(len(row["leaders"]))
    metrics["violations"] = float(row["violations"])
    manifest = RunManifest.collect(
        net,
        command="bench:churn_recovery",
        topology=topology,
        C=0.0,
        P=1.0,
        scenario=spec.name,
        events=len(spec.events),
    )
    return metrics, manifest


# ----------------------------------------------------------------------
# Pre-slots builder replica (substrate_scale reference)
# ----------------------------------------------------------------------
# A faithful replica of the builder as it stood before the scale-out
# work: ``__dict__``-backed hot classes, eager per-node containers
# (deque, scratch set, copy-ID set, link->port map), per-link ID and
# arrival *dicts*, one fresh bound method per port entry, a defensive
# ``nx.Graph`` copy, and per-edge method calls with incremental
# validation.  ``substrate_scale`` builds the same fabric through this
# replica and through the live path *interleaved in one process*, so
# the reported speedup and bytes-per-node ratio compare against a fixed
# reference and survive machine drift — unlike absolute wall numbers.
# The replica is measurement-only: its SS/NCU never forward anything.


class _LegacyNodeApi:
    def __init__(self, node: Any) -> None:
        self._node = node


class _LegacyNCU:
    def __init__(self, node: Any) -> None:
        from collections import deque

        self._node = node
        self._queue: Any = deque()
        self._busy = False
        self._job_seq = 0
        self._complete_cb = self._complete
        self.handler = None
        self.crashed = False
        self.incarnation = 0
        self._service_event = None
        self.ports_used_this_call = None
        self._ports_scratch: set[int] = set()
        self.queue_peak = 0

    def _complete(self, job: Any) -> None:  # pragma: no cover - never driven
        raise NotImplementedError("measurement replica")


class _LegacySS:
    def __init__(self, node: Any, id_space: Any) -> None:
        self._node = node
        self._id_space = id_space
        self._port_by_id: dict[int, Any] = {}
        self._port_by_link: dict[Any, Any] = {}
        self._ncu_copy_ids: set[int] = set()
        self._groups: dict[int, Any] = {}

    def _deliver(self, packet: Any, link: Any) -> None:  # pragma: no cover
        raise NotImplementedError("measurement replica")

    def build_ports(self) -> None:
        me = self._node.node_id
        for link in self._node.links.values():
            normal, copy = link.ids_at(me)
            other = link.other(me)
            receiving_normal, _ = link.ids_at(other.node_id)
            # Attribute fetch binds a fresh method object per port —
            # exactly the pre-interning retained-memory profile.
            port = (link, other.node_id, receiving_normal, other.ss._deliver)
            self._port_by_id[normal] = port
            self._port_by_id[copy] = port
            self._port_by_link[link] = port
            self._ncu_copy_ids.add(copy)


class _LegacyNode:
    def __init__(self, node_id: Any, id_space: Any) -> None:
        self.node_id = node_id
        self.net = None
        self.ss = _LegacySS(self, id_space)
        self.ncu = _LegacyNCU(self)
        self.api = _LegacyNodeApi(self)
        self.links: dict[Any, Any] = {}
        self.protocol = None

    def add_link(self, link: Any) -> None:
        other = link.other(self.node_id)
        if other.node_id in self.links:
            raise ValueError("parallel link")
        self.links[other.node_id] = link


class _LegacyLink:
    def __init__(
        self,
        node_u: Any,
        node_v: Any,
        ids_u: tuple[int, int],
        ids_v: tuple[int, int],
    ) -> None:
        self.node_u = node_u
        self.node_v = node_v
        self._ids = {node_u.node_id: ids_u, node_v.node_id: ids_v}
        self.active = True
        u, v = node_u.node_id, node_v.node_id
        self.key = (u, v) if repr(u) <= repr(v) else (v, u)
        self._last_arrival = {u: 0.0, v: 0.0}
        self.fc = None

    def other(self, node_id: Any) -> Any:
        if node_id == self.node_u.node_id:
            return self.node_v
        if node_id == self.node_v.node_id:
            return self.node_u
        raise KeyError(node_id)

    def ids_at(self, node_id: Any) -> tuple[int, int]:
        return self._ids[node_id]


def _legacy_build(graph: Any) -> tuple[Any, dict[Any, Any], dict[Any, Any]]:
    """The pre-slots construction algorithm, end to end."""
    import networkx as nx

    from ..hardware.ids import LinkIdSpace

    g = nx.Graph(graph)
    if any(u == v for u, v in g.edges):
        raise ValueError("self-loops are not supported")
    max_degree = max((d for _, d in g.degree), default=1)
    id_space = LinkIdSpace(capacity=max(max_degree, 1))
    nodes = {
        node_id: _LegacyNode(node_id, id_space)
        for node_id in sorted(g.nodes, key=repr)
    }
    links: dict[Any, Any] = {}
    link_index = {node_id: 0 for node_id in nodes}
    for u, v in sorted(g.edges, key=lambda e: (repr(e[0]), repr(e[1]))):
        iu, iv = link_index[u], link_index[v]
        link_index[u] = iu + 1
        link_index[v] = iv + 1
        link = _LegacyLink(
            nodes[u],
            nodes[v],
            (id_space.normal_id(iu), id_space.copy_id(iu)),
            (id_space.normal_id(iv), id_space.copy_id(iv)),
        )
        nodes[u].add_link(link)
        nodes[v].add_link(link)
        links[link.key] = link
    for node in nodes.values():
        node.ss.build_ports()
    return g, nodes, links


def _bench_substrate_scale() -> tuple[dict[str, float], RunManifest]:
    """Construction at fabric scale: live builder vs pre-slots replica.

    Builds a ~10⁴-node fat-tree (k=32: 9472 nodes, 24576 links) through
    the live path (``copy_graph=False``, fused single-pass loop, slotted
    classes, in-build GC pause) and through the in-file pre-slots
    replica, **interleaved** within each round, and reports the median
    per-round wall ratio as ``build_speedup`` (higher is better) — the
    drift-robust form of "5× faster construction".  Both legs run under
    whatever GC regime the process has (the live path pauses collection
    itself; the replica, like the pre-slots builder, does not), with a
    ``gc.collect()`` before each leg so neither inherits the other's
    garbage.  Retained memory is tracemalloc's current total after
    building from a caller-held graph, divided by node count; the
    legacy figure includes its defensive graph copy because making that
    copy *is* part of the legacy cost.  Node/link counts and link-key
    order are cross-checked between the two paths, so the speedup can
    never come from building less.
    """
    import gc
    import tracemalloc

    from ..network.network import Network
    from ..network.topologies import fat_tree

    k, rounds = 32, 5
    graph = fat_tree(k)
    n = float(graph.number_of_nodes())
    m = float(graph.number_of_edges())

    ratios: list[float] = []
    best_new = best_legacy = float("inf")
    net = None
    for round_no in range(rounds):
        source = fat_tree(k)
        gc.collect()
        t0 = time.perf_counter()
        legacy = _legacy_build(source)
        legacy_wall = time.perf_counter() - t0

        source = fat_tree(k)
        gc.collect()
        t0 = time.perf_counter()
        net = Network(source, trace=False, copy_graph=False)
        new_wall = time.perf_counter() - t0

        if (len(net.nodes), len(net.links)) != (len(legacy[1]), len(legacy[2])):
            raise RuntimeError("bulk path built a different substrate")
        if round_no == 0 and list(net.links) != list(legacy[2]):
            raise RuntimeError("bulk path changed the link order")
        del legacy
        ratios.append(legacy_wall / new_wall if new_wall > 0 else 0.0)
        best_new = min(best_new, new_wall)
        best_legacy = min(best_legacy, legacy_wall)

    def retained_bytes(build: Callable[[Any], Any]) -> float:
        source = fat_tree(k)
        gc.collect()
        tracemalloc.start()
        built = build(source)
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del built
        return float(current)

    legacy_bytes = retained_bytes(_legacy_build)
    new_bytes = retained_bytes(
        lambda source: Network(source, trace=False, copy_graph=False)
    )

    ratios.sort()
    assert net is not None
    metrics = {
        "nodes": n,
        "links": m,
        "rounds": float(rounds),
        "build_ms": best_new * 1000.0,
        "legacy_build_ms": best_legacy * 1000.0,
        "nodes_per_sec": n / best_new if best_new > 0 else 0.0,
        "build_speedup": ratios[len(ratios) // 2],
        "bytes_per_node": new_bytes / n,
        "legacy_bytes_per_node": legacy_bytes / n,
        "bytes_per_node_ratio": new_bytes / legacy_bytes if legacy_bytes else 0.0,
        "wall_ms": (best_new + best_legacy) * 1000.0,
    }
    manifest = RunManifest.collect(
        net,
        command="bench:substrate_scale",
        topology=f"fat_tree:{k}",
        C=0.0,
        P=0.0,
        rounds=rounds,
    )
    return metrics, manifest


#: The registry `repro bench` runs, in execution order.
BENCHMARKS: tuple[Benchmark, ...] = (
    Benchmark("broadcast_grid", "bpaths broadcast, grid:8,8 (Thm 2 counters)",
              _bench_broadcast_grid),
    Benchmark("flood_random", "flooding broadcast, random:64,16",
              _bench_flood_random),
    Benchmark("election_ring", "all-starters election, ring:64 (Thm 5 counters)",
              _bench_election_ring),
    Benchmark("scheduler_churn", "timer-chain event-loop throughput",
              _bench_scheduler_churn),
    Benchmark("kernel_scale", "pure kernel throughput, 400k-event pending set",
              _bench_kernel_scale),
    Benchmark("hotpath_forwarding", "end-to-end ANR streaming, line:64",
              _bench_hotpath_forwarding),
    Benchmark("congested_forwarding",
              "flow-controlled bottleneck line, over-driven source",
              _bench_congested_forwarding),
    Benchmark("substrate_reuse", "200-seed Monte-Carlo, pooled reset vs rebuild",
              _bench_substrate_reuse),
    Benchmark("churn_recovery",
              "partition/crash/heal/restart churn scenario, grid:6,6",
              _bench_churn_recovery),
    Benchmark("substrate_scale",
              "10⁴-node fat-tree construction vs pre-slots replica",
              _bench_substrate_scale),
)

_BY_NAME = {bench.name: bench for bench in BENCHMARKS}


def benchmark_names() -> tuple[str, ...]:
    """Registered benchmark names, in execution order."""
    return tuple(bench.name for bench in BENCHMARKS)


def run_benchmark(name: str, *, perf: bool = False) -> dict[str, Any]:
    """Run one registered benchmark; returns its JSON document.

    The document is ``{"bench": name, "metrics": {...},
    "manifest": {...}}`` — what ``BENCH_<name>.json`` holds on disk.
    With ``perf`` a process-global :class:`~repro.obs.perf.PerfCounters`
    registry runs alongside and its breakdown lands in a separate
    ``"perf"`` block; the ``"metrics"`` block — the only part
    regression gating reads — is byte-identical either way (counters
    never touch behaviour, locked by the golden-equivalence suite).
    """
    try:
        bench = _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from "
            f"{', '.join(benchmark_names())}"
        ) from None
    counters = None
    if perf:
        from .perf import PerfCounters

        counters = PerfCounters().activate()
    try:
        metrics, manifest = bench.run()
    finally:
        if counters is not None:
            counters.deactivate()
    doc = {
        "bench": bench.name,
        "description": bench.description,
        "metrics": metrics,
        "manifest": manifest.to_dict(),
    }
    if counters is not None:
        doc["perf"] = counters.to_dict()
    return doc


def run_benchmarks(
    names: Sequence[str] | None = None, *, jobs: int = 1
) -> dict[str, dict[str, Any]]:
    """Run several benchmarks, optionally sharded across processes.

    Returns ``{name: document}`` in registry order.  With ``jobs > 1``
    each benchmark runs in its own worker via the campaign engine
    (:mod:`repro.exec`); deterministic counters are identical to the
    serial path because every workload builds its own network from a
    fixed spec — only ``wall_ms`` / ``events_per_sec`` move, and those
    are per-process measurements either way.  No result cache is used:
    a benchmark exists to be *measured*, not remembered.
    """
    names = list(names) if names is not None else list(benchmark_names())
    unknown = [name for name in names if name not in _BY_NAME]
    if unknown:
        raise ValueError(
            f"unknown benchmark {unknown[0]!r}; choose from "
            f"{', '.join(benchmark_names())}"
        )
    if jobs <= 1:
        return {name: run_benchmark(name) for name in names}
    from ..exec import TaskSpec, run_campaign

    specs = [
        TaskSpec.make(
            "repro.obs.bench:run_benchmark", name=name, label=f"bench:{name}"
        )
        for name in names
    ]
    outcome = run_campaign(specs, jobs=jobs)
    return dict(zip(names, outcome.values()))


def bench_path(name: str, directory: str | Path = ".") -> Path:
    """Canonical on-disk location: ``<directory>/BENCH_<name>.json``."""
    return Path(directory) / f"BENCH_{name}.json"


def write_bench_document(doc: Mapping[str, Any], directory: str | Path = ".") -> Path:
    """Write one benchmark document to its canonical path."""
    path = bench_path(doc["bench"], directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(doc), indent=2, default=str) + "\n")
    return path


def load_bench_document(path: str | Path) -> dict[str, Any]:
    """Load a document written by :func:`write_bench_document`.

    Raises :class:`ValueError` with a one-line message on files that
    are not benchmark documents.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read benchmark file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc.msg})") from exc
    if not isinstance(data, dict) or "bench" not in data or "metrics" not in data:
        raise ValueError(f"{path}: not a benchmark document (missing bench/metrics)")
    return data


@dataclass(frozen=True)
class MetricComparison:
    """One metric's regression verdict."""

    metric: str
    baseline: float
    current: float
    ratio: float
    threshold: float
    higher_is_better: bool
    regressed: bool

    @property
    def status(self) -> str:
        return "REGRESSION" if self.regressed else "ok"


def compare_documents(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    thresholds: Mapping[str, float] | None = None,
) -> list[MetricComparison]:
    """Compare two benchmark documents metric by metric.

    ``thresholds`` overrides :data:`DEFAULT_THRESHOLDS` per metric; the
    threshold is the allowed ``current / baseline`` ratio (an upper
    limit, or a lower limit for :data:`HIGHER_IS_BETTER` metrics).
    Metrics present on only one side are skipped — a new metric is not
    a regression.  Raises :class:`ValueError` when the documents are
    for different benchmarks.
    """
    if current.get("bench") != baseline.get("bench"):
        raise ValueError(
            f"benchmark mismatch: current is {current.get('bench')!r}, "
            f"baseline is {baseline.get('bench')!r}"
        )
    merged = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        merged.update(thresholds)
    out: list[MetricComparison] = []
    base_metrics = baseline.get("metrics", {})
    for metric, observed in current.get("metrics", {}).items():
        if metric not in base_metrics:
            continue
        base = float(base_metrics[metric])
        observed = float(observed)
        higher = metric in HIGHER_IS_BETTER
        threshold = merged.get(metric, 1.0)
        if base == 0.0:
            ratio = 1.0 if observed == 0.0 else float("inf")
        else:
            ratio = observed / base
        if higher:
            regressed = ratio < threshold - _EPSILON
        else:
            regressed = ratio > threshold + _EPSILON
        out.append(
            MetricComparison(
                metric=metric,
                baseline=base,
                current=observed,
                ratio=ratio,
                threshold=threshold,
                higher_is_better=higher,
                regressed=regressed,
            )
        )
    return out


def regressions(comparisons: Iterable[MetricComparison]) -> list[MetricComparison]:
    """The subset of comparisons that breached their threshold."""
    return [c for c in comparisons if c.regressed]


def render_comparison(
    comparisons: Sequence[MetricComparison], *, title: str | None = None
) -> str:
    """Regression table in the repo's standard text style."""
    rows = [
        [
            c.metric,
            f"{c.baseline:g}",
            f"{c.current:g}",
            f"{c.ratio:.3f}",
            f"{'>=' if c.higher_is_better else '<='} {c.threshold:g}",
            c.status,
        ]
        for c in comparisons
    ]
    return format_table(
        ["metric", "baseline", "current", "ratio", "allowed", "status"],
        rows,
        title=title,
    )


def render_metrics(doc: Mapping[str, Any], *, title: str | None = None) -> str:
    """One benchmark's metric table."""
    rows = [[metric, f"{value:g}"] for metric, value in doc["metrics"].items()]
    return format_table(["metric", "value"], rows, title=title)
