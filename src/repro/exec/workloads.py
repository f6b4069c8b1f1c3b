"""Registered campaign workloads: pure, addressable task functions.

Every function here is a valid :class:`~repro.exec.task.TaskSpec`
target: module-level, keyword-only, JSON-in/JSON-out, and
deterministic given its parameters (randomness enters only through an
explicit ``seed``, derived via :func:`repro.sim.seeding.derive_seed`).
Heavy imports stay inside the functions so spec *construction* — which
happens in the driver for every task, cached or not — costs nothing.
"""

from __future__ import annotations

from typing import Any

#: Metrics in a benchmark document that vary run to run; everything
#: else is an exactly reproducible simulation counter.
NONDETERMINISTIC_METRICS = frozenset(
    {
        "wall_ms",
        "events_per_sec",
        "hops_per_sec",
        "build_ms",
        "reuse_run_ms",
        "rebuild_run_ms",
        "reuse_speedup",
    }
)


def tradeoff_point(*, n: int, ratio: str, P: str = "1") -> dict[str, Any]:
    """One (n, C/P) point of the E10 trade-off study.

    ``ratio`` and ``P`` are exact fraction strings (``"4"``, ``"1/3"``)
    so the computation stays in :class:`fractions.Fraction` end to end;
    the returned row stores times the same way.
    """
    from ..analysis.sweeps import tradeoff_rows_for_ratio

    return tradeoff_rows_for_ratio(n=n, ratio=ratio, P=P)


def growth_point(*, P: str, C: str, k: int) -> dict[str, Any]:
    """S(kP) for one k of the E7/E8 growth table."""
    from fractions import Fraction

    from ..core.opt_tree import OptTreeBuilder

    Pf, Cf = Fraction(P), Fraction(C)
    builder = OptTreeBuilder(Pf, Cf)
    return {"k": k, "size": builder.size(k * Pf)}


def election_calls_per_node(
    seed: int, *, n: int = 24, edge_prob: float = 0.18, topology: str | None = None
) -> float:
    """Tour+return system calls per node for one seeded election.

    The Monte-Carlo sample behind the Theorem 5 distribution.  By
    default the topology varies with the seed (a random connected graph
    resampled per seed); passing ``topology`` (a builder spec such as
    ``"random:64,16"``) pins the graph and lets only the delays vary —
    the fixed-topology campaign form.  Fixed topologies are served from
    this worker's :class:`~repro.exec.substrate.SubstratePool`, so
    repeat seeds reset-and-reuse one substrate instead of rebuilding.
    ``n``/``edge_prob`` are ignored when ``topology`` is given.
    """
    from ..core import LeaderElection
    from ..sim import RandomDelays

    delays = RandomDelays(hardware=0.3, software=1.0, seed=seed)
    if topology is not None:
        from .substrate import worker_pool

        net = worker_pool().acquire(topology, delays=delays)
    else:
        from ..network import Network, topologies

        g = topologies.random_connected(n, edge_prob, seed=seed)
        net = Network(g, delays=delays)
    net.attach(lambda api: LeaderElection(api))
    net.start()
    net.run_to_quiescence(max_events=3_000_000)
    snap = net.metrics.snapshot()
    tours = snap.system_calls_by_kind.get("tour", 0)
    returns = snap.system_calls_by_kind.get("return", 0)
    return (tours + returns) / net.n


#: Memoised roundtrip routes keyed by topology spec.  The route depends
#: only on the (never-failed) topology, which the spec pins exactly, so
#: a per-process cache is safe — and saves a BFS per seed.
_ROUTE_CACHE: dict[str, tuple[Any, ...]] = {}


def _roundtrip_route(net: Any, topology: str) -> tuple[Any, ...]:
    """Deterministic longest BFS route in ``net``: root to farthest node.

    Root is the repr-smallest node; the target is the deepest tree node
    with repr as the tie-break.  Identical for every seed of a spec.
    """
    route = _ROUTE_CACHE.get(topology)
    if route is None:
        from ..network.spanning import bfs_tree

        adjacency = net.adjacency()
        tree = bfs_tree(adjacency, next(iter(adjacency)))
        farthest = max(tree.parent, key=lambda v: (tree.depth_of(v), repr(v)))
        route = _ROUTE_CACHE[topology] = tree.path_from_root(farthest)
    return route


def _ping_pong_factory(header: tuple[int, ...], origin: Any) -> Any:
    """Factory for a two-party echo protocol.

    The origin sends ``ping`` along the precomputed ANR on START; the
    far node answers along the hardware-accumulated reverse route; the
    origin reports the round-trip time.  Tiny on purpose — the workload
    exists to measure substrate setup against a short steady state.
    """
    from ..hardware.anr import reply_route
    from ..network.protocol import Protocol

    class _PingPong(Protocol):
        def on_start(self, payload: Any) -> None:
            if self.api.node_id == origin:
                self.api.send(header, {"kind": "ping", "sent_at": self.api.now})

        def on_packet(self, packet: Any) -> None:
            payload = packet.payload
            if payload["kind"] == "ping":
                self.api.send(
                    reply_route(packet),
                    {"kind": "pong", "sent_at": payload["sent_at"]},
                )
            else:
                self.api.report("rtt", self.api.now - payload["sent_at"])

    return _PingPong


def _run_roundtrip(net: Any, route: tuple[Any, ...]) -> dict[str, Any]:
    """Drive one ping-pong over ``route`` on a pristine network."""
    from ..hardware.anr import build_anr

    origin = route[0]
    factory = _ping_pong_factory(build_anr(route, net.id_lookup), origin)
    net.attach(factory)
    net.start([origin])
    final_time = net.run_to_quiescence(max_events=100_000)
    snap = net.metrics.snapshot()
    return {
        "rtt": net.output(origin, "rtt"),
        "route_hops": len(route) - 1,
        "hops": snap.hops,
        "system_calls": snap.system_calls,
        "final_time": final_time,
    }


def anr_roundtrip_time(seed: int, *, topology: str = "random:64,16") -> dict[str, Any]:
    """One seeded ANR round-trip on a pooled fixed-topology substrate.

    The cheap Monte-Carlo unit behind the substrate-reuse benchmark:
    random per-seed delays over a pinned topology, a single ping-pong to
    the farthest node, ~(4 × route length) events in total — so the
    substrate build, not the steady state, dominates a rebuild-per-seed
    campaign.  Served from this worker's substrate pool.
    """
    from ..sim import RandomDelays

    from .substrate import worker_pool

    net = worker_pool().acquire(
        topology, delays=RandomDelays(hardware=0.4, software=1.0, seed=seed)
    )
    return _run_roundtrip(net, _roundtrip_route(net, topology))


def bench_counters(*, name: str) -> dict[str, Any]:
    """One benchmark's *deterministic* counters (no wall-clock noise).

    This is the campaign form of ``repro bench``: identical across job
    counts, shards and machines, hence safely cacheable — unlike the
    full ``BENCH_<name>.json`` document, whose wall metrics must be
    measured fresh.
    """
    from ..obs.bench import run_benchmark

    doc = run_benchmark(name)
    metrics = {
        metric: value
        for metric, value in doc["metrics"].items()
        if metric not in NONDETERMINISTIC_METRICS
    }
    return {"bench": name, "metrics": metrics}
