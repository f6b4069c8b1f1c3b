"""Substrate reuse: reset bit-identity, pooling, cached views.

The reuse layer's whole value rests on one promise: a workload run on a
``reset()`` substrate is byte-for-byte the run it would have been on a
fresh build.  This suite locks the promise against the same golden
documents as the hot-path equivalence suite — each golden scenario is
driven repeatedly on one network through ``reset()`` and every run must
serialise identically to the fresh-build run *and* to the committed
golden — and covers the satellites: pool hit/miss behaviour and the
``REPRO_SUBSTRATE_REUSE`` gate, pristine-state details, the
topology-version memoisation of ``diameter()``/``active_graph()`` (no
graph rebuild while link state is unchanged), the topology-generator
cache, and reuse-on/off equality of the registered workloads.
"""

from __future__ import annotations

import json

import networkx as nx
import pytest

from repro.exec import substrate, workloads
from repro.exec.substrate import SubstratePool, reuse_enabled
from repro.network.builder import from_spec
from repro.network import topologies
from repro.sim import FixedDelays

from test_hotpath_equivalence import GOLDEN_PATH, SCENARIO_PARTS


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


# ----------------------------------------------------------------------
# Reset bit-identity against the golden workloads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCENARIO_PARTS))
def test_reset_run_is_byte_identical_to_fresh_build(name: str) -> None:
    build, drive, delays = SCENARIO_PARTS[name]
    golden = _dumps(json.loads(GOLDEN_PATH.read_text())[name])

    net = build()
    fresh_doc = _dumps(drive(net))
    assert fresh_doc == golden

    # Same substrate, reset twice: run 2 and run 3 must not drift.
    for _ in range(2):
        net.reset(delays=delays())
        assert _dumps(drive(net)) == golden


def test_reset_restores_pristine_state() -> None:
    build, drive, delays = SCENARIO_PARTS["failures"]
    net = build()
    drive(net)
    # The failure scenario leaves real residue to wipe.
    assert any(not link.active for link in net.links.values())
    assert net.metrics.system_calls > 0

    net.reset(delays=delays())
    assert net.scheduler.now == 0.0
    assert net.scheduler.events_processed == 0
    assert net.scheduler.pending == 0
    assert net.metrics.system_calls == 0
    assert net.metrics.hops == 0
    assert net.outputs == {}
    assert net.sink is net.trace  # the fresh trace, nothing else
    assert len(net.trace) == 0
    assert net.next_packet_seq() == 1
    for link in net.links.values():
        assert link.active
    for node in net.nodes.values():
        assert node.protocol is None
        assert node.ncu.handler is None
        assert not node.ncu.busy
        assert node.ncu.queued == 0
        assert node.ss._groups == {}


def test_reset_keeps_build_products() -> None:
    net = from_spec("grid:4,4")
    before = {
        node_id: dict(node.ss._port_by_id) for node_id, node in net.nodes.items()
    }
    links_before = dict(net.links)
    net.reset()
    assert dict(net.links) == links_before
    for node_id, node in net.nodes.items():
        assert dict(node.ss._port_by_id) == before[node_id]


def test_reset_returns_self_for_chaining() -> None:
    net = from_spec("ring:4")
    assert net.reset() is net


# ----------------------------------------------------------------------
# Cached derived views (diameter / active_graph / adjacency)
# ----------------------------------------------------------------------
def test_diameter_repeat_calls_do_no_graph_rebuild(monkeypatch) -> None:
    net = from_spec("grid:4,4")
    calls = {"diameter": 0}
    real_diameter = nx.diameter

    def counting_diameter(*args, **kwargs):
        calls["diameter"] += 1
        return real_diameter(*args, **kwargs)

    monkeypatch.setattr(nx, "diameter", counting_diameter)

    first = net.diameter()
    graph_first = net.active_graph()
    for _ in range(5):
        assert net.diameter() == first
        # The cached graph object itself is handed back — no rebuild.
        assert net.active_graph() is graph_first
        assert net.adjacency() is net.adjacency()
    assert calls["diameter"] == 1

    # A link-state change invalidates; the next call recomputes once.
    u, v = sorted(net.links, key=repr)[0]
    net.fail_link(u, v)
    changed = net.diameter()
    assert calls["diameter"] == 2
    assert net.active_graph() is not graph_first
    net.restore_link(u, v)
    assert net.diameter() >= 1
    assert calls["diameter"] == 3
    assert changed >= first


def test_reset_keeps_view_caches_warm_when_no_link_failed() -> None:
    net = from_spec("grid:3,3")
    graph = net.active_graph()
    version = net._topology_version
    net.reset()
    assert net._topology_version == version
    assert net.active_graph() is graph

    # ... but a network that saw a failure gets invalidated on reset.
    u, v = sorted(net.links, key=repr)[0]
    net.fail_link(u, v)
    net.reset()
    assert net._topology_version > version
    assert net.active_graph() is not graph
    assert net.active_graph().number_of_edges() == graph.number_of_edges()


# ----------------------------------------------------------------------
# SubstratePool
# ----------------------------------------------------------------------
def test_pool_builds_once_then_reuses(monkeypatch) -> None:
    monkeypatch.delenv(substrate.REUSE_ENV_VAR, raising=False)
    pool = SubstratePool()
    first = pool.acquire("ring:8")
    second = pool.acquire("ring:8")
    assert second is first
    assert (pool.builds, pool.reuses) == (1, 1)
    assert len(pool) == 1

    # A different configuration is a different pool entry.
    other = pool.acquire("ring:8", dmax=5)
    assert other is not first
    assert (pool.builds, pool.reuses) == (2, 1)
    assert len(pool) == 2


def test_pool_acquire_hands_out_pristine_networks() -> None:
    pool = SubstratePool()
    net = pool.acquire("grid:3,3", delays=FixedDelays(0.0, 1.0))
    net.attach(lambda api: __import__("repro.network.protocol",
                                      fromlist=["Protocol"]).Protocol(api))
    net.start([0])
    net.run_to_quiescence()
    assert net.metrics.system_calls > 0

    again = pool.acquire("grid:3,3", delays=FixedDelays(0.0, 1.0))
    assert again is net
    assert again.metrics.system_calls == 0
    assert again.scheduler.now == 0.0
    assert all(node.ncu.handler is None for node in again.nodes.values())


def test_pool_eviction_is_bounded() -> None:
    pool = SubstratePool(max_entries=2)
    pool.acquire("ring:4")
    pool.acquire("ring:5")
    pool.acquire("ring:6")
    assert len(pool) == 2
    # ring:4 was evicted (FIFO), so acquiring it again is a build.
    pool.acquire("ring:4")
    assert pool.builds == 4


def test_env_var_gates_reuse(monkeypatch) -> None:
    monkeypatch.delenv(substrate.REUSE_ENV_VAR, raising=False)
    assert reuse_enabled()
    for value in ("0", "false", "OFF", "No"):
        monkeypatch.setenv(substrate.REUSE_ENV_VAR, value)
        assert not reuse_enabled()
    monkeypatch.setenv(substrate.REUSE_ENV_VAR, "1")
    assert reuse_enabled()

    monkeypatch.setenv(substrate.REUSE_ENV_VAR, "0")
    pool = SubstratePool()
    first = pool.acquire("ring:8")
    second = pool.acquire("ring:8")
    assert second is not first
    assert (pool.builds, pool.reuses) == (2, 0)
    assert len(pool) == 0


# ----------------------------------------------------------------------
# Workloads: identical results with reuse on and off
# ----------------------------------------------------------------------
def test_roundtrip_workload_identical_reuse_on_and_off(monkeypatch) -> None:
    monkeypatch.delenv(substrate.REUSE_ENV_VAR, raising=False)
    rows_on = [workloads.anr_roundtrip_time(seed, topology="random:24,7")
               for seed in range(4)]
    monkeypatch.setenv(substrate.REUSE_ENV_VAR, "0")
    rows_off = [workloads.anr_roundtrip_time(seed, topology="random:24,7")
                for seed in range(4)]
    assert rows_on == rows_off
    # Distinct seeds genuinely vary (the delays differ).
    assert len({row["rtt"] for row in rows_on}) > 1


def test_election_workload_fixed_topology_matches_modes(monkeypatch) -> None:
    monkeypatch.delenv(substrate.REUSE_ENV_VAR, raising=False)
    on = [workloads.election_calls_per_node(seed, topology="random:16,3")
          for seed in range(3)]
    monkeypatch.setenv(substrate.REUSE_ENV_VAR, "0")
    off = [workloads.election_calls_per_node(seed, topology="random:16,3")
           for seed in range(3)]
    assert on == off


def test_sweep_forwards_params_to_pooled_workload(monkeypatch) -> None:
    monkeypatch.delenv(substrate.REUSE_ENV_VAR, raising=False)
    from repro.analysis.montecarlo import resolve_seeds, sweep

    summary = sweep(workloads.election_calls_per_node, 3, topology="random:16,3")
    expected = [
        workloads.election_calls_per_node(seed, topology="random:16,3")
        for seed in resolve_seeds(3)
    ]
    assert list(summary.samples) == expected


# ----------------------------------------------------------------------
# Topology-generator memoisation
# ----------------------------------------------------------------------
def test_topology_cache_hits_and_returns_copies() -> None:
    topologies.cache_clear()
    g1 = topologies.grid(4, 5)
    info = topologies.cache_info()
    assert (info["hits"], info["misses"]) == (0, 1)
    g2 = topologies.grid(4, 5)
    info = topologies.cache_info()
    assert (info["hits"], info["misses"]) == (1, 1)
    assert g1 is not g2
    assert nx.utils.graphs_equal(g1, g2)

    # Mutating a returned graph must not poison the cache.
    g1.remove_node(0)
    g3 = topologies.grid(4, 5)
    assert g3.number_of_nodes() == 20
    topologies.cache_clear()
    assert topologies.cache_info()["size"] == 0


def test_topology_cache_serves_distinct_params_separately() -> None:
    topologies.cache_clear()
    assert topologies.ring(5).number_of_nodes() == 5
    assert topologies.ring(6).number_of_nodes() == 6
    assert topologies.cache_info()["misses"] == 2


def test_topology_cache_preserves_node_attributes() -> None:
    topologies.cache_clear()
    g1 = topologies.random_geometric_connected(12, 0.5, seed=2)
    g2 = topologies.random_geometric_connected(12, 0.5, seed=2)
    assert all("pos" in g2.nodes[n] for n in g2.nodes)
    assert nx.utils.graphs_equal(g1, g2)


def test_topology_cache_invalid_params_still_raise() -> None:
    with pytest.raises(ValueError):
        topologies.ring(2)
    with pytest.raises(ValueError):
        topologies.grid(0, 3)


def test_clos_reset_run_is_byte_identical() -> None:
    # Datacenter-fabric reset identity: the bulk-built Clos substrate
    # must reproduce a fresh build byte-for-byte through reset(), same
    # contract as the golden scenarios above.
    from test_hotpath_equivalence import RecordingFlood, _document

    def build():
        return from_spec("clos:6,3,2", delays=FixedDelays(0.25, 1.0), trace=True)

    def drive(net):
        from repro.core import run_standalone_broadcast

        deliveries: list = []
        run_standalone_broadcast(
            net,
            lambda api: RecordingFlood(api, root=0, body="clos", sink=deliveries),
            0,
        )
        return _dumps(_document(net, deliveries))

    fresh = drive(build())
    net = build()
    assert drive(net) == fresh
    for _ in range(2):
        net.reset(delays=FixedDelays(0.25, 1.0))
        assert drive(net) == fresh
