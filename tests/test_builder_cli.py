"""Tests for the network builders and the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.network.builder import TOPOLOGY_FACTORIES, from_adjacency, from_edges, from_spec


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def test_from_edges():
    net = from_edges([(0, 1), (1, 2)])
    assert net.n == 3 and net.m == 2


def test_from_edges_with_isolated_nodes():
    net = from_edges([(0, 1)], nodes=[0, 1, 2])
    assert net.n == 3 and net.m == 1


def test_from_adjacency_one_sided():
    net = from_adjacency({0: [1, 2], 1: [], 2: []})
    assert net.n == 3 and net.m == 2
    assert set(net.node(0).links) == {1, 2}


@pytest.mark.parametrize(
    "spec,n",
    [
        ("ring:12", 12),
        ("line:5", 5),
        ("grid:3,4", 12),
        ("complete:7", 7),
        ("hypercube:3", 8),
        ("tree:3", 15),
        ("caterpillar:4,2", 12),
        ("broom:3,4", 7),
        ("random:20,1", 20),
        ("geometric:15,2", 15),
    ],
)
def test_from_spec(spec, n):
    assert from_spec(spec).n == n


def test_from_spec_unknown_topology():
    with pytest.raises(ValueError, match="unknown topology"):
        from_spec("donut:12")


def test_from_spec_bad_arity():
    with pytest.raises(ValueError, match="bad arguments"):
        from_spec("grid:3")


def test_factories_registry_covers_spec_names():
    assert {"line", "ring", "grid", "complete", "random"} <= set(TOPOLOGY_FACTORIES)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_broadcast(capsys):
    assert main(["broadcast", "--topology", "ring:16"]) == 0
    out = capsys.readouterr().out
    assert "bpaths" in out
    assert "16" in out


def test_cli_broadcast_compare(capsys):
    assert main(["broadcast", "--topology", "grid:3,3", "--compare"]) == 0
    out = capsys.readouterr().out
    for scheme in ("bpaths", "flood", "direct", "dfs"):
        assert scheme in out


def test_cli_election(capsys):
    assert main(["election", "--topology", "random:20,3"]) == 0
    out = capsys.readouterr().out
    assert "Cidon-Gopal-Kutten" in out
    assert "6n = 120" in out


def test_cli_election_with_baselines_on_ring(capsys):
    assert main(["election", "--topology", "ring:16", "--baselines"]) == 0
    out = capsys.readouterr().out
    assert "Chang-Roberts" in out and "Hirschberg-Sinclair" in out


def test_cli_election_single_starter(capsys):
    assert main(["election", "--topology", "grid:3,3", "--starters", "4"]) == 0
    assert "leader" in capsys.readouterr().out


def test_cli_converge_with_failures(capsys):
    assert main(["converge", "--topology", "grid:4,4", "--fail", "2"]) == 0
    out = capsys.readouterr().out
    assert "cold start" in out
    assert "link failures" in out


def test_cli_globalfn(capsys):
    assert main(["globalfn", "--n", "21", "--P", "1", "--C", "1"]) == 0
    out = capsys.readouterr().out
    assert "optimal tree for n=21" in out
    assert "t_star" in out


def test_cli_lowerbound(capsys):
    assert main(["lowerbound", "--max-depth", "4"]) == 0
    out = capsys.readouterr().out
    assert "thm3_lower" in out


def test_cli_multicast(capsys):
    assert main(["multicast", "--topology", "ring:12", "--messages", "2"]) == 0
    out = capsys.readouterr().out
    assert "setup: 11 system calls" in out
    assert "coverage: 11/11" in out


def test_cli_report(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "rep")]) == 0
    out = capsys.readouterr().out
    assert "report written to" in out
    report = (tmp_path / "rep" / "REPORT.md").read_text()
    for marker in ("E1/E2", "E3", "E4b", "E5/E6", "E10", "E12", "E14",
                   "DEADLOCK", "tree_recovered"):
        assert marker in report
    csvs = list((tmp_path / "rep").glob("*.csv"))
    assert len(csvs) == 10


def test_cli_broadcast_show_plan(capsys):
    assert main(["broadcast", "--topology", "star:5", "--show-plan"]) == 0
    out = capsys.readouterr().out
    assert "labels" in out
    assert "wave 1" in out
    assert "└──" in out


def test_cli_unknown_topology_errors():
    with pytest.raises(ValueError, match="unknown topology"):
        main(["broadcast", "--topology", "donut:9"])


def test_cli_election_baselines_skip_non_rings(capsys):
    assert main(["election", "--topology", "grid:3,3", "--baselines"]) == 0
    assert "(needs a ring)" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Bulk construction and datacenter-fabric specs
# ----------------------------------------------------------------------
def test_from_edge_arrays_matches_from_edges():
    from repro.network import from_edge_arrays

    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    bulk = from_edge_arrays(4, edges)
    ref = from_edges(edges)
    assert bulk.n == ref.n and bulk.m == ref.m
    assert list(bulk.links) == list(ref.links)
    assert [r.kind for r in bulk.trace] == [r.kind for r in ref.trace]


def test_from_edge_arrays_isolated_and_invalid():
    from repro.network import from_edge_arrays

    net = from_edge_arrays(5, [(0, 1)])
    assert net.n == 5 and net.m == 1
    with pytest.raises(ValueError):
        from_edge_arrays(-1, [])


@pytest.mark.parametrize(
    "spec,n,m",
    [
        ("clos:8,4", 12, 32),
        ("clos:8,4,2", 28, 48),
        ("fat_tree:4", 36, 48),
        ("torus:4,4,4", 64, 192),
        ("dragonfly:9,4", 36, 90),
    ],
)
def test_from_spec_fabrics(spec, n, m):
    net = from_spec(spec)
    assert net.n == n and net.m == m


def test_graph_from_spec_returns_bare_graph():
    from repro.network import graph_from_spec

    g = graph_from_spec("fat_tree:4")
    assert g.number_of_nodes() == 36 and g.number_of_edges() == 48
    # Private copy: mutating it must not affect later builds.
    g.remove_node(0)
    assert from_spec("fat_tree:4").n == 36


# ----------------------------------------------------------------------
# topology info
# ----------------------------------------------------------------------
def test_cli_topology_info(capsys):
    assert main(["topology", "info", "fat_tree:8"]) == 0
    out = capsys.readouterr().out
    assert "208" in out  # nodes
    assert "384" in out  # links
    assert "diameter" in out and "6" in out
    assert "build bytes/node" in out


def test_cli_topology_info_exact_diameter(capsys):
    assert main(
        ["topology", "info", "torus:4,4,4", "--exact-diameter", "--no-build-memory"]
    ) == 0
    out = capsys.readouterr().out
    assert "64" in out
    assert "build bytes/node" not in out


def test_cli_topology_info_bad_spec(capsys):
    assert main(["topology", "info", "donut:12"]) == 1
    assert "unknown topology" in capsys.readouterr().err
    assert main(["topology", "info", "clos:a,b"]) == 1
    err = capsys.readouterr().err
    assert "'clos:a,b'" in err and "must be integers" in err
    assert err.count("\n") == 1
