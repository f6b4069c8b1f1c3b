"""Convenience constructors for :class:`~repro.network.network.Network`.

Accepts the graph descriptions that turn up in practice — edge lists,
adjacency mappings, compact text specs — so scripts and the CLI don't
need to build :class:`networkx.Graph` objects by hand.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

import networkx as nx

from ..sim.delays import DelayModel
from . import topologies
from .network import Network


def from_edges(
    edges: Iterable[tuple[Any, Any]],
    *,
    nodes: Iterable[Any] = (),
    **network_kwargs: Any,
) -> Network:
    """Build a network from an edge list (plus optional isolated nodes)."""
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    return Network(g, copy_graph=False, **network_kwargs)


def from_edge_arrays(
    num_nodes: int,
    edges: Iterable[tuple[int, int]],
    **network_kwargs: Any,
) -> Network:
    """Bulk-build a network over nodes ``0..num_nodes-1`` from edge pairs.

    The scale-out entry point: the graph is assembled in one pass from
    the arrays and handed to :class:`Network` without the defensive
    copy (``copy_graph=False``) — at 10⁴–10⁵ nodes the copy alone
    costs more than the rest of construction.  The resulting network
    is identical (including traces) to ``from_edges`` over the same
    pairs.
    """
    if num_nodes < 0:
        raise ValueError("num_nodes must be >= 0")
    g = nx.Graph()
    g.add_nodes_from(range(num_nodes))
    g.add_edges_from(edges)
    return Network(g, copy_graph=False, **network_kwargs)


def from_adjacency(
    adjacency: Mapping[Any, Iterable[Any]], **network_kwargs: Any
) -> Network:
    """Build a network from a node -> neighbours mapping.

    The mapping may be one-sided (each edge listed at either endpoint).
    """
    g = nx.Graph()
    for node, neighbors in adjacency.items():
        g.add_node(node)
        for neighbor in neighbors:
            g.add_edge(node, neighbor)
    return Network(g, copy_graph=False, **network_kwargs)


#: Named topology factories usable from specs and the CLI.  Each value
#: maps the spec's integer arguments to a graph.
TOPOLOGY_FACTORIES = {
    "line": lambda n: topologies.line(n),
    "ring": lambda n: topologies.ring(n),
    "star": lambda n: topologies.star(n),
    "complete": lambda n: topologies.complete(n),
    "grid": lambda rows, cols: topologies.grid(rows, cols),
    "hypercube": lambda dim: topologies.hypercube(dim),
    "tree": lambda depth: topologies.complete_binary_tree(depth),
    "caterpillar": lambda spine, legs: topologies.caterpillar(spine, legs),
    "broom": lambda handle, bristles: topologies.broom(handle, bristles),
    "random": lambda n, seed=0: topologies.random_connected(
        n, min(0.5, 2.5 * __import__("math").log(max(n, 2)) / n), seed=seed
    ),
    "geometric": lambda n, seed=0: topologies.random_geometric_connected(
        n, 0.3, seed=seed
    ),
    "clos": lambda leaves, spines, hosts=0: topologies.clos(leaves, spines, hosts),
    "fat_tree": lambda k: topologies.fat_tree(k),
    "torus": lambda *dims: topologies.torus(*dims),
    "dragonfly": lambda groups, routers, hosts=0: topologies.dragonfly(
        groups, routers, hosts
    ),
}


def graph_from_spec(spec: str) -> nx.Graph:
    """The graph a compact text spec describes, without a substrate.

    Format: ``name:arg1,arg2`` — e.g. ``ring:64``, ``grid:6,8``,
    ``fat_tree:32``, ``random:128,7`` (size, seed).  The names are the
    keys of :data:`TOPOLOGY_FACTORIES`.  The returned graph is private
    to the caller (the memoised generators return per-call copies).
    """
    name, _, argstr = spec.partition(":")
    name = name.strip().lower()
    if name not in TOPOLOGY_FACTORIES:
        raise ValueError(
            f"unknown topology {name!r}; choose from "
            f"{sorted(TOPOLOGY_FACTORIES)}"
        )
    try:
        args = [int(a) for a in argstr.split(",") if a.strip()] if argstr else []
    except ValueError:
        raise ValueError(
            f"bad topology spec {spec!r}: arguments must be integers"
        ) from None
    try:
        return TOPOLOGY_FACTORIES[name](*args)
    except TypeError as exc:
        raise ValueError(f"bad arguments {args} for topology {name!r}") from exc


def from_spec(spec: str, **network_kwargs: Any) -> Network:
    """Build a network from a compact text spec (see
    :func:`graph_from_spec` for the format)."""
    # The spec's graph has no other references, so the Network can
    # adopt it without the defensive copy.
    return Network(graph_from_spec(spec), copy_graph=False, **network_kwargs)
