"""Tests for the adversarial delay search and the invariant library."""

from __future__ import annotations

import operator

import pytest

from repro.analysis.invariants import ElectionInvariantChecker, run_checked
from repro.core import (
    BranchingPathsBroadcast,
    LeaderElection,
    optimal_spanning_tree,
    run_standalone_broadcast,
    run_tree_aggregation,
)
from repro.network import Network, topologies
from repro.sim import ProtocolError
from repro.sim.adversary import SeededAdversary, random_delay_search


# ----------------------------------------------------------------------
# Adversarial delay search
# ----------------------------------------------------------------------
def test_seeded_adversary_is_deterministic_and_bounded():
    a = SeededAdversary(hardware=2.0, software=3.0, seed=7)
    b = SeededAdversary(hardware=2.0, software=3.0, seed=7)
    for i in range(50):
        hw_a = a.hardware_delay(("x", "y"), i)
        assert hw_a == b.hardware_delay(("x", "y"), i)
        assert 0.0 <= hw_a <= 2.0
        sw = a.software_delay("n", i)
        assert 0.0 <= sw <= 3.0


def test_adversary_zero_bound():
    a = SeededAdversary(hardware=0.0, software=1.0, seed=1)
    assert a.hardware_delay(("x", "y"), 0) == 0.0


def test_adversary_draws_are_pure_functions_of_their_coordinates():
    # Each draw depends only on (seed, kind, target, seq) — not on call
    # order or interleaving.  This is what lets two shards of a sharded
    # campaign hand out identical delays without sharing any state.
    a = SeededAdversary(hardware=2.0, software=3.0, seed=42)
    b = SeededAdversary(hardware=2.0, software=3.0, seed=42)
    reference = [a.hardware_delay(("u", "v"), i) for i in range(20)]
    # b consumes draws in a scrambled order, with unrelated draws mixed
    # in; the per-coordinate values must not shift.
    for i in reversed(range(20)):
        b.software_delay("noise", i)  # unrelated stream
        assert b.hardware_delay(("u", "v"), i) == reference[i]


def test_memoised_draws_equal_the_unmemoised_formula():
    # The per-(kind, component) seed prefix is cached; every draw must
    # still equal derive_seed over the full path.  The targets collide
    # as dict keys (True == 1 == 1.0, (1, 2) == (1.0, 2)) but not as seed
    # components, and they are interleaved so a target-keyed memo would
    # hand one the other's prefix.
    from repro.sim.adversary import _MANTISSA, _component_key
    from repro.sim.seeding import derive_seed

    model = SeededAdversary(hardware=2.0, software=3.0, seed=9)
    root = derive_seed(9, "adversary")
    targets = [True, 1, 1.0, (1, 2), (1.0, 2), "n", ("u", "v")]

    def reference(bound, kind, target, seq):
        word = derive_seed(root, kind, _component_key(target), seq)
        if (word >> 53) / 2048.0 < model.bias:
            return bound
        return bound * ((word & _MANTISSA) / float(1 << 53))

    for seq in range(10_000):
        for target in targets:
            kind, bound = ("hw", 2.0) if seq % 2 else ("sw", 3.0)
            assert model._draw(bound, kind, target, seq) == reference(
                bound, kind, target, seq
            ), (kind, target, seq)


def test_adversary_has_no_module_global_rng():
    import repro.sim.adversary as adversary

    assert not hasattr(adversary, "random") or not hasattr(
        adversary.random, "random"
    ), "adversary module must not import the random module at top level"


def test_adversary_bias_extremes():
    # bias=1.0 pins every draw at its bound; bias=0.0 never does
    # (draws are strictly below the bound almost surely).
    pinned = SeededAdversary(hardware=2.0, software=3.0, seed=5, bias=1.0)
    free = SeededAdversary(hardware=2.0, software=3.0, seed=5, bias=0.0)
    for i in range(30):
        assert pinned.hardware_delay(("u", "v"), i) == 2.0
        assert pinned.software_delay("n", i) == 3.0
        assert free.hardware_delay(("u", "v"), i) < 2.0


def test_no_timing_beats_bounds_for_aggregation():
    # Section 5's worst-case claim, searched empirically: no random
    # delay assignment completes later than all-delays-at-bounds.
    P, C, n = 1.0, 1.0, 21

    def scenario(delays):
        net = Network(topologies.complete(n), delays=delays)
        _, tree = optimal_spanning_tree(net, P, C)
        run = run_tree_aggregation(net, tree, operator.add, {i: 1 for i in net.nodes})
        return run.completion_time

    result = random_delay_search(scenario, C=C, P=P, trials=15)
    assert result.bounds_are_worst
    assert result.trials == 16


def test_no_timing_beats_bounds_for_broadcast():
    g = topologies.random_connected(30, 0.2, seed=3)

    def scenario(delays):
        net = Network(g, delays=delays)
        adjacency = net.adjacency()
        run = run_standalone_broadcast(
            net,
            lambda api: BranchingPathsBroadcast(
                api, root=0, adjacency=adjacency, ids=net.id_lookup
            ),
            0,
        )
        assert run.coverage == net.n
        return run.completion_time()

    result = random_delay_search(scenario, C=0.5, P=1.0, trials=15)
    assert result.bounds_are_worst


def test_theorem5_survives_adversarial_timing_search():
    g = topologies.random_connected(24, 0.18, seed=9)

    def scenario(delays):
        net = Network(g, delays=delays)
        net.attach(lambda api: LeaderElection(api))
        net.start()
        net.run_to_quiescence(max_events=3_000_000)
        flags = net.outputs_for_key("is_leader")
        assert sum(1 for f in flags.values() if f) == 1
        snap = net.metrics.snapshot()
        calls = snap.system_calls_by_kind.get("tour", 0) + snap.system_calls_by_kind.get(
            "return", 0
        )
        assert calls <= 6 * net.n
        return float(calls)

    result = random_delay_search(scenario, C=0.5, P=1.0, trials=10)
    assert result.worst_value <= 6 * 24


# ----------------------------------------------------------------------
# Invariant library
# ----------------------------------------------------------------------
def test_run_checked_elects_and_validates():
    net = Network(topologies.random_connected(18, 0.25, seed=4))
    net.attach(lambda api: LeaderElection(api))
    net.start()
    leader = run_checked(net, every=4)
    assert leader in net.nodes


def test_checker_detects_planted_violation():
    net = Network(topologies.line(4))
    net.attach(lambda api: LeaderElection(api))
    net.start()
    net.run_to_quiescence()
    checker = ElectionInvariantChecker(net)
    checker.check_terminal()  # clean run passes
    # Corrupt a frozen captured domain and expect detection.
    captured = next(
        node for node in net.nodes.values()
        if node.protocol.parent_anr is not None
    )
    captured.protocol.domain.in_set.add("ghost")
    captured.protocol.domain.size += 1
    with pytest.raises(ProtocolError):
        checker.check()


def test_checker_detects_missing_leader():
    net = Network(topologies.line(3))
    net.attach(lambda api: LeaderElection(api))
    net.start()
    net.run_to_quiescence()
    leader = next(
        node for node in net.nodes.values()
        if node.protocol.status.value == "leader"
    )
    from repro.core import CandidateStatus

    leader.protocol.status = CandidateStatus.INACTIVE
    with pytest.raises(ProtocolError, match="exactly one leader"):
        ElectionInvariantChecker(net).check_terminal()
