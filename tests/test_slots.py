"""Guard rails for the memory-lean substrate representation.

Construction at 10⁴–10⁵ nodes depends on the hot per-node/per-link
classes staying ``__slots__``-only: one accidental ``__dict__`` (a
subclass without slots, a stray attribute assignment in ``__init__``)
silently costs ~100+ bytes per instance and erases the scale-out
budget.  These tests pin the contract so a regression fails loudly
instead of showing up as a benchmark drift three PRs later.
"""

from __future__ import annotations

import weakref

import pytest

from repro.hardware.link import Link, LinkFlowState
from repro.hardware.ncu import NCU, Job, NodeApi
from repro.hardware.node import Node
from repro.hardware.packet import Packet
from repro.hardware.switch import SwitchingSubsystem
from repro.network import Network, from_spec
from repro.sim.events import Event
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Trace

#: Every class whose instances scale with the network or event count,
#: plus the per-run classes every hot site reads.  Each must declare
#: ``__slots__`` in its own body and its instances must not grow a
#: ``__dict__`` through any base class.
HOT_CLASSES = [
    Node,
    NCU,
    NodeApi,
    Job,
    SwitchingSubsystem,
    Link,
    LinkFlowState,
    Packet,
    Event,
    Scheduler,
    Trace,
    Network,
]


@pytest.mark.parametrize("cls", HOT_CLASSES, ids=lambda c: c.__name__)
def test_hot_class_declares_slots(cls):
    assert "__slots__" in cls.__dict__, f"{cls.__name__} lost its __slots__"


@pytest.mark.parametrize("cls", HOT_CLASSES, ids=lambda c: c.__name__)
def test_hot_class_has_no_instance_dict(cls):
    # A __dict__ descriptor anywhere in the MRO means instances carry a
    # dict even if the leaf class declares __slots__.
    for base in cls.__mro__[:-1]:  # skip object
        assert "__dict__" not in base.__dict__, (
            f"{cls.__name__} inherits __dict__ via {base.__name__}"
        )


def test_hot_instances_reject_stray_attributes():
    net = from_spec("line:3", trace=False)
    node = net.nodes[0]
    for obj in (node, node.ss, node.ncu, node.api, next(iter(net.links.values()))):
        with pytest.raises(AttributeError):
            obj.__not_a_slot__ = 1  # type: ignore[attr-defined]


def test_port_entries_are_plain_tuples():
    net = from_spec("grid:3,3", trace=False)
    for node in net.nodes.values():
        for entry in node.ss._port_by_id.values():
            assert type(entry) is tuple and len(entry) == 4


def test_network_is_weakly_referenceable():
    # The one non-slot Network needs: a PerfCounters registry holds the
    # networks it observes weakly, so it never keeps a substrate alive.
    net = from_spec("line:2", trace=False)
    assert weakref.ref(net)() is net
    for obj in (net, net.scheduler, net.trace):
        with pytest.raises(AttributeError):
            obj.perf = None  # type: ignore[attr-defined]
