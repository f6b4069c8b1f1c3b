"""Structural guard on the hot-path observation hooks.

Every hot simulator site observes through one ``net.sink`` attribute
(:mod:`repro.sim.sink`).  The dormant-cost timing gate
(``benchmarks/bench_obs_overhead.py``) bounds what the guards cost, but
wall-clock gates drift on shared machines; this suite pins the shape
deterministically, by parsing each hot function's source:

* it loads ``sink`` at most once;
* it reads no ``probe`` or ``perf`` attribute and no ``trace.enabled``;
* ``PerfCounters`` activation assigns no class attribute.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from repro.hardware.link import Link
from repro.hardware.ncu import NCU
from repro.hardware.switch import Leg, SwitchingSubsystem
from repro.network import Network
from repro.obs.perf import PerfCounters
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Trace

HOT_FUNCTIONS = [
    (SwitchingSubsystem, "receive"),
    (SwitchingSubsystem, "_forward"),
    (SwitchingSubsystem, "_deliver"),
    (SwitchingSubsystem, "_receive_group"),
    (Leg, "_commit"),
    (NCU, "_serve"),
    (NCU, "_complete"),
    (Link, "fc_forward"),
    (Link, "_fc_transmit"),
    (Link, "_fc_arrive"),
    (Scheduler, "_push"),
    (Scheduler, "run"),
    (Scheduler, "step"),
    (Scheduler, "_drop_cancelled"),
]


def _tree(fn) -> ast.AST:
    return ast.parse(textwrap.dedent(inspect.getsource(fn)))


def _attribute_loads(tree: ast.AST, attr: str) -> list[ast.Attribute]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.ctx, ast.Load)
    ]


@pytest.mark.parametrize(
    "cls, name", HOT_FUNCTIONS, ids=lambda x: x if isinstance(x, str) else x.__name__
)
def test_hot_function_has_one_observation_hook(cls, name):
    tree = _tree(getattr(cls, name))
    assert len(_attribute_loads(tree, "sink")) <= 1, (
        f"{cls.__name__}.{name} loads the sink more than once"
    )
    for attr in ("probe", "perf"):
        assert not _attribute_loads(tree, attr), (
            f"{cls.__name__}.{name} still reads .{attr}"
        )
    for node in _attribute_loads(tree, "enabled"):
        owner = node.value
        owner_name = owner.attr if isinstance(owner, ast.Attribute) else getattr(
            owner, "id", None
        )
        assert owner_name != "trace", (
            f"{cls.__name__}.{name} still guards on trace.enabled"
        )


def test_observed_sites_do_use_the_sink():
    # The guard must not vanish by accident: the sites that report a
    # hop, copy, drop, system call or queue change all load the sink.
    for cls, name in HOT_FUNCTIONS:
        if cls is Scheduler:
            continue
        tree = _tree(getattr(cls, name))
        assert len(_attribute_loads(tree, "sink")) == 1, f"{cls.__name__}.{name}"


@pytest.mark.parametrize("name", ["activate", "deactivate", "install", "uninstall"])
def test_perf_activation_assigns_no_class_attribute(name):
    tree = _tree(getattr(PerfCounters, name))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [
                node.target
            ]
            for target in targets:
                assert not isinstance(target, ast.Attribute), (
                    f"PerfCounters.{name} assigns {ast.unparse(target)}"
                )
        if isinstance(node, ast.Call):
            assert not (isinstance(node.func, ast.Name) and node.func.id in (
                "setattr", "delattr"
            )), f"PerfCounters.{name} calls {node.func.id}"
    for cls in (Network, Scheduler, Trace, SwitchingSubsystem, NCU, Link):
        assert not hasattr(cls, "perf") and not hasattr(cls, "probe")
