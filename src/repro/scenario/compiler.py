"""Compile scenario specs into scheduler events.

The compiler is deliberately thin: every :class:`ScenarioEvent` becomes
one ``schedule_at`` call binding a long-lived :class:`Network` method
with plain ``args`` — no per-event closures, the same convention the
hot scheduling sites follow — so compiling a spec perturbs the event
stream only by the events it adds.  That is what makes a compiled
scenario replay byte-identically across fresh builds, resets and
campaign shards.

:func:`schedule_failure_actions` is the compatibility shim that lets
:class:`~repro.network.failures.FailureSchedule` delegate here, making
the legacy failure DSL a thin compiler target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from .spec import ScenarioEvent, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from ..network.network import Network

#: Ops whose target is one node / one ``(u, v)`` link.
_NODE_OPS = frozenset({"fail_node", "restore_node", "crash", "restart"})
_LINK_OPS = frozenset({"fail_link", "restore_link"})


def _reelect(net: "Network") -> None:
    """Fresh protocol instances everywhere, then START everywhere.

    Crashed nodes stay crashed — a re-election is a software round, not
    a repair crew.  Surviving nodes drop their old instance state (the
    Bully-style "coordinator died, start over" round) and race again.
    """
    factory = net._protocol_factory
    if factory is None:
        raise RuntimeError("cannot re-elect: no protocol was attached")
    for node in net.nodes.values():
        if node.ncu.crashed:
            continue
        protocol = factory(node.api)
        node.protocol = protocol
        node.ncu.handler = protocol.dispatch
    net.start(
        node_id for node_id, node in net.nodes.items() if not node.ncu.crashed
    )


def _target_problem(op: str, target: Any, graph: "nx.Graph") -> str | None:
    """Why ``target`` is unusable for ``op`` on ``graph`` (``None`` if fine)."""

    def nodes(value: Any) -> bool:
        return isinstance(value, tuple) and all(map(graph.has_node, value))

    if op in _NODE_OPS:
        if not graph.has_node(target):
            return f"node {target!r} is not in the topology"
    elif op in _LINK_OPS:
        if not (nodes(target) and len(target) == 2 and graph.has_edge(*target)):
            return f"{target!r} is not a link of the topology"
    elif op == "partition":
        if not (isinstance(target, tuple) and all(map(nodes, target))):
            return "partition target must be a list of lists of topology nodes"
    elif op == "start":
        if target is not None and not nodes(target):
            return "start target must be null or a list of topology nodes"
    return None


def validate_scenario(spec: ScenarioSpec, graph: "nx.Graph") -> None:
    """Check every event target against ``graph`` before anything runs.

    Raises ``ValueError`` naming the first bad event, so a spec that
    crashes a missing node or fails a non-link is rejected up front
    instead of surfacing as a ``KeyError`` mid-run.
    """
    for index, event in enumerate(spec.events):
        problem = _target_problem(event.op, event.target, graph)
        if problem is not None:
            raise ValueError(
                f"scenario {spec.name!r}: event {index} "
                f"({event.op} at t={event.at:g}): {problem}"
            )


@dataclass(frozen=True)
class CompiledScenario:
    """Receipt for one compiled spec (diagnostics, not a handle)."""

    name: str
    events: int
    last_event_time: float


def compile_scenario(net: "Network", spec: ScenarioSpec) -> CompiledScenario:
    """Schedule every event of ``spec`` onto ``net``'s scheduler.

    Events are scheduled in spec order at their absolute times; the
    scheduler's (time, priority, sequence) ordering then fixes the
    execution order deterministically.  The caller is responsible for
    having attached a protocol first when the spec needs one
    (``restart``/``reelect`` require a remembered factory).  Targets
    are checked first (:func:`validate_scenario`), so a bad spec
    schedules nothing.
    """
    validate_scenario(spec, net.graph)
    scheduler = net.scheduler
    for event in spec.events:
        op, target, at = event.op, event.target, event.at
        if op == "fail_link":
            u, v = target
            scheduler.schedule_at(
                at, net.fail_link, tag="scenario:fail_link", args=(u, v)
            )
        elif op == "restore_link":
            u, v = target
            scheduler.schedule_at(
                at, net.restore_link, tag="scenario:restore_link", args=(u, v)
            )
        elif op == "fail_node":
            scheduler.schedule_at(
                at, net.fail_node, tag="scenario:fail_node", args=(target,)
            )
        elif op == "restore_node":
            scheduler.schedule_at(
                at, net.restore_node, tag="scenario:restore_node", args=(target,)
            )
        elif op == "crash":
            scheduler.schedule_at(
                at, net.crash_node, tag="scenario:crash", args=(target,)
            )
        elif op == "restart":
            scheduler.schedule_at(
                at, net.restart_node, tag="scenario:restart", args=(target,)
            )
        elif op == "partition":
            scheduler.schedule_at(
                at, net.partition, tag="scenario:partition", args=(target,)
            )
        elif op == "heal":
            scheduler.schedule_at(at, net.heal, tag="scenario:heal")
        elif op == "start":
            scheduler.schedule_at(
                at, net.start, tag="scenario:start", args=(target,)
            )
        elif op == "reelect":
            scheduler.schedule_at(
                at, _reelect, tag="scenario:reelect", args=(net,)
            )
        else:  # pragma: no cover - ScenarioEvent validates ops
            raise ValueError(f"unknown scenario op {op!r}")
    return CompiledScenario(
        name=spec.name, events=len(spec.events), last_event_time=spec.last_event_time
    )


def schedule_failure_actions(net: "Network", actions: Iterable[Any]) -> int:
    """Schedule legacy :class:`FailureAction`\\s via the compiler.

    Maps each action to the equivalent :class:`ScenarioEvent` and
    compiles them, so the old DSL and new specs share one scheduling
    path (closure-free, deterministic).  Returns the number scheduled.
    """
    events = []
    for action in actions:
        kind = action.kind.value if hasattr(action.kind, "value") else action.kind
        events.append(ScenarioEvent(at=action.time, op=kind, target=action.target))
    spec = ScenarioSpec(
        name="failure-schedule", topology="-", events=tuple(events)
    )
    compile_scenario(net, spec)
    return len(events)
