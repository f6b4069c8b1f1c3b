"""E16 — one gate on the dormant cost of every hot-path observation hook.

Every hot simulator site observes through one ``net.sink`` load and an
``if sink is not None:`` guard (:mod:`repro.sim.sink`); the forwarding
path also pays a ``link.fc`` diversion check per forward and per walked
transit hop (opt-in flow control), and the run loop an ``if
observers:`` check per event.  With nothing observing, all of that
together must stay within 5% of the same code without it.

The baseline is derived, not kept: :func:`strip_hooks` parses each hot
function's *live* source with :mod:`ast`, deletes the sink loads and
guard blocks, the fc diversion and walk check and the observer checks,
and compiles the result in the function's own module.  The variants
are patched in before each network is built (SS port tables capture the
bound ``_deliver`` at build time) and the ``hotpath_forwarding`` shape
is timed against the live code, interleaved, best of ``REPEATS``.
There is no hand-kept copy of any hot function to fall out of step.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import timeit
from contextlib import contextmanager

from conftest import emit

from repro.hardware.ncu import NCU
from repro.hardware.switch import Leg, SwitchingSubsystem
from repro.sim.scheduler import Scheduler

#: Hot functions on the forwarding workload's path.
HOT_FUNCTIONS = (
    (Scheduler, "_push"),
    (Scheduler, "run"),
    (SwitchingSubsystem, "receive"),
    (SwitchingSubsystem, "_forward"),
    (SwitchingSubsystem, "_deliver"),
    (Leg, "_commit"),
    (NCU, "_serve"),
    (NCU, "_complete"),
)

#: Names whose guards are observation or opt-in flow control.
GUARDED = frozenset({"sink", "fc", "observers"})

FWD_LENGTH = 64
FWD_PACKETS = 200
#: Timed samples per variant.  The variants alternate which goes first
#: each round, so slow drift on a shared machine hits both alike.
REPEATS = 15
#: Workload runs per timed sample.  One run is ~10 ms (600 events carry
#: all 12,600 hops under cut-through), too short to time against
#: scheduler noise; three runs make a ~30 ms sample.
FWD_NUMBER = 3
TOLERANCE = 1.05


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _guard_test(test: ast.expr) -> bool:
    """An ``if`` test about observers, the sink or flow control."""
    if _names(test) & GUARDED:
        return True
    return any(
        isinstance(n, ast.Attribute) and n.attr in ("_observers", "fc")
        for n in ast.walk(test)
    )


class _Stripper(ast.NodeTransformer):
    def visit_If(self, node: ast.If) -> ast.AST | None:
        node.test = self.visit(node.test)
        if _guard_test(node.test) and not node.orelse:
            return None
        return self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> ast.AST | None:
        # ``sink = net.sink``, ``fc = link.fc``, ``observers = ...`` and
        # values derived from them (the handler timer's start).
        targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
        if targets & GUARDED or _names(node.value) & {"sink"}:
            return None
        return node

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.expr:
        # ``not hop_link.active or hop_link.fc is not None`` -> the
        # active check alone: the walk's per-hop flow-control test.
        kept = [v for v in node.values if not _guard_test(v)]
        if len(kept) == 1:
            return self.visit(kept[0])
        node.values = kept
        return self.generic_visit(node)


def strip_hooks(cls: type, name: str):
    """``cls.name`` recompiled from its own source without the hooks."""
    fn = getattr(cls, name)
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    tree = ast.fix_missing_locations(_Stripper().visit(tree))
    left = _names(tree) & {"sink", "fc"}
    assert not left, f"{cls.__name__}.{name}: unstripped {sorted(left)}"
    namespace: dict = {}
    exec(compile(tree, inspect.getsourcefile(fn), "exec"), fn.__globals__, namespace)
    return namespace[name]


@contextmanager
def hooks_stripped():
    stripped = [(cls, name, strip_hooks(cls, name)) for cls, name in HOT_FUNCTIONS]
    saved = [(cls, name, cls.__dict__[name]) for cls, name in HOT_FUNCTIONS]
    for cls, name, fn in stripped:
        setattr(cls, name, fn)
    try:
        yield
    finally:
        for cls, name, fn in saved:
            setattr(cls, name, fn)


def forwarding_workload() -> int:
    """The hotpath_forwarding bench shape; returns events processed."""
    from repro.hardware.anr import build_anr
    from repro.network.builder import from_spec
    from repro.network.protocol import Protocol
    from repro.sim import FixedDelays

    net = from_spec(f"line:{FWD_LENGTH}", delays=FixedDelays(0.1, 1.0))
    assert net.sink is None, "the gate times the dormant path"
    net.attach(lambda api: Protocol(api))
    header = build_anr(list(range(FWD_LENGTH)), net.id_lookup)
    source = net.node(0)
    for i in range(FWD_PACKETS):
        net.scheduler.schedule_at(
            0.01 * i, source.inject, args=(header, i), tag="inject"
        )
    net.run_to_quiescence(max_events=10_000_000)
    return net.scheduler.events_processed


def _measure(stripped: bool) -> float:
    if stripped:
        with hooks_stripped():
            return timeit.timeit(forwarding_workload, number=FWD_NUMBER)
    return timeit.timeit(forwarding_workload, number=FWD_NUMBER)


def test_stripped_variants_behave_identically():
    """The derived baseline does the same work as the live code."""
    events = forwarding_workload()
    with hooks_stripped():
        assert forwarding_workload() == events


def test_dormant_hooks_within_noise_on_forwarding(capsys):
    variants = {
        "hooks stripped (derived from source)": True,
        "hooks present, dormant": False,
    }
    events = forwarding_workload()  # also serves as warm-up
    for stripped in variants.values():
        _measure(stripped)
    best = {name: float("inf") for name in variants}
    order = list(variants.items())
    for _ in range(REPEATS):
        for name, stripped in order:
            best[name] = min(best[name], _measure(stripped))
        order.reverse()

    base = best["hooks stripped (derived from source)"]
    rows = [
        [name, seconds * 1e9 / (events * FWD_NUMBER), seconds / base]
        for name, seconds in best.items()
    ]
    emit(
        capsys,
        "E16: dormant observation hooks on hotpath_forwarding "
        f"({events} events, best of {REPEATS})",
        ["variant", "ns_per_event", "vs_stripped"],
        rows,
    )
    ratio = best["hooks present, dormant"] / base
    assert ratio <= TOLERANCE, (
        f"dormant observation hooks cost {ratio:.3f}x the stripped hot path "
        f"(budget {TOLERANCE}x); free observation must stay free"
    )


if __name__ == "__main__":  # pragma: no cover - manual runs
    import pytest
    import sys

    sys.exit(pytest.main([__file__, "-x", "-q", "-s"]))
