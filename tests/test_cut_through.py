"""Cut-through transit forwarding: one scheduled event per run of hops.

Under a constant hardware delay an SS flies a packet through every
following pure transit hop as one :class:`~repro.hardware.switch.Leg`.
These tests pin that this changes nothing observable but the event
count: each scenario runs twice, once as-is and once under
:class:`PerHopDelays` — the same delays with the walk switched off — and
the two runs are compared on everything the paper accounts for.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from typing import Any

import networkx as nx
import pytest

from repro.hardware.anr import build_anr
from repro.hardware.switch import Leg
from repro.network.builder import from_spec
from repro.network.protocol import Protocol
from repro.obs.exporters import record_to_dict
from repro.sim import FixedDelays
from repro.sim.trace import TraceKind


class PerHopDelays(FixedDelays):
    """``FixedDelays`` whose hops are never flown as a leg (same values)."""

    @property
    def fixed_hardware_delay(self) -> float | None:
        return None


class Recorder(Protocol):
    """Logs every delivery: (payload, node, time, hops, reverse ANR)."""

    def __init__(self, api: Any, *, log: list) -> None:
        super().__init__(api)
        self._log = log

    def on_packet(self, packet: Any) -> None:
        self._log.append(
            (
                packet.payload,
                self.api.node_id,
                self.api.now,
                packet.hops,
                tuple(packet.reverse_anr),
            )
        )


def _network(spec: str, C: float, *, cut_through: bool, trace: bool = True):
    delays = FixedDelays(C, 1.0) if cut_through else PerHopDelays(C, 1.0)
    net = from_spec(spec, delays=delays, trace=trace)
    log: list = []
    net.attach(lambda api: Recorder(api, log=log))
    return net, log


def _metrics(net) -> dict[str, Any]:
    snap = net.metrics.snapshot()
    return {
        "system_calls": snap.system_calls,
        "hops": snap.hops,
        "packets_injected": snap.packets_injected,
        "header_ids": snap.header_ids,
        "copies": snap.copies,
        "drops": snap.drops,
        "per_node": dict(snap.system_calls_per_node),
        "by_kind": dict(snap.system_calls_by_kind),
        "per_link": dict(snap.hops_per_link),
    }


def _trace_view(net) -> dict[str, Any]:
    """Drop reasons and the drop/hop record multisets (time-stamped)."""

    def records(kind: TraceKind) -> Counter:
        return Counter(
            json.dumps(record_to_dict(r), sort_keys=True, default=repr)
            for r in net.trace
            if r.kind is kind
        )

    return {
        "drop_reasons": Counter(
            r.detail.get("reason")
            for r in net.trace
            if r.kind is TraceKind.PACKET_DROPPED
        ),
        "drops": records(TraceKind.PACKET_DROPPED),
        "hops": records(TraceKind.PACKET_HOP),
    }


def _watermarks(net) -> list:
    return [(link._arrival_u, link._arrival_v) for link in net.links.values()]


def _events_of(net, action) -> list:
    """Collect the first arg of every fired event whose action is ``action``."""
    seen: list = []

    def observe(event) -> None:
        if event.action is action:
            seen.append(event.args[0])

    net.scheduler.add_observer(observe)
    return seen


# ----------------------------------------------------------------------
# (a) link failure and restore mid-leg, on a time grid
# ----------------------------------------------------------------------

LINE = 12
STAGGER = (0.0, 0.5, 1.25)


def _line_run(C: float, link: int, fail_at: float, restore_at: float,
              *, cut_through: bool) -> dict[str, Any]:
    net, log = _network(f"line:{LINE}", C, cut_through=cut_through)
    header = build_anr(list(range(LINE)), net.id_lookup)
    source = net.node(0)
    for i, at in enumerate(STAGGER):
        net.scheduler.schedule_at(at, source.inject, args=(header, i))
    net.schedule_link_failure(link, link + 1, fail_at)
    net.schedule_link_restore(link, link + 1, restore_at)
    final = net.run_to_quiescence()
    return {
        "final": final,
        "metrics": _metrics(net),
        "trace": _trace_view(net),
        "deliveries": sorted(log),
        "watermarks": _watermarks(net),
    }


def _line_cases():
    for C in (0.0, 0.5, 1.0):
        horizon = STAGGER[-1] + LINE * C + 0.5
        grid = [k * 0.25 for k in range(int(horizon / 0.25) + 1)]
        for link in (0, 3, 7, 10):
            for fail_at in grid:
                for down in (0.0, 0.5, 2.25):
                    yield C, link, fail_at, fail_at + down


def test_link_changes_mid_leg_match_per_hop(monkeypatch):
    splits = []
    split = Leg.split

    def counting_split(leg, link):
        split(leg, link)
        splits.append(leg.event.cancelled)

    monkeypatch.setattr(Leg, "split", counting_split)
    cases = 0
    for C, link, fail_at, restore_at in _line_cases():
        fast = _line_run(C, link, fail_at, restore_at, cut_through=True)
        slow = _line_run(C, link, fail_at, restore_at, cut_through=False)
        assert fast == slow, (C, link, fail_at, restore_at)
        cases += 1
    assert cases >= 500
    # The grid really does cut legs mid-flight, and also changes links
    # that in-flight legs have already left behind.
    assert any(splits) and not all(splits)


# ----------------------------------------------------------------------
# (b) open-loop ANR streams with NCU contention
# ----------------------------------------------------------------------

def _stream_run(spec: str, C: float, *, cut_through: bool,
                packets: int = 1500, seed: int = 3) -> dict[str, Any]:
    net, log = _network(spec, C, cut_through=cut_through, trace=False)
    rng = random.Random(seed)
    nodes = sorted(net.nodes)
    for i in range(packets):
        src, dst = rng.sample(nodes, 2)
        route = nx.shortest_path(net.graph, src, dst)
        header = build_anr(route, net.id_lookup)
        net.scheduler.schedule_at(
            i * 0.05, net.node(src).inject, args=(header, (i, dst))
        )
    final = net.run_to_quiescence()
    return {
        "final": final,
        "metrics": _metrics(net),
        "packets": sorted((p, node, hops, rev) for p, node, _t, hops, rev in log),
        "handler_times": Counter((node, t) for _p, node, t, _h, _r in log),
        "watermarks": _watermarks(net),
        "events": net.scheduler.events_processed,
    }


@pytest.mark.parametrize("spec", ["torus:8,8", "grid:6,6"])
@pytest.mark.parametrize("C", [0.0, 0.1, 0.25])
def test_anr_streams_match_per_hop(spec, C):
    fast = _stream_run(spec, C, cut_through=True)
    slow = _stream_run(spec, C, cut_through=False)
    assert fast["events"] < slow["events"]
    for key in ("final", "metrics", "packets", "handler_times", "watermarks"):
        assert fast[key] == slow[key], key
    assert all(dst == node for (_i, dst), node, *_ in fast["packets"])


# ----------------------------------------------------------------------
# (c) where a leg stops
# ----------------------------------------------------------------------

def test_walk_stops_at_copy_ids():
    net, log = _network("line:8", 1.0, cut_through=True)
    legs = _events_of(net, Leg.land)
    header = build_anr(list(range(8)), net.id_lookup, copy_at=[4])
    net.node(0).inject(header, "p")
    net.run_to_quiescence()
    assert [(len(leg.ports), leg.ports[-1][1]) for leg in legs] == [(4, 4), (3, 7)]
    assert [(node, t) for _p, node, t, _h, _r in log] == [(4, 5.0), (7, 8.0)]


def test_walk_stops_at_group_ids():
    net, log = _network("line:8", 1.0, cut_through=True)
    legs = _events_of(net, Leg.land)
    group = net.allocate_group_id()
    net.node(4).ss.install_group(group, (net.link(4, 5),), to_ncu=False)
    net.node(5).ss.install_group(group, (), to_ncu=True)
    header = build_anr(list(range(5)), net.id_lookup, deliver=False) + (group,)
    net.node(0).inject(header, "g")
    net.run_to_quiescence()
    assert [(len(leg.ports), leg.ports[-1][1]) for leg in legs] == [(4, 4)]
    assert [(node, hops) for _p, node, _t, hops, _r in log] == [(5, 5)]


def test_walk_stops_at_flow_controlled_links():
    net, log = _network("line:8", 1.0, cut_through=True)
    legs = _events_of(net, Leg.land)
    net.set_flow_control(rate=10.0, buffer=2, links=[(4, 5)])
    net.node(0).inject(build_anr(list(range(8)), net.id_lookup), "f")
    net.run_to_quiescence()
    assert [(len(leg.ports), leg.ports[-1][1]) for leg in legs] == [(4, 4), (2, 7)]
    assert [(node, hops) for _p, node, _t, hops, _r in log] == [(7, 7)]


@pytest.mark.parametrize("at", [0.0, 2.5, 3.0, 5.0])
def test_set_flow_control_on_a_crossed_link_splits_the_leg(at):
    runs = []
    for cut_through in (True, False):
        net, log = _network("line:8", 1.0, cut_through=cut_through)
        legs = _events_of(net, Leg.land)
        net.node(0).inject(build_anr(list(range(8)), net.id_lookup), "s")
        net.scheduler.schedule_at(
            at, lambda: net.set_flow_control(rate=0.5, buffer=1, links=[(4, 5)])
        )
        final = net.run_to_quiescence()
        runs.append((final, _metrics(net), _trace_view(net), log, legs))
    (final, metrics, trace, log, legs), (s_final, s_metrics, s_trace, s_log, _) = runs
    assert (final, metrics, trace, log) == (s_final, s_metrics, s_trace, s_log)
    # The first leg (0 -> 7) never lands: the change splits it.
    assert all(leg.ports[0][1] != 1 for leg in legs)
    assert not net._legs


# ----------------------------------------------------------------------
# (d) the hotpath_forwarding shape: one event per leg
# ----------------------------------------------------------------------

def test_hotpath_shape_fires_one_event_per_leg():
    length, packets = 64, 200
    net = from_spec(f"line:{length}", delays=FixedDelays(0.1, 1.0))
    net.attach(lambda api: Protocol(api))
    header = build_anr(list(range(length)), net.id_lookup)
    source = net.node(0)
    for i in range(packets):
        net.scheduler.schedule_at(0.01 * i, source.inject, args=(header, i))
    net.run_to_quiescence()
    # Per packet: the injection, one leg down the line, one NCU job.
    assert net.scheduler.events_processed == 3 * packets == 600
    assert net.metrics.hops == (length - 1) * packets == 12_600


def test_tracing_does_not_switch_cut_through_off():
    counts = []
    for trace in (False, True):
        net, _log = _network("line:16", 0.5, cut_through=True, trace=trace)
        net.node(0).inject(build_anr(list(range(16)), net.id_lookup), "t")
        net.run_to_quiescence()
        counts.append(net.scheduler.events_processed)
    assert counts[0] == counts[1] == 2  # one leg, one NCU job


# ----------------------------------------------------------------------
# (e) reset with legs in flight
# ----------------------------------------------------------------------

def _drive_line(net, log) -> dict[str, Any]:
    header = build_anr(list(range(LINE)), net.id_lookup)
    source = net.node(0)
    for i, at in enumerate(STAGGER):
        net.scheduler.schedule_at(at, source.inject, args=(header, i))
    net.schedule_link_failure(6, 7, 4.0)
    net.schedule_link_restore(6, 7, 5.0)
    final = net.run_to_quiescence()
    metrics = {
        key: sorted(value.items(), key=repr) if isinstance(value, dict) else value
        for key, value in _metrics(net).items()
    }
    doc = {
        "events": net.scheduler.events_processed,
        "final": final,
        "metrics": metrics,
        "deliveries": log,
        "trace": [record_to_dict(r) for r in net.trace],
        "watermarks": _watermarks(net),
    }
    return json.loads(json.dumps(doc, sort_keys=True, default=repr))


def test_reset_with_legs_in_flight_is_byte_identical_to_fresh_build():
    fresh_net, fresh_log = _network(f"line:{LINE}", 0.5, cut_through=True)
    fresh = _drive_line(fresh_net, fresh_log)

    net, _log = _network(f"line:{LINE}", 0.5, cut_through=True)
    header = build_anr(list(range(LINE)), net.id_lookup)
    for i in range(3):
        net.scheduler.schedule_at(0.25 * i, net.node(0).inject, args=(header, i))
    net.run(until=1.0)
    assert net._legs  # packets are mid-leg when the network is reset
    net.reset(delays=FixedDelays(0.5, 1.0))
    assert not net._legs
    log: list = []
    net.attach(lambda api: Recorder(api, log=log))
    assert _drive_line(net, log) == fresh


# ----------------------------------------------------------------------
# FIFO behind a queue that outlives its flow control
# ----------------------------------------------------------------------

def test_walked_hops_keep_fifo_behind_a_drained_flow_controlled_link():
    # Flow control queues packets on link 4-5, then is removed while
    # packets still wait there; they drain on the old schedule, pushing
    # the link's FIFO watermark ahead of the clock, while later packets
    # walk over 4-5.  Each walked hop must stay behind every packet
    # already promised on the link, exactly as per-hop forwarding does.
    # (Off-grid times: same-instant ties may order differently, which is
    # the documented leg contract, not what this test is about.)
    runs = []
    for cut_through in (True, False):
        net, log = _network("line:8", 1.0, cut_through=cut_through)
        net.set_flow_control(rate=0.3, buffer=1, links=[(4, 5)])
        header = build_anr(list(range(8)), net.id_lookup)
        source = net.node(0)
        for i in range(24):
            net.scheduler.schedule_at(0.37 * i, source.inject, args=(header, i))
        net.scheduler.schedule_at(
            6.1, lambda: net.set_flow_control(links=[(4, 5)])
        )
        final = net.run_to_quiescence()
        runs.append(
            (
                final,
                _metrics(net),
                _trace_view(net),
                sorted((p, node, hops, rev) for p, node, _t, hops, rev in log),
                Counter((node, t) for _p, node, t, _h, _r in log),
                _watermarks(net),
            )
        )
    # Clamped packets reach node 7 together, so (as in the streams
    # above) only the multiset of NCU service times is comparable.
    assert runs[0] == runs[1]
    assert max(runs[0][4])[1] > 24 * 0.37 + 7 + 1  # the drain delayed packets
