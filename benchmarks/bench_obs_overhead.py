"""E16 — the zero-overhead guarantee for dormant observability hooks.

PR 1 added three instrumentation surfaces to the hot path:

* the scheduler's observer hook (one truthiness check per fired event),
* the scheduler's live-event accounting (an ``on_cancel`` slot set at
  push time so ``pending_live`` is O(1)),
* the network probe checks in the NCU and SS (one ``is not None`` per
  system call / hop).

This bench proves the guarantee the instrumentation was designed
around: with nothing installed, the event loop stays within noise
(≤ 5%) of the seed scheduler loop.  ``SeedScheduler`` below is a
faithful replica of the seed repo's run loop — same heap, same Event
objects, no hooks — so the comparison isolates exactly the code added
for observability.  A third measurement with a live observer installed
reports (but does not bound) the enabled cost.

Methodology: the workload is 64 self-rescheduling event chains (the
shape real protocol runs produce) driven to ~40k events; variants are
interleaved across repeats and the per-variant minimum is compared,
which cancels machine-load drift.
"""

from __future__ import annotations

import heapq
import timeit
from contextlib import contextmanager

from conftest import emit

from repro.hardware.ncu import NCU
from repro.hardware.switch import Leg, SwitchingSubsystem
from repro.sim.errors import SimulationError
from repro.sim.events import Event
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceKind

CHAINS = 64
EVENTS_PER_CHAIN = 600
REPEATS = 7
TOLERANCE = 1.05


class SeedScheduler:
    """Verbatim replica of the seed repo's scheduler (pre-observability).

    Same heap, same Event objects, same per-event ``until`` /
    ``max_events`` / ``stop_when`` checks and ``_drop_cancelled`` method
    call the seed's run loop performed — but none of the hooks — so the
    comparison isolates exactly the code added for observability.
    """

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._running = False

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay, action, *, priority=0, tag=""):
        # The seq counter keeps FIFO order among equal (time, priority)
        # events, as the seed's module-global event counter did.
        seq = self._seq
        self._seq = seq + 1
        event = Event(time=self._now + delay, priority=priority, seq=seq,
                      action=action, tag=tag)
        heapq.heappush(self._queue, event)
        return event

    def run(self, *, until=None, max_events=None, stop_when=None):
        self._running = True
        fired = 0
        try:
            while True:
                self._drop_cancelled()
                if not self._queue:
                    break
                event = self._queue[0]
                if until is not None and event.time > until:
                    self._now = max(self._now, until)
                    break
                heapq.heappop(self._queue)
                self._now = event.time
                event.action()
                self._events_processed += 1
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise RuntimeError(f"exceeded max_events={max_events}")
                if stop_when is not None and stop_when():
                    break
        finally:
            self._running = False
        return self._now

    def _drop_cancelled(self) -> None:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)


def drive(scheduler) -> int:
    """Run the chain workload on one scheduler; returns events fired."""
    remaining = [EVENTS_PER_CHAIN] * CHAINS

    def make_step(chain: int):
        def step() -> None:
            remaining[chain] -= 1
            if remaining[chain] > 0:
                scheduler.schedule(1.0, step, priority=chain % 3)
        return step

    for chain in range(CHAINS):
        scheduler.schedule(float(chain % 5), make_step(chain))
    scheduler.run()
    return CHAINS * EVENTS_PER_CHAIN


def measure(factory) -> float:
    """Seconds for one workload run (fresh scheduler per call)."""
    return timeit.timeit(lambda: drive(factory()), number=1)


def hooked_disabled() -> Scheduler:
    return Scheduler()


def hooked_enabled() -> Scheduler:
    sched = Scheduler()
    counters = {"events": 0}

    def observer(event: Event) -> None:
        counters["events"] += 1

    sched.add_observer(observer)
    return sched


def test_disabled_hooks_within_noise_of_seed_loop(capsys):
    variants = {
        "seed loop (replica)": SeedScheduler,
        "hooks present, disabled": hooked_disabled,
        "observer installed": hooked_enabled,
    }
    # Warm-up (bytecode, allocator, branch caches) before timing.
    for factory in variants.values():
        measure(factory)
    best = {name: float("inf") for name in variants}
    for _ in range(REPEATS):
        for name, factory in variants.items():
            best[name] = min(best[name], measure(factory))

    events = CHAINS * EVENTS_PER_CHAIN
    seed = best["seed loop (replica)"]
    rows = [
        [name, seconds * 1e9 / events, seconds / seed]
        for name, seconds in best.items()
    ]
    emit(
        capsys,
        "E16: observability hook overhead on the scheduler loop "
        f"({events} events, best of {REPEATS})",
        ["variant", "ns_per_event", "vs_seed"],
        rows,
    )
    ratio = best["hooks present, disabled"] / seed
    assert ratio <= TOLERANCE, (
        f"dormant observability hooks cost {ratio:.3f}x the seed loop "
        f"(budget {TOLERANCE}x); the zero-overhead guarantee is broken"
    )


# ----------------------------------------------------------------------
# E16b — dormant perf counters on the forwarding hot path
# ----------------------------------------------------------------------
# PR 6 added perf-counter hooks (``perf = x.perf; if perf is not None``)
# to the hot functions: Scheduler._push (push count — the shared enqueue
# fast path behind schedule/schedule_at), Scheduler.run (pop count +
# wall timer + cancelled-drop count), SwitchingSubsystem._forward and
# Leg._commit (hop counts: the first hop of a forward, then the walked
# transit hops of a cut-through leg), plus a timed region in
# NCU._complete.  The replicas below
# are those functions with exactly the perf lines removed — the same
# methodology as SeedScheduler above, applied per-function so the gate
# isolates precisely the code this PR added.  The classes are patched
# *before* the network is built because SS port tables capture bound
# ``_deliver`` methods (and the NCU its ``_complete_cb``) at build time.

FWD_LENGTH = 64
FWD_PACKETS = 200
FWD_REPEATS = 7
#: Workload runs per timed sample.  Cut-through made one run ~10 ms (600
#: events carry all 12,600 hops), too short to time against scheduler
#: noise; three runs bring a sample back to the ~30 ms one run took when
#: every hop was an event.
FWD_NUMBER = 3


def _push_noperf(self, time, action, priority, tag, args):
    seq = self._seq
    self._seq = seq + 1
    event = Event.__new__(Event)
    event.time = time
    event.priority = priority
    event.seq = seq
    event.action = action
    event.args = args
    event.tag = tag
    event.cancelled = False
    event.on_cancel = self._note_cancelled_cb
    heapq.heappush(self._queue, (time, priority, seq, event))
    return event


def _run_noperf(self, *, until=None, max_events=None, stop_when=None):
    if self._running:
        raise SimulationError("scheduler is already running (re-entrant run)")
    self._running = True
    fired = 0
    observers = self._observers
    queue = self._queue
    pop = heapq.heappop
    try:
        while True:
            while queue and queue[0][3].cancelled:
                pop(queue)
                self._cancelled_pending -= 1
            if not queue:
                break
            entry = queue[0]
            time = entry[0]
            if until is not None and time > until:
                self._now = max(self._now, until)
                break
            pop(queue)
            event = entry[3]
            event.on_cancel = None
            self._now = time
            event.action(*event.args)
            self._events_processed += 1
            if observers:
                for observer in observers:
                    observer(event)
            fired += 1
            if max_events is not None and fired >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "a protocol is probably not terminating"
                )
            if stop_when is not None and stop_when():
                break
    finally:
        self._running = False
    return self._now


def _forward_noperf(self, packet, port):
    # The flow-control checks stay in this replica: E16b isolates the
    # perf lines only (E16c below isolates the fc checks the same way).
    net = self._node.net
    me = self._node.node_id
    link, other_id, receiving_normal, deliver = port
    if not link.active:
        net.metrics.count_drop("inactive_link")
        trace = net.trace
        if trace.enabled:
            trace.record(
                net.scheduler.now,
                TraceKind.PACKET_DROPPED,
                me,
                packet=packet.seq,
                reason="inactive_link",
                link=link.key,
            )
        return

    fc = link.fc
    if fc is not None:
        link.fc_forward(me, packet, port)
        return

    now = net.scheduler.now
    delays = net.delays
    delay = delays.hardware_delay(link.key, packet.seq)
    arrival = link.fifo_arrival(me, now + delay)
    packet.hops += 1
    packet._reverse.append(receiving_normal)
    net.metrics.count_hop(link.key)
    probe = net.probe
    if probe is not None:
        probe.hop(link.key, now)
    trace = net.trace
    if trace.enabled:
        trace.record(
            now,
            TraceKind.PACKET_HOP,
            me,
            packet=packet.seq,
            link=link.key,
            to=other_id,
        )

    header = packet.header
    pos = packet.header_pos
    end = len(header)
    flag = self._copy_flag
    step = None
    if pos < end and header[pos] and not header[pos] & flag:
        step = delays.fixed_hardware_delay
    if step is not None:
        port_by_id = deliver.__self__._port_by_id
        here = other_id
        ports = times = None
        t = arrival
        while pos < end:
            next_id = header[pos]
            if next_id & flag:
                break
            hop = port_by_id.get(next_id)
            if hop is None:
                break
            hop_link = hop[0]
            if not hop_link.active or hop_link.fc is not None:
                break
            if here == hop_link._u_id:
                watermark = hop_link._arrival_u
            else:
                watermark = hop_link._arrival_v
            t_next = t + step
            if watermark > t_next:
                t_next = watermark
            if ports is None:
                ports = [port, hop]
                times = [now, t, t_next]
            else:
                ports.append(hop)
                times.append(t_next)
            t = t_next
            here = hop[1]
            port_by_id = hop[3].__self__._port_by_id
            pos += 1
        if ports is not None:
            leg = Leg(net, packet, ports, times)
            net._legs[leg] = None
            leg.event = net.scheduler.schedule_at(t, Leg.land, 0, "hop", (leg,))
            return
    net.scheduler.schedule_at(arrival, deliver, 0, "hop", (packet, link))


def _commit_noperf(self, upto):
    if upto <= 1:
        return
    net = self.net
    packet = self.packet
    ports, times = self.ports, self.times
    hops = ports[1:upto]
    keys = [hop[0].key for hop in hops]
    net.metrics.count_hops(keys)
    packet._reverse.extend([hop[2] for hop in hops])
    walked = upto - 1
    packet.hops += walked
    packet.header_pos += walked
    here = ports[0][1]
    for (link, other_id, _, _), arrival in zip(hops, times[2 : upto + 1]):
        if here == link._u_id:
            if arrival > link._arrival_u:
                link._arrival_u = arrival
        elif arrival > link._arrival_v:
            link._arrival_v = arrival
        here = other_id
    probe = net.probe
    if probe is not None:
        for key, departed in zip(keys, times[1:upto]):
            probe.hop(key, departed)
    trace = net.trace
    if trace.enabled:
        seq = packet.seq
        here = ports[0][1]
        for (link, other_id, _, _), departed in zip(hops, times[1:upto]):
            trace.record(
                departed,
                TraceKind.PACKET_HOP,
                here,
                packet=seq,
                link=link.key,
                to=other_id,
            )
            here = other_id


def _complete_noperf(self, job):
    net = self._node.net
    assert self.handler is not None
    ports = self._ports_scratch
    if ports is None:
        ports = self._ports_scratch = set()
    else:
        ports.clear()
    self.ports_used_this_call = ports
    try:
        self.handler(self._node.api, job)
    finally:
        self.ports_used_this_call = None
        trace = net.trace
        if trace.enabled:
            trace.record(
                net.scheduler.now,
                TraceKind.NCU_JOB_END,
                self._node.node_id,
                job=job.accounting_kind,
            )
        probe = net.probe
        if probe is not None:
            probe.ncu_job_end(
                self._node.node_id, job.accounting_kind, net.scheduler.now
            )
        self._busy = False
        if self._queue:
            self._begin_next()


_STRIPPED = (
    (Scheduler, "_push", _push_noperf),
    (Scheduler, "run", _run_noperf),
    (SwitchingSubsystem, "_forward", _forward_noperf),
    (Leg, "_commit", _commit_noperf),
    (NCU, "_complete", _complete_noperf),
)


@contextmanager
def _perf_hooks_stripped():
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _fn in _STRIPPED]
    for cls, name, fn in _STRIPPED:
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
    net.attach(lambda api: Protocol(api))
    header = build_anr(list(range(FWD_LENGTH)), net.id_lookup)
    source = net.node(0)
    for i in range(FWD_PACKETS):
        net.scheduler.schedule_at(
            0.01 * i, source.inject, args=(header, i), tag="inject"
        )
    net.run_to_quiescence(max_events=10_000_000)
    return net.scheduler.events_processed


def _measure_forwarding(stripped: bool) -> float:
    if stripped:
        with _perf_hooks_stripped():
            return timeit.timeit(forwarding_workload, number=FWD_NUMBER)
    return timeit.timeit(forwarding_workload, number=FWD_NUMBER)


def test_dormant_perf_counters_within_noise_on_forwarding(capsys):
    variants = {
        "perf hooks stripped (replica)": True,
        "perf hooks present, dormant": False,
    }
    events = forwarding_workload()  # also serves as warm-up
    for stripped in variants.values():
        _measure_forwarding(stripped)
    best = {name: float("inf") for name in variants}
    for _ in range(FWD_REPEATS):
        for name, stripped in variants.items():
            best[name] = min(best[name], _measure_forwarding(stripped))

    base = best["perf hooks stripped (replica)"]
    rows = [
        [name, seconds * 1e9 / (events * FWD_NUMBER), seconds / base]
        for name, seconds in best.items()
    ]
    emit(
        capsys,
        "E16b: dormant perf-counter overhead on hotpath_forwarding "
        f"({events} events, best of {FWD_REPEATS})",
        ["variant", "ns_per_event", "vs_stripped"],
        rows,
    )
    ratio = best["perf hooks present, dormant"] / base
    assert ratio <= TOLERANCE, (
        f"dormant perf counters cost {ratio:.3f}x the stripped hot path "
        f"(budget {TOLERANCE}x); the ≤5% attribution guarantee is broken"
    )


# ----------------------------------------------------------------------
# E16c — dormant flow control on the forwarding hot path
# ----------------------------------------------------------------------
# The congestion PR added credit-based flow control to ``Link``; the
# free-hardware forwarding path pays one ``fc = link.fc`` attribute load
# plus an ``is not None`` check per forward, and one more ``fc is not
# None`` per walked transit hop, when no limits are configured (the
# default).  ``_forward_nofc`` below is ``_forward`` with exactly those
# checks removed — the perf lines stay, so the gate isolates precisely
# the flow-control checks.


def _forward_nofc(self, packet, port):
    net = self._node.net
    me = self._node.node_id
    link, other_id, receiving_normal, deliver = port
    if not link.active:
        net.metrics.count_drop("inactive_link")
        trace = net.trace
        if trace.enabled:
            trace.record(
                net.scheduler.now,
                TraceKind.PACKET_DROPPED,
                me,
                packet=packet.seq,
                reason="inactive_link",
                link=link.key,
            )
        return

    now = net.scheduler.now
    delays = net.delays
    delay = delays.hardware_delay(link.key, packet.seq)
    arrival = link.fifo_arrival(me, now + delay)
    packet.hops += 1
    packet._reverse.append(receiving_normal)
    net.metrics.count_hop(link.key)
    probe = net.probe
    if probe is not None:
        probe.hop(link.key, now)
    perf = net.perf
    if perf is not None:
        perf.ss_hops += 1
    trace = net.trace
    if trace.enabled:
        trace.record(
            now,
            TraceKind.PACKET_HOP,
            me,
            packet=packet.seq,
            link=link.key,
            to=other_id,
        )

    header = packet.header
    pos = packet.header_pos
    end = len(header)
    flag = self._copy_flag
    step = None
    if pos < end and header[pos] and not header[pos] & flag:
        step = delays.fixed_hardware_delay
    if step is not None:
        port_by_id = deliver.__self__._port_by_id
        here = other_id
        ports = times = None
        t = arrival
        while pos < end:
            next_id = header[pos]
            if next_id & flag:
                break
            hop = port_by_id.get(next_id)
            if hop is None:
                break
            hop_link = hop[0]
            if not hop_link.active:
                break
            if here == hop_link._u_id:
                watermark = hop_link._arrival_u
            else:
                watermark = hop_link._arrival_v
            t_next = t + step
            if watermark > t_next:
                t_next = watermark
            if ports is None:
                ports = [port, hop]
                times = [now, t, t_next]
            else:
                ports.append(hop)
                times.append(t_next)
            t = t_next
            here = hop[1]
            port_by_id = hop[3].__self__._port_by_id
            pos += 1
        if ports is not None:
            leg = Leg(net, packet, ports, times)
            net._legs[leg] = None
            leg.event = net.scheduler.schedule_at(t, Leg.land, 0, "hop", (leg,))
            return
    net.scheduler.schedule_at(arrival, deliver, 0, "hop", (packet, link))


@contextmanager
def _fc_hooks_stripped():
    saved = SwitchingSubsystem.__dict__["_forward"]
    SwitchingSubsystem._forward = _forward_nofc
    try:
        yield
    finally:
        SwitchingSubsystem._forward = saved


def _measure_forwarding_nofc(stripped: bool) -> float:
    if stripped:
        with _fc_hooks_stripped():
            return timeit.timeit(forwarding_workload, number=FWD_NUMBER)
    return timeit.timeit(forwarding_workload, number=FWD_NUMBER)


def test_dormant_flow_control_within_noise_on_forwarding(capsys):
    variants = {
        "fc check stripped (replica)": True,
        "fc check present, dormant": False,
    }
    events = forwarding_workload()  # also serves as warm-up
    for stripped in variants.values():
        _measure_forwarding_nofc(stripped)
    best = {name: float("inf") for name in variants}
    for _ in range(FWD_REPEATS):
        for name, stripped in variants.items():
            best[name] = min(best[name], _measure_forwarding_nofc(stripped))

    base = best["fc check stripped (replica)"]
    rows = [
        [name, seconds * 1e9 / (events * FWD_NUMBER), seconds / base]
        for name, seconds in best.items()
    ]
    emit(
        capsys,
        "E16c: dormant flow-control overhead on hotpath_forwarding "
        f"({events} events, best of {FWD_REPEATS})",
        ["variant", "ns_per_event", "vs_stripped"],
        rows,
    )
    ratio = best["fc check present, dormant"] / base
    assert ratio <= TOLERANCE, (
        f"the dormant flow-control check costs {ratio:.3f}x the stripped "
        f"hot path (budget {TOLERANCE}x); free hardware must stay free"
    )


if __name__ == "__main__":  # pragma: no cover - manual runs
    import pytest
    import sys

    sys.exit(pytest.main([__file__, "-x", "-q", "-s"]))
