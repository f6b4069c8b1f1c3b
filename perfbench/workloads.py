"""The benchmark's workloads: seeded inputs, set-up, the timed loop, checks.

Each workload drives the simulator only through its public functions
and checks every simulation against expectations computed here, not
read back from the engine.  A workload runs untraced, or traced when
given a :class:`~perfbench.tracing.Tracer`: the protocols are then
wrapped by :func:`~perfbench.tracing.traced_protocol` and the calls
into each layer are spans.

The loop repeats one *round* until the run's seconds are spent:

* ``fabric_broadcast``: one task, flooding then branching paths from
  node 0 on one built fat tree (two simulations);
* ``anr_stream``: one task, an open-loop stream of seeded ANR unicasts;
* ``churn_campaign``: one campaign of 200 seeded churn scenarios, each
  scenario a task.
"""

from __future__ import annotations

import functools
import gc
import math
import random
import traceback
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, ContextManager

from repro.core import BranchingPathsBroadcast, FloodingBroadcast, LeaderElection
from repro.exec import TaskSpec, run_campaign
from repro.hardware.ids import NCU_ID
from repro.network import Protocol, from_spec, graph_from_spec
from repro.scenario import churn_scenario, scenario_metrics
from repro.sim.delays import FixedDelays

from . import tasks
from .tracing import TracedApi, Tracer, traced_protocol


@dataclass
class Tally:
    """Everything one phase (untraced or traced) of a run measured."""

    setup_s: list[float] = field(default_factory=list)
    task_s: list[float] = field(default_factory=list)
    #: Wall seconds of the timed loop (set-up excluded).
    wall_s: float = 0.0
    #: Host seconds spent simulating (start/inject + run to quiescence;
    #: for campaigns, the tasks' own wall time).
    sim_s: float = 0.0
    system_calls: int = 0
    hops: int = 0
    copies: int = 0
    drops: int = 0
    events: int = 0
    ncu_queue_peak: int = 0
    campaign_s: float = 0.0
    retries: int = 0
    tasks_failed: int = 0
    violations: int = 0
    #: Simulations (or campaign tasks) attempted, and those that raised
    #: or failed a check.
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def settle(self, what: str, checks: list[tuple[bool, str]]) -> None:
        """Count one simulation; it fails if any check does."""
        self.attempted += 1
        bad = [message for ok, message in checks if not ok]
        if bad:
            self.failed += 1
            self.errors.append(f"{what}: " + "; ".join(bad))

    def count(self, net: Any) -> None:
        """Add one finished simulation's hardware counters."""
        metrics = net.metrics
        self.system_calls += metrics.system_calls
        self.hops += metrics.hops
        self.copies += metrics.copies
        self.drops += metrics.drops
        self.events += net.scheduler.events_processed


class Workload:
    """Set-up and timed loop shared by every workload."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_reps = 1
    #: Simulations per task (counted as failed if a task raises).
    sims_per_task = 1

    def __init__(self, seed: int, tracer: Tracer | None = None) -> None:
        self.seed = seed
        self.tracer = tracer

    def span(self, name: str) -> ContextManager[Any]:
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def measure(self, seconds: float) -> Tally:
        """Set up ``setup_reps`` times, then repeat rounds for ``seconds``.

        The loop stops at the round boundary nearest to ``seconds``
        (always after at least one round).  Set-ups run back to back
        without collecting the networks they replace: collecting
        between them lets some builds reuse freed memory and others
        not, which made the median jump between two modes from run to
        run.  One collection after the last set-up keeps that garbage
        out of the timed loop.
        """
        tally = Tally()
        for _ in range(self.setup_reps):
            self.release()
            tally.setup_s.append(self.setup())
        gc.collect()
        start = perf_counter()
        rounds = 0
        while True:
            try:
                self.task(tally)
            except Exception:  # counted and reported, never hidden
                tally.attempted += self.sims_per_task
                tally.failed += self.sims_per_task
                tally.errors.append(traceback.format_exc())
                break
            rounds += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / rounds / 2 >= seconds:
                break
        tally.wall_s = perf_counter() - start
        self.release()
        return tally

    def setup(self) -> float:
        """Build, derive views and attach once; returns the seconds taken."""
        raise NotImplementedError

    def task(self, tally: Tally) -> None:
        """One round of the loop: one task, or a campaign of them."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop the built network so the next phase starts clean."""

    def _build(self, spec: str, delays: Any, factory: Any) -> tuple[Any, float]:
        t0 = perf_counter()
        with self.span("network.build"):
            net = from_spec(spec, delays=delays)
        with self.span("network.views"):
            net.adjacency()
        with self.span("network.attach"):
            net.attach(factory)
        elapsed = perf_counter() - t0
        if self.tracer is not None:
            # The graph generation from_spec just did, timed on its own.
            with self.span("network.graph"):
                graph_from_spec(spec)
        return net, elapsed

    def _simulate(self, net: Any, factory: Any, trigger: Any, tally: Tally) -> None:
        """Reset, attach, trigger and run one simulation on ``net``."""
        tracer = self.tracer
        with self.span("network.reset"):
            net.reset()
        if tracer is not None:
            tracer.install(net.scheduler)
        with self.span("network.attach"):
            net.attach(factory)
        t0 = perf_counter()
        trigger(net)
        if tracer is not None:
            tracer.run("sim.run", net.run_to_quiescence)
        else:
            net.run_to_quiescence()
        tally.sim_s += perf_counter() - t0
        tally.count(net)
        if tracer is not None:
            peak = max(node.ncu.queue_peak for node in net.nodes.values())
            tally.ncu_queue_peak = max(tally.ncu_queue_peak, peak)


class FabricBroadcast(Workload):
    """The paper's §3 pair on a 9,472-node fat tree at C=0, P=1."""

    name = "fabric_broadcast"
    SPEC = "fat_tree:32"
    K = 32
    ROOT = 0
    setup_reps = 5
    sims_per_task = 2

    def __init__(self, seed: int, tracer: Tracer | None = None) -> None:
        super().__init__(seed, tracer)
        k = self.K
        # Closed forms of the k-ary fat tree: k³/4 hosts, 5k²/4
        # switches; k³/4 links in each of its three tiers.
        self.n = k**3 // 4 + 5 * k * k // 4
        self.m = 3 * k**3 // 4
        # The inputs are the paper's fixed pair; the seed only picks
        # the broadcast body.
        self.body = random.Random(seed).getrandbits(32)
        flood, bpaths = FloodingBroadcast, BranchingPathsBroadcast
        if tracer is not None:
            flood = traced_protocol(flood, "flood", tracer)
            bpaths = traced_protocol(bpaths, "bpaths", tracer)
        self.flood = functools.partial(flood, root=self.ROOT, body=self.body)
        self.bpaths_cls = bpaths
        self.net: Any = None

    def setup(self) -> float:
        self.net, elapsed = self._build(
            self.SPEC, FixedDelays(0.0, 1.0), self.flood
        )
        return elapsed

    def release(self) -> None:
        self.net = None

    def task(self, tally: Tally) -> None:
        net = self.net
        t0 = perf_counter()
        self._simulate(net, self.flood, self._start, tally)
        flood = self._outcome(net)
        bpaths_factory = functools.partial(
            self.bpaths_cls,
            root=self.ROOT,
            adjacency=net.adjacency(),
            ids=net.id_lookup,
            body=self.body,
        )
        self._simulate(net, bpaths_factory, self._start, tally)
        bpaths = self._outcome(net)
        tally.task_s.append(perf_counter() - t0)
        with self.span("bench.check"):
            self._check(flood, bpaths, tally)

    def _start(self, net: Any) -> None:
        with self.span("network.start"):
            net.start([self.ROOT])

    @staticmethod
    def _outcome(net: Any) -> dict[str, Any]:
        metrics = net.metrics
        return {
            "received": net.outputs_for_key("received_at"),
            "calls": metrics.system_calls,
            "start_calls": metrics.system_calls_of_kind("start"),
            "drops": metrics.drops,
        }

    def _check(self, flood: dict, bpaths: dict, tally: Tally) -> None:
        n, m = self.n, self.m
        everyone = set(range(n))
        relays = flood["calls"] - flood["start_calls"]
        tally.settle("flood", [
            (set(flood["received"]) == everyone,
             f"{len(flood['received'])} of {n} nodes informed"),
            (m <= relays <= 2 * m, f"{relays} calls outside [m, 2m] = [{m}, {2 * m}]"),
            (flood["drops"] == 0, f"{flood['drops']} drops"),
        ])
        completion = max(bpaths["received"].values(), default=math.inf)
        bound = math.ceil(math.log2(n))
        tally.settle("branching paths", [
            (set(bpaths["received"]) == everyone,
             f"{len(bpaths['received'])} of {n} nodes informed"),
            (bpaths["calls"] == n, f"{bpaths['calls']} system calls, expected n = {n}"),
            (completion <= bound, f"completion {completion} > ceil(log2 n) = {bound}"),
            (bpaths["drops"] == 0, f"{bpaths['drops']} drops"),
        ])


class Sink(Protocol):
    """The null handler: notes which packet reached which node."""

    def __init__(self, api: Any, *, log: list) -> None:
        super().__init__(api)
        self._log = log
        self._me = api.node_id

    def on_packet(self, packet: Any) -> None:
        self._log.append((packet.payload, self._me))


class AnrStream(Workload):
    """20,000 seeded ANR unicasts on a 32×32 torus at C=0.1, P=1."""

    name = "anr_stream"
    SPEC = "torus:32,32"
    ROWS = COLS = 32
    PACKETS = 20_000
    SOURCES = 32
    #: Injections per simulated time unit (open loop: all pre-scheduled).
    RATE = 20.0
    C, P = 0.1, 1.0
    setup_reps = 11

    def __init__(self, seed: int, tracer: Tracer | None = None) -> None:
        super().__init__(seed, tracer)
        self.sink = Sink if tracer is None else traced_protocol(Sink, "null", tracer)
        self.net: Any = None
        self.sources: list[Any] = []
        self.packets: list[tuple[float, Any, tuple[int, ...], int]] = []
        self.dest: list[Any] = []
        self.expected_hops = 0

    def setup(self) -> float:
        factory = functools.partial(self.sink, log=[])
        self.net, elapsed = self._build(
            self.SPEC, FixedDelays(self.C, self.P), factory
        )
        if not self.packets:
            with self.span("bench.inputs"):
                self._make_inputs(self.net)
        return elapsed

    def release(self) -> None:
        self.net = None

    def _torus_distance(self, a: int, b: int) -> int:
        (ra, ca), (rb, cb) = divmod(a, self.COLS), divmod(b, self.COLS)
        dr, dc = abs(ra - rb), abs(ca - cb)
        return min(dr, self.ROWS - dr) + min(dc, self.COLS - dc)

    def _make_inputs(self, net: Any) -> None:
        """Seeded sources, destinations and BFS shortest-path ANR headers."""
        rng = random.Random(self.seed)
        adjacency = net.adjacency()
        nodes = sorted(adjacency)
        sources = self.sources = rng.sample(nodes, self.SOURCES)
        parents = {source: _bfs_parents(adjacency, source) for source in sources}
        ids: dict[tuple[Any, Any], int] = {}
        for i in range(self.PACKETS):
            source = rng.choice(sources)
            dest = rng.choice(nodes)
            while dest == source:
                dest = rng.choice(nodes)
            route = [dest]
            parent = parents[source]
            while route[-1] != source:
                route.append(parent[route[-1]])
            route.reverse()
            hops = len(route) - 1
            if hops != self._torus_distance(source, dest):
                raise RuntimeError(f"route {source}->{dest} is not shortest")
            header = []
            for a, b in zip(route, route[1:]):
                link_id = ids.get((a, b))
                if link_id is None:
                    link_id = ids[(a, b)] = net.id_lookup(a, b)[0]
                header.append(link_id)
            header.append(NCU_ID)
            self.packets.append((i / self.RATE, source, tuple(header), i))
            self.dest.append(dest)
            self.expected_hops += hops

    def task(self, tally: Tally) -> None:
        net = self.net
        log: list[tuple[int, Any]] = []
        calls0, hops0, drops0 = tally.system_calls, tally.hops, tally.drops
        t0 = perf_counter()
        self._simulate(
            net, functools.partial(self.sink, log=log), self._inject, tally
        )
        tally.task_s.append(perf_counter() - t0)
        with self.span("bench.check"):
            self._check(
                log,
                tally.system_calls - calls0,
                tally.hops - hops0,
                tally.drops - drops0,
                tally,
            )

    def _inject(self, net: Any) -> None:
        with self.span("sim.schedule"):
            schedule_at = net.scheduler.schedule_at
            send = {}
            for source in self.sources:
                api = net.nodes[source].api
                if self.tracer is not None:
                    api = TracedApi(api, self.tracer)
                send[source] = api.send
            for at, source, header, index in self.packets:
                schedule_at(at, send[source], 0, "inject", (header, index))

    def _check(self, log: list, calls: int, hops: int, drops: int, tally: Tally) -> None:
        seen = bytearray(self.PACKETS)
        misdelivered = duplicates = 0
        dest = self.dest
        for index, node in log:
            if seen[index]:
                duplicates += 1
            seen[index] = 1
            if node != dest[index]:
                misdelivered += 1
        missing = self.PACKETS - sum(seen)
        tally.settle("anr stream", [
            (missing == 0, f"{missing} packets never delivered"),
            (duplicates == 0, f"{duplicates} duplicate deliveries"),
            (misdelivered == 0, f"{misdelivered} packets at the wrong node"),
            (calls == self.PACKETS, f"{calls} system calls for {self.PACKETS} packets"),
            (hops == self.expected_hops,
             f"{hops} hops, routes sum to {self.expected_hops}"),
            (drops == 0, f"{drops} drops"),
        ])


def _bfs_parents(adjacency: Any, root: Any) -> dict[Any, Any]:
    parent = {root: None}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor not in parent:
                parent[neighbor] = node
                queue.append(neighbor)
    return parent


class ChurnCampaign(Workload):
    """200 adversarial-delay runs of one seeded churn story, as a campaign."""

    name = "churn_campaign"
    SPEC = "grid:8,8"
    SCENARIO_SEED = 11
    CRASHES = 2
    TASKS = 200
    setup_reps = 41
    sims_per_task = TASKS

    def __init__(self, seed: int, tracer: Tracer | None = None) -> None:
        super().__init__(seed, tracer)
        scenario = churn_scenario(
            self.SPEC, seed=self.SCENARIO_SEED, C=0.0, P=1.0, crashes=self.CRASHES
        )
        rng = random.Random(seed)
        seeds = [rng.randrange(1, 2**31) for _ in range(self.TASKS)]
        fn: Any = scenario_metrics
        self.election: Any = LeaderElection
        if tracer is not None:
            fn = tasks.traced_scenario_metrics
            self.election = traced_protocol(LeaderElection, "election", tracer)
        self.specs = [TaskSpec.make(fn, seed=s, spec=scenario.to_dict()) for s in seeds]
        #: Rows every campaign must reproduce exactly: the untraced
        #: phase's rows in a traced run, else this run's first campaign.
        self.reference: list | None = None

    def setup(self) -> float:
        _, elapsed = self._build(self.SPEC, FixedDelays(0.0, 1.0), self.election)
        return elapsed

    def task(self, tally: Tally) -> None:
        if self.tracer is not None:
            tasks.CONTEXT = (self.tracer, tally, self.election)
        try:
            with self.span("exec.campaign"):
                outcome = run_campaign(self.specs, jobs=1, cache=None)
        finally:
            tasks.CONTEXT = None
        tally.campaign_s += outcome.wall_ms / 1000.0
        tally.retries += outcome.retries_used
        rows = [result.value for result in outcome.results]
        if self.reference is None:
            self.reference = rows
        with self.span("bench.check"):
            for i, result in enumerate(outcome.results):
                self._check(result, self.reference[i], tally)

    def _check(self, result: Any, reference: Any, tally: Tally) -> None:
        wall_s = result.wall_ms / 1000.0
        tally.task_s.append(wall_s)
        tally.sim_s += wall_s
        if not result.ok:
            tally.tasks_failed += 1
            tally.settle(result.spec.label, [(False, str(result.error))])
            return
        row = result.value
        tally.system_calls += row["system_calls"]
        tally.hops += row["hops"]
        tally.drops += row["drops"]
        tally.events += row["events"]
        tally.violations += row["violations"]
        # The story heals every cut link and restarts every victim, and
        # an 8×8 grid is connected: one component, so one leader.
        tally.settle(result.spec.label, [
            (row["violations"] == 0, f"{row['violations']} monitor violations"),
            (row["components"] == 1, f"{row['components']} components, expected 1"),
            (len(row["leaders"]) == 1, f"leaders {row['leaders']}, expected one"),
            (row == reference, "row differs from the same seed's reference row"),
        ])


WORKLOADS = {w.name: w for w in (FabricBroadcast, AnrStream, ChurnCampaign)}
