"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro broadcast --topology random:128,3 --scheme bpaths
    python -m repro broadcast --topology grid:8,8 --compare
    python -m repro election  --topology ring:64 --baselines
    python -m repro converge  --topology grid:6,6 --strategy bpaths --fail 4
    python -m repro globalfn  --n 64 --P 1 --C 2
    python -m repro lowerbound --max-depth 10
    python -m repro multicast --topology random:64,1 --messages 5
    python -m repro observe   --topology grid:8,8 --workload broadcast --stats
    python -m repro election  --topology ring:32 --monitor budgets,watchdog
    python -m repro bench --compare benchmarks/baselines/heap/BENCH_election_ring.json
    python -m repro bench --jobs 4
    python -m repro campaign tradeoff --n 48 --jobs 4 --rows-out rows.json

Campaigns (see ``docs/TUTORIAL.md`` §8): ``repro campaign`` turns a
sweep, Monte-Carlo run or bench workload into sharded tasks executed
across a process pool with a content-addressed result cache —
interrupt it freely, re-running resumes instead of recomputing, and
any ``--jobs`` count produces byte-identical rows.

All commands print the same row formats the benchmarks use, so shell
runs and `pytest benchmarks/` outputs are directly comparable.

Observability (see ``docs/API.md`` § Observability): every simulating
command accepts ``--trace-out`` (JSONL records), ``--chrome-trace``
(Perfetto/chrome://tracing JSON), ``--stats`` (live histograms) and
``--manifest-out``; any export also writes a run manifest recording the
seed, topology, ``(C, P)`` and git revision.  With ``--compare`` the
exports cover the ``--scheme`` run.

Conformance monitoring: ``--monitor budgets,invariants,watchdog`` (or
``--monitor all``) attaches online monitors that flag theorem-budget
breaches, invariant violations and stalls *while the run executes*;
any violation makes the command exit non-zero.  ``repro bench`` runs
the telemetry suite, writes ``BENCH_<name>.json`` documents, and
``--compare`` gates them against a baseline.

Congestion: ``--link-rate``/``--link-buffer`` enable credit-based
flow control on every link (senders stall when the downstream buffer
is full); ``repro observe --congestion`` samples queue occupancy and
renders a text heatmap, and ``--monitor netcalc`` cross-checks the
live queues against closed-form network-calculus delay/backlog bounds
(see ``docs/TUTORIAL.md`` §9).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from .analysis.sweeps import tradeoff_sweep
from .core import (
    BranchingPathsBroadcast,
    ChangRoberts,
    DfsBroadcast,
    DirectBroadcast,
    FloodingBroadcast,
    HirschbergSinclair,
    LeaderElection,
    OptTreeBuilder,
    attach_topology_maintenance,
    converge_by_rounds,
    coverage_rounds,
    decompose_paths,
    greedy_schedule,
    max_chain_depth,
    run_group_multicast,
    run_standalone_broadcast,
    theorem3_lower_bound,
)
from .metrics import format_table
from .network import bfs_tree, random_link_failures, topologies
from .network.builder import from_spec
from .sim import FixedDelays

BROADCAST_SCHEMES = ("bpaths", "flood", "direct", "dfs")


def _net(spec: str, C: float, P: float, **kwargs):
    return from_spec(spec, delays=FixedDelays(C, P), **kwargs)


# ----------------------------------------------------------------------
# Observability wiring
# ----------------------------------------------------------------------
def _obs_requested(args: argparse.Namespace) -> bool:
    """Whether any observability output was asked for."""
    return bool(
        getattr(args, "trace_out", None)
        or getattr(args, "chrome_trace", None)
        or getattr(args, "stats", False)
        or getattr(args, "manifest_out", None)
        or getattr(args, "monitor", None)
    )


def _obs_needs_trace(args: argparse.Namespace) -> bool:
    """Whether the observed run must record a full trace."""
    return bool(getattr(args, "trace_out", None) or getattr(args, "chrome_trace", None))


def _apply_flow_control(args: argparse.Namespace, net) -> None:
    """Enable credit-based link flow control when the flags ask for it."""
    rate = getattr(args, "link_rate", None)
    buffer = getattr(args, "link_buffer", None)
    if rate is None and buffer is None:
        return
    net.set_flow_control(rate=rate, buffer=buffer)


def _apply_scenario(args: argparse.Namespace, net) -> None:
    """Compile a ``--scenario FILE`` spec onto ``net`` (events only).

    Run commands keep their own ``--topology``/``--C``/``--P``; the
    file contributes just the churn schedule, so any workload can be
    replayed under any failure story.  Use ``repro scenario run`` to
    execute a spec with its own substrate settings.
    """
    path = getattr(args, "scenario", None)
    if not path:
        return
    from .scenario import ScenarioSpec, compile_scenario

    spec = ScenarioSpec.load(path)
    compiled = compile_scenario(net, spec)
    print(
        f"scenario {compiled.name!r}: {compiled.events} event(s) scheduled "
        f"through t={compiled.last_event_time:g}"
    )


def _obs_net(args: argparse.Namespace, *, observed: bool = True):
    """Build the command's network, traced/instrumented as requested.

    Returns ``(net, stats)`` where ``stats`` is an installed
    :class:`~repro.obs.live.LiveStats` or ``None``.
    """
    net = _net(
        args.topology,
        args.C,
        args.P,
        trace=observed and _obs_needs_trace(args),
        trace_capacity=getattr(args, "trace_capacity", None),
    )
    _apply_flow_control(args, net)
    _apply_scenario(args, net)
    stats = None
    if observed and getattr(args, "stats", False):
        from .obs import LiveStats

        stats = LiveStats().install(net)
    return net, stats


def _monitor_spec(value: str) -> str:
    """argparse type for ``--monitor``: validate names at parse time."""
    from .obs import MONITOR_NAMES

    names = {part.strip() for part in value.split(",") if part.strip()}
    unknown = sorted(names - set(MONITOR_NAMES) - {"all"})
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown monitor(s) {', '.join(unknown)}; choose from "
            f"{', '.join(MONITOR_NAMES)} or 'all'"
        )
    return value


def _arm_flight_recorder(args: argparse.Namespace, net):
    """Arm ``--flight-recorder`` on ``net``; returns the recorder or None.

    The recorder is stashed on the args namespace so :func:`main` can
    dump it when a command dies with an uncaught exception.
    """
    path = getattr(args, "flight_recorder", None)
    if not path:
        return None
    from .obs import FlightRecorder

    recorder = FlightRecorder(
        net, capacity=getattr(args, "flight_capacity", 512), path=path
    ).install()
    signals = "alert, uncaught exception"
    if recorder.install_signal():
        signals += ", or SIGUSR1"
    print(
        f"flight recorder armed: last {recorder.capacity} scheduler "
        f"events -> {path} on {signals}"
    )
    args._recorder = recorder
    return recorder


def _attach_monitors(
    args: argparse.Namespace, net, *, command: str, scheme: str | None = None
):
    """Install the requested conformance monitors on ``net``.

    Returns the installed :class:`~repro.obs.monitors.MonitorHost` or
    ``None`` when ``--monitor`` was not given.  Alerts are announced
    the moment they fire, so a breached budget is visible *before* the
    run's summary table.  Also arms the flight recorder (which dumps on
    those same alerts) so every observed command gets both from one
    call.
    """
    recorder = _arm_flight_recorder(args, net)
    spec = getattr(args, "monitor", None)
    if not spec:
        return None
    from .obs import MonitorHost, monitors_from_spec

    monitors, notes = monitors_from_spec(net, spec, command=command, scheme=scheme)
    for note in notes:
        print(note)

    def announce(alert) -> None:
        print(f"ALERT [{alert.monitor}] t={alert.time:g}: {alert.message}")
        if recorder is not None:
            recorder.note_alert(alert)

    return MonitorHost(net, monitors, on_alert=announce).install()


def _finish_monitors(host) -> int:
    """Finish + render monitors; exit code 1 if any violation fired."""
    if host is None:
        return 0
    from .obs import render_alerts

    alerts = host.finish()
    print()
    print(render_alerts(alerts))
    return 1 if host.violations else 0


def _monitor_extra(host) -> dict:
    """Manifest ``extra`` entries summarising a monitored run."""
    if host is None:
        return {}
    return {"alerts": len(host.alerts), "violations": len(host.violations)}


def _obs_finish(
    args: argparse.Namespace, net, stats, *, command: str, **extra
) -> None:
    """Write the requested exports and print the live statistics."""
    if net is None or not _obs_requested(args):
        return
    from .obs import RunManifest, build_spans, records_to_jsonl, write_chrome_trace

    if getattr(args, "trace_out", None):
        path = records_to_jsonl(net.trace, args.trace_out)
        dropped = f", {net.trace.dropped} dropped" if net.trace.dropped else ""
        print(f"trace written to {path} ({len(net.trace)} records{dropped})")
    if getattr(args, "chrome_trace", None):
        from .sim.trace import TraceKind

        spans = build_spans(net.trace)
        ncu_spans = sum(1 for s in spans if s.category == "ncu")
        queue_records = [r for r in net.trace if r.kind is TraceKind.QUEUE]
        path = write_chrome_trace(args.chrome_trace, spans,
                                  counters=queue_records)
        queues = (f"; {len(queue_records)} queue counter samples"
                  if queue_records else "")
        print(
            f"chrome trace written to {path} ({len(spans)} spans; "
            f"{ncu_spans} ncu-job spans = {net.metrics.system_calls} "
            f"system calls total{queues})"
        )
    if stats is not None:
        stats.uninstall()
        print()
        print(stats.render())
    manifest_out = getattr(args, "manifest_out", None)
    if manifest_out is None and _obs_needs_trace(args):
        anchor = Path(getattr(args, "chrome_trace", None) or args.trace_out)
        manifest_out = anchor.with_suffix(".manifest.json")
    if manifest_out is not None:
        for key in ("link_rate", "link_buffer"):
            value = getattr(args, key, None)
            if value is not None:
                extra.setdefault(key, value)
        manifest = RunManifest.collect(
            net,
            command=command,
            topology=getattr(args, "topology", None),
            C=getattr(args, "C", None),
            P=getattr(args, "P", None),
            seed=getattr(args, "seed", None),
            **extra,
        )
        print(f"run manifest written to {manifest.write(manifest_out)}")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_broadcast(args: argparse.Namespace) -> int:
    if args.show_plan:
        from .analysis.render import render_labelled_tree, render_paths
        from .network import bfs_tree

        net = _net(args.topology, args.C, args.P)
        tree = bfs_tree(net.adjacency(), args.root)
        print("spanning tree with Section 3.1 labels:")
        print(render_labelled_tree(tree))
        print("\npath decomposition (broadcast waves):")
        print(render_paths(tree))
        print()
    schemes = BROADCAST_SCHEMES if args.compare else (args.scheme,)
    rows = []
    observed_net, observed_stats, host = None, None, None
    for scheme in schemes:
        observed = _obs_requested(args) and scheme == args.scheme
        net, stats = _obs_net(args, observed=observed)
        if observed:
            observed_net, observed_stats = net, stats
            host = _attach_monitors(args, net, command="broadcast", scheme=scheme)
        adjacency = net.adjacency()
        factories = {
            "bpaths": lambda api: BranchingPathsBroadcast(
                api, root=args.root, adjacency=adjacency, ids=net.id_lookup
            ),
            "flood": lambda api: FloodingBroadcast(api, root=args.root),
            "direct": lambda api: DirectBroadcast(
                api, root=args.root, adjacency=adjacency, ids=net.id_lookup
            ),
            "dfs": lambda api: DfsBroadcast(
                api, root=args.root, adjacency=adjacency, ids=net.id_lookup
            ),
        }
        run = run_standalone_broadcast(net, factories[scheme], args.root)
        rows.append(
            [scheme, net.n, net.m, run.coverage, run.system_calls,
             run.completion_time(), run.metrics.hops]
        )
    print(format_table(
        ["scheme", "n", "m", "covered", "system_calls", "time", "hops"],
        rows,
        title=f"broadcast from node {args.root} on {args.topology} "
              f"(C={args.C}, P={args.P})",
    ))
    code = _finish_monitors(host)
    _obs_finish(
        args, observed_net, observed_stats,
        command="broadcast", scheme=args.scheme, root=args.root,
        **_monitor_extra(host),
    )
    return code


def cmd_election(args: argparse.Namespace) -> int:
    contenders = [("new (Cidon-Gopal-Kutten)", lambda api: LeaderElection(api))]
    if args.baselines:
        contenders += [
            ("Chang-Roberts", lambda api: ChangRoberts(api)),
            ("Chang-Roberts worst", lambda api: ChangRoberts(api, direction=-1)),
            ("Hirschberg-Sinclair", lambda api: HirschbergSinclair(api)),
        ]
    rows = []
    observed_net, observed_stats, host = None, None, None
    for name, factory in contenders:
        # Exports cover the paper's algorithm (the first contender).
        observed = _obs_requested(args) and name == contenders[0][0]
        net, stats = _obs_net(args, observed=observed)
        if observed:
            observed_net, observed_stats = net, stats
            host = _attach_monitors(args, net, command="election")
        if args.baselines and name != contenders[0][0] and not _is_ring(net):
            rows.append([name, net.n, "-", "-", "-", "(needs a ring)"])
            continue
        net.attach(factory)
        starters = None if args.starters == "all" else [int(args.starters)]
        net.start(starters)
        net.run_to_quiescence(max_events=10_000_000)
        winners = [v for v, f in net.outputs_for_key("is_leader").items() if f]
        snap = net.metrics.snapshot()
        tours = snap.system_calls_by_kind.get("tour", 0) + snap.system_calls_by_kind.get("return", 0)
        rows.append(
            [name, net.n, winners[0] if winners else "-",
             tours or "-", snap.system_calls, net.scheduler.now]
        )
    print(format_table(
        ["algorithm", "n", "leader", "tour+return", "total_sc", "time"],
        rows,
        title=f"leader election on {args.topology} "
              f"(Theorem 5 bound: 6n = {6 * rows[0][1]})",
    ))
    code = _finish_monitors(host)
    _obs_finish(
        args, observed_net, observed_stats,
        command="election", starters=args.starters,
        **_monitor_extra(host),
    )
    return code


def _is_ring(net) -> bool:
    return all(len(node.links) == 2 for node in net.nodes.values())


def cmd_converge(args: argparse.Namespace) -> int:
    net, stats = _obs_net(args)
    host = _attach_monitors(args, net, command="converge")
    attach_topology_maintenance(net, strategy=args.strategy, scope=args.scope)
    rows = []
    result = converge_by_rounds(net, max_rounds=args.max_rounds)
    rows.append(["cold start", result.rounds, result.system_calls])
    if args.fail:
        schedule = random_link_failures(net.graph, count=args.fail, seed=args.seed)
        for action in schedule:
            net.fail_link(*action.target)
        net.run_to_quiescence()
        result = converge_by_rounds(net, max_rounds=args.max_rounds)
        rows.append([f"{len(schedule)} link failures", result.rounds,
                     result.system_calls])
    print(format_table(
        ["event", "rounds", "system_calls"],
        rows,
        title=f"topology maintenance on {args.topology} "
              f"(strategy={args.strategy}, scope={args.scope})",
    ))
    code = _finish_monitors(host)
    _obs_finish(
        args, net, stats,
        command="converge", strategy=args.strategy, scope=args.scope,
        failures=args.fail, **_monitor_extra(host),
    )
    return code


def cmd_globalfn(args: argparse.Namespace) -> int:
    builder = OptTreeBuilder(args.P, args.C)
    t_opt, tree = builder.optimal_tree_for(args.n)
    print(f"optimal tree for n={args.n}, P={args.P}, C={args.C}:")
    print(f"  completion time : {float(t_opt)}")
    print(f"  root degree     : {tree.degree_of_root()}")
    print(f"  depth           : {tree.depth()}\n")
    ratios = [0, 1, 2, 4, 8, 16]
    rows = [
        [f"{row.ratio:g}:1", float(row.optimal_time), row.root_degree, row.depth,
         float(row.star_time), float(row.binary_time), float(row.path_time)]
        for row in tradeoff_sweep(args.n, ratios, P=args.P, jobs=args.jobs)
    ]
    print(format_table(
        ["C:P", "t_opt", "root_deg", "depth", "t_star", "t_binary", "t_path"],
        rows,
        title=f"trade-off sweep at n={args.n} (Section 5):",
    ))
    return 0


def cmd_lowerbound(args: argparse.Namespace) -> int:
    rows = []
    for depth in range(1, args.max_depth + 1):
        g = topologies.complete_binary_tree(depth)
        adjacency = {u: tuple(sorted(g.neighbors(u))) for u in g}
        tree = bfs_tree(adjacency, 0)
        rows.append(
            [depth, len(tree), theorem3_lower_bound(depth),
             coverage_rounds(tree, greedy_schedule(tree)),
             max_chain_depth(decompose_paths(tree))]
        )
    print(format_table(
        ["depth", "n", "thm3_lower", "greedy", "bpaths"],
        rows,
        title="one-way broadcast rounds on complete binary trees "
              "(Theorem 3 vs. achieved):",
    ))
    return 0


def cmd_multicast(args: argparse.Namespace) -> int:
    net, stats = _obs_net(args)
    host = _attach_monitors(args, net, command="multicast")
    run = run_group_multicast(net, args.root, bodies=list(range(args.messages)))
    print(f"hardware multicast group on {args.topology}:")
    print(f"  setup: {run.setup_calls} system calls, {run.setup_time} time")
    print(f"  per message: {run.per_message_calls[0] if run.per_message_calls else '-'} "
          f"system calls, {run.per_message_time[0] if run.per_message_time else '-'} time")
    print(f"  coverage: {run.coverage}/{net.n - 1} non-root nodes")
    code = _finish_monitors(host)
    _obs_finish(
        args, net, stats,
        command="multicast", root=args.root, messages=args.messages,
        **_monitor_extra(host),
    )
    return code


def _alert_summary(records) -> str:
    """Per-monitor ALERT counts for a record stream (satellite of E17).

    Always one line, so trace readers can grep for it: either
    ``alerts by monitor: none`` or ``alerts by monitor: name=count, ...``.
    """
    from collections import Counter

    from .sim.trace import TraceKind

    counts = Counter(
        rec.detail.get("monitor", "?")
        for rec in records
        if rec.kind is TraceKind.ALERT
    )
    if not counts:
        return "alerts by monitor: none"
    return "alerts by monitor: " + ", ".join(
        f"{name}={count}" for name, count in sorted(counts.items())
    )


def cmd_observe(args: argparse.Namespace) -> int:
    """Run one workload fully instrumented and render its timeline."""
    from .obs import LiveStats, build_spans, render_timeline, span_summary_table

    if args.from_trace:
        from .obs import (
            TraceLoadError,
            records_from_jsonl,
            render_congestion_heatmap,
        )
        from .sim.trace import TraceKind

        try:
            records = records_from_jsonl(args.from_trace)
        except TraceLoadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        spans = build_spans(records)
        print(f"loaded {len(records)} trace records from {args.from_trace}")
        print()
        print(span_summary_table(spans, title="reconstructed spans"))
        if args.timeline:
            print()
            print(render_timeline(
                spans,
                width=args.timeline_width,
                limit=args.limit,
                title=f"timeline ({args.from_trace})",
            ))
        queue_records = [r for r in records if r.kind is TraceKind.QUEUE]
        if queue_records:
            print()
            print(render_congestion_heatmap(
                queue_records,
                width=args.timeline_width,
                limit=args.heat_limit or None,
                title=f"queue occupancy ({args.from_trace})",
            ))
        print()
        print(_alert_summary(records))
        return 0

    net = _net(
        args.topology, args.C, args.P,
        trace=True, trace_capacity=args.trace_capacity,
    )
    _apply_flow_control(args, net)
    _apply_scenario(args, net)
    stats = LiveStats().install(net) if args.stats else None
    probe = None
    if args.congestion:
        from .obs import CongestionProbe

        probe = CongestionProbe(net, to_trace=True).install()
    host = _attach_monitors(
        args, net, command=args.workload,
        scheme=args.scheme if args.workload == "broadcast" else None,
    )
    if args.workload == "broadcast":
        adjacency = net.adjacency()
        factories = {
            "bpaths": lambda api: BranchingPathsBroadcast(
                api, root=args.root, adjacency=adjacency, ids=net.id_lookup
            ),
            "flood": lambda api: FloodingBroadcast(api, root=args.root),
            "direct": lambda api: DirectBroadcast(
                api, root=args.root, adjacency=adjacency, ids=net.id_lookup
            ),
            "dfs": lambda api: DfsBroadcast(
                api, root=args.root, adjacency=adjacency, ids=net.id_lookup
            ),
        }
        run = run_standalone_broadcast(net, factories[args.scheme], args.root)
        print(
            f"{args.scheme} broadcast on {args.topology}: "
            f"covered {run.coverage}/{net.n}, {run.system_calls} system "
            f"calls, completed at t={run.completion_time():g}"
        )
    else:
        net.attach(lambda api: LeaderElection(api))
        net.start()
        net.run_to_quiescence(max_events=10_000_000)
        winners = [v for v, f in net.outputs_for_key("is_leader").items() if f]
        print(
            f"election on {args.topology}: leader "
            f"{winners[0] if winners else '-'}, "
            f"{net.metrics.system_calls} system calls, t={net.scheduler.now:g}"
        )
    spans = build_spans(net.trace)
    print()
    print(span_summary_table(spans, title="reconstructed spans"))
    if args.timeline:
        print()
        print(render_timeline(
            spans,
            width=args.timeline_width,
            limit=args.limit,
            title=f"timeline ({args.workload} on {args.topology})",
        ))
    if probe is not None:
        from .obs import render_congestion_heatmap

        print()
        print(render_congestion_heatmap(
            probe.records(),
            width=args.timeline_width,
            limit=args.heat_limit or None,
            title=f"queue occupancy ({args.workload} on {args.topology})",
        ))
        print()
        print(probe.render_summary())
    code = _finish_monitors(host)
    _obs_finish(
        args, net, stats,
        command="observe", workload=args.workload,
        scheme=args.scheme if args.workload == "broadcast" else None,
        **_monitor_extra(host),
    )
    return code


def cmd_topology_info(args: argparse.Namespace) -> int:
    """Shape summary of a topology spec, without running anything."""
    from .metrics import format_table
    from .network.builder import graph_from_spec
    from .network.network import Network
    from .network.topologies import pseudo_diameter

    try:
        graph = graph_from_spec(args.spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    degrees = [d for _, d in graph.degree]
    rows: list[list[object]] = [
        ["nodes", n],
        ["links", m],
        ["degree min", min(degrees, default=0)],
        ["degree mean", f"{2 * m / n:.2f}" if n else "0"],
        ["degree max", max(degrees, default=0)],
    ]

    try:
        if args.exact_diameter:
            import networkx as nx

            rows.append(["diameter (exact)", nx.diameter(graph)])
        else:
            rows.append(["diameter (two-sweep bound)", pseudo_diameter(graph)])
    except Exception:
        rows.append(["diameter", "infinite (disconnected)"])

    if args.build_memory:
        from .obs.perf import PerfCounters

        perf = PerfCounters()
        # The spec's graph is private, so the substrate can adopt it;
        # the gauge is retained construction bytes (graph excluded).
        perf.measure_build_bytes_per_node(
            lambda: Network(graph, trace=False, copy_graph=False), nodes=n
        )
        per_node = perf.build_bytes_per_node
        rows.append(["build bytes/node", f"{per_node:,.0f}"])
        rows.append(["build memory (est)", f"{per_node * n / 1e6:,.1f} MB"])

    print(format_table(["property", "value"], rows,
                       title=f"topology {args.spec}"))
    return 0


def _profiled_benchmarks(names: list, args: argparse.Namespace) -> dict:
    """Run each benchmark under cProfile; dump stats and print a top-N
    cumulative table.

    Perf work should start from data: this is the profiling entry point
    ``docs/PERFORMANCE.md`` points at.  Wall-clock metrics in the
    resulting documents include profiler overhead, so they must not be
    compared against unprofiled baselines — deterministic counters are
    unaffected.
    """
    import cProfile
    import io
    import pstats
    from pathlib import Path

    from .obs import run_benchmark

    print("note: profiling inflates wall_ms / deflates events_per_sec; "
          "do not gate against unprofiled baselines\n")
    docs: dict = {}
    for name in names:
        profiler = cProfile.Profile()
        profiler.enable()
        docs[name] = run_benchmark(name)
        profiler.disable()
        dump = Path(args.out_dir) / f"PROFILE_{name}.pstats"
        dump.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(dump)
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(args.profile_top)
        print(f"--- profile: {name} (top {args.profile_top} by cumulative "
              f"time; full dump: {dump}) ---")
        print(stream.getvalue())
    return docs


def _instrumented_benchmarks(names: list, args: argparse.Namespace) -> dict:
    """Run benchmarks serially with --perf counters and/or --flamegraph.

    Both instruments are honest where cProfile is not: counters cost
    one guarded increment per hook and sampling never touches the
    measured code, so the documents' deterministic metrics stay
    byte-identical to an uninstrumented run (only wall metrics absorb
    the sampler's steal time).
    """
    from .obs import PerfCounters, SamplingProfiler, run_benchmark

    docs: dict = {}
    for name in names:
        profiler = SamplingProfiler(hz=args.flamegraph_hz) if args.flamegraph else None
        if profiler is not None:
            profiler.start()
        try:
            docs[name] = run_benchmark(name, perf=args.perf)
        finally:
            if profiler is not None:
                profiler.stop()
        if profiler is not None:
            base = Path(args.out_dir)
            collapsed = profiler.write_collapsed(
                base / f"FLAME_{name}.collapsed.txt"
            )
            speedscope = profiler.write_speedscope(
                base / f"FLAME_{name}.speedscope.json", name=name
            )
            print(f"flamegraph: {speedscope} ({profiler.samples} samples; "
                  f"collapsed stacks: {collapsed})")
        if args.perf:
            print(PerfCounters.from_dict(docs[name]["perf"]).render(
                title=f"{name}: perf attribution"
            ))
            print()
    return docs


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the telemetry suite; write/compare ``BENCH_*.json``."""
    from .obs import (
        BENCHMARKS,
        benchmark_names,
        compare_documents,
        load_bench_document,
        regressions,
        render_comparison,
        render_metrics,
        run_benchmarks,
        write_bench_document,
    )

    if args.list:
        for bench in BENCHMARKS:
            print(f"{bench.name:18} {bench.description}")
        return 0

    thresholds: dict[str, float] = {}
    for spec in args.threshold or ():
        metric, sep, value = spec.partition("=")
        try:
            if not sep:
                raise ValueError
            thresholds[metric.strip()] = float(value)
        except ValueError:
            print(f"error: bad --threshold {spec!r} (use METRIC=RATIO)",
                  file=sys.stderr)
            return 2

    docs: dict[str, dict] = {}
    if args.replay:
        for path in args.replay:
            try:
                doc = load_bench_document(path)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            docs[doc["bench"]] = doc
            print(f"replayed {doc['bench']} from {path}")
    else:
        if args.name:
            names = [part.strip() for part in args.name.split(",") if part.strip()]
        else:
            names = list(benchmark_names())
        try:
            if args.profile:
                docs = _profiled_benchmarks(names, args)
            elif args.perf or args.flamegraph:
                docs = _instrumented_benchmarks(names, args)
            else:
                docs = run_benchmarks(names, jobs=args.jobs)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for name, doc in docs.items():
            path = write_bench_document(doc, args.out_dir)
            print(render_metrics(doc, title=f"{name}: {doc['description']}"))
            print(f"written to {path}")
            print()

    exit_code = 0
    for baseline_path in args.compare or ():
        try:
            baseline = load_bench_document(baseline_path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        name = baseline["bench"]
        current = docs.get(name)
        if current is None:
            print(
                f"error: baseline {baseline_path} is for benchmark {name!r}, "
                "which was not run/replayed",
                file=sys.stderr,
            )
            return 2
        comparisons = compare_documents(current, baseline, thresholds)
        print(render_comparison(
            comparisons, title=f"{name}: current vs {baseline_path}"
        ))
        print()
        for c in regressions(comparisons):
            direction = "below" if c.higher_is_better else "above"
            print(
                f"REGRESSION: {name}.{c.metric} = {c.current:g} is {direction} "
                f"threshold ({c.ratio:.3f}x baseline {c.baseline:g}, "
                f"allowed {c.threshold:g})",
                file=sys.stderr,
            )
            exit_code = 1
    return exit_code


def _scenario_spec(args: argparse.Namespace):
    """Load ``--spec FILE`` or generate the seeded churn preset."""
    from .scenario import ScenarioSpec, churn_scenario

    if args.spec:
        spec = ScenarioSpec.load(args.spec)
    else:
        spec = churn_scenario(
            args.topology,
            seed=args.churn_seed,
            C=args.C,
            P=args.P,
            crashes=args.crashes,
            partition=args.partition,
            spacing=args.spacing,
        )
    if args.spec_out:
        print(f"scenario spec written to {spec.save(args.spec_out)}")
    return spec


def cmd_scenario(args: argparse.Namespace) -> int:
    """Run one scenario spec, or search its adversarial delay space."""
    from .network.builder import graph_from_spec
    from .scenario import run_delay_search, run_scenario, validate_scenario

    try:
        spec = _scenario_spec(args)
        if args.action == "run":
            # The spec owns the substrate: its topology and (C, P)
            # override the command-line flags so a saved spec replays
            # exactly.
            args.topology, args.C, args.P = spec.topology, spec.C, spec.P
            net, stats = _obs_net(args)
            validate_scenario(spec, net.graph)
        else:
            validate_scenario(spec, graph_from_spec(spec.topology))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action == "run":
        if args.monitor is None:
            args.monitor = "churn"
        host = _attach_monitors(args, net, command="scenario")
        row = run_scenario(net, spec, monitor=False)
        print(format_table(
            ["scenario", "final_time", "system_calls", "tour+return",
             "drops", "leader(s)", "components"],
            [[row["scenario"], f"{row['final_time']:g}", row["system_calls"],
              row["tour_return_calls"], row["drops"],
              ",".join(row["leaders"]) or "-", row["components"]]],
            title=f"scenario on {spec.topology} (C={spec.C:g}, P={spec.P:g}, "
                  f"{len(spec.events)} events)",
        ))
        code = _finish_monitors(host)
        _obs_finish(
            args, net, stats,
            command="scenario", scenario=spec.name,
            events=len(spec.events), **_monitor_extra(host),
        )
        return code

    # action == "search": explore delay assignments via the campaign.
    import json

    def announce(result) -> None:
        status = "cache" if result.status == "cached" else result.status
        print(f"[{status:>5}] {result.spec.label}")

    outcome, report = run_delay_search(
        spec,
        trials=args.trials,
        root_seed=args.root_seed,
        bias=args.bias,
        jobs=args.jobs,
        cache=None if args.no_cache else args.cache_dir,
        max_tasks=args.max_tasks,
        on_result=announce,
    )
    print()
    print(format_table(
        ["tasks", "executed", "cached", "failed", "skipped"],
        [[len(outcome.results), outcome.executed, outcome.cache_hits,
          len(outcome.failures), outcome.skipped]],
        title=f"delay search on {spec.name!r} at --jobs {args.jobs}",
    ))
    if outcome.failures:
        first = outcome.failures[0]
        print(f"error: {len(outcome.failures)} task(s) failed "
              f"(first: {first.spec.label}: {first.error})", file=sys.stderr)
        return 1
    if outcome.interrupted:
        print(f"interrupted after {outcome.executed} execution(s); "
              f"{outcome.skipped} task(s) pending — re-run to resume "
              "from the cache")
        return 3
    assert report is not None
    bound = report["calls_bound"]
    print()
    print(format_table(
        ["measure", "at bounds", "worst found", "worst seed", "closed-form"],
        [
            ["final time", f"{report['at_bounds_time']:g}",
             f"{report['worst_time']:g}",
             report["worst_time_seed"] if report["worst_time_seed"] is not None
             else "(at-bounds)",
             "-"],
            ["tour+return calls", report["at_bounds_calls"],
             report["worst_calls"],
             report["worst_calls_seed"] if report["worst_calls_seed"] is not None
             else "(at-bounds)",
             f"{bound:g}" if bound is not None else "-"],
        ],
        title=f"adversarial-delay search: {report['trials']} trials on "
              f"n={report['n']} ({report['violations']} churn violations)",
    ))
    if args.rows_out:
        rows_doc = {
            "workload": "scenario-search",
            "params": {"scenario": spec.to_dict(), "trials": args.trials,
                       "root_seed": args.root_seed, "bias": args.bias},
            "report": report,
            "rows": outcome.values(),
        }
        path = Path(args.rows_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows_doc, indent=2, sort_keys=True) + "\n")
        print(f"rows written to {path}")
    if args.manifest_out:
        from .obs import CampaignManifest

        manifest = CampaignManifest.from_outcome(
            outcome, command="scenario-search", scenario=spec.name,
            trials=args.trials, root_seed=args.root_seed,
        )
        print(f"campaign manifest written to "
              f"{manifest.write(args.manifest_out)}")
    if report["violations"]:
        print(f"error: {report['violations']} churn invariant violation(s) "
              "across the search", file=sys.stderr)
        return 1
    if not report["within_bounds"]:
        print(f"error: worst-found tour+return calls {report['worst_calls']} "
              f"exceed the closed-form bound {bound:g}", file=sys.stderr)
        return 1
    return 0


CAMPAIGN_WORKLOADS = ("tradeoff", "montecarlo", "bench")


class _ProgressTicker:
    """Single-line ``\\r``-rewritten stderr campaign progress display.

    Replaces the per-task announce lines under ``--progress``: one line
    carrying done/total, cache hits, retry count and an EWMA of task
    settlement rate, updated as each task settles.  Pure display —
    feeds off the engine's ``on_result`` callback and never touches
    results.
    """

    def __init__(self, total: int) -> None:
        self.total = total
        self.done = 0
        self.cache_hits = 0
        self.retries = 0
        self._rate: float | None = None
        self._last = time.monotonic()

    def update(self, result) -> None:
        now = time.monotonic()
        self.done += 1
        if result.status == "cached":
            self.cache_hits += 1
        if result.attempts > 1:
            self.retries += result.attempts - 1
        instant = 1.0 / max(now - self._last, 1e-9)
        self._last = now
        # EWMA smooths the burst of instant cache settlements against
        # slow fresh executions.
        self._rate = (
            instant if self._rate is None else 0.3 * instant + 0.7 * self._rate
        )
        sys.stderr.write(
            f"\r[campaign] {self.done}/{self.total} done | "
            f"{self.cache_hits} cached | {self.retries} retries | "
            f"{self._rate:.1f} tasks/s "
        )
        sys.stderr.flush()

    def finish(self) -> None:
        """Terminate the ticker line so later output starts clean."""
        if self.done:
            sys.stderr.write("\n")
            sys.stderr.flush()


def _campaign_specs(args: argparse.Namespace) -> tuple[list, dict]:
    """Build the spec list and the parameter block for one campaign.

    The parameter block goes into the campaign manifest and the rows
    file header; it names the grid, never the execution (no job count,
    no cache state), so rows files compare byte-identical across runs.
    """
    from .exec import TaskSpec

    if args.workload == "tradeoff":
        from fractions import Fraction

        from .analysis.sweeps import tradeoff_specs

        ratios = [Fraction(part.strip())
                  for part in args.ratios.split(",") if part.strip()]
        specs = tradeoff_specs(args.n, ratios, P=Fraction(args.P))
        params = {"n": args.n, "ratios": [str(r) for r in ratios],
                  "P": str(Fraction(args.P))}
    elif args.workload == "montecarlo":
        from .sim import derive_seed

        if args.topology is not None:
            # Fixed topology: only the delays vary with the seed, so
            # every worker serves the campaign from its substrate pool
            # (the REPRO_SUBSTRATE_REUSE env var gates reuse without
            # entering the spec params or the rows).
            specs = [
                TaskSpec.make(
                    "repro.exec.workloads:election_calls_per_node",
                    seed=derive_seed(args.root_seed, "montecarlo", i),
                    topology=args.topology,
                    label=f"mc[{i}]({args.topology})",
                )
                for i in range(args.seeds)
            ]
            params = {"seeds": args.seeds, "root_seed": args.root_seed,
                      "topology": args.topology}
        else:
            specs = [
                TaskSpec.make(
                    "repro.exec.workloads:election_calls_per_node",
                    seed=derive_seed(args.root_seed, "montecarlo", i),
                    n=args.n,
                    edge_prob=args.edge_prob,
                    label=f"mc[{i}](n={args.n})",
                )
                for i in range(args.seeds)
            ]
            params = {"seeds": args.seeds, "root_seed": args.root_seed,
                      "n": args.n, "edge_prob": args.edge_prob}
    else:  # bench
        from .obs import benchmark_names

        names = ([part.strip() for part in args.names.split(",") if part.strip()]
                 if args.names else list(benchmark_names()))
        specs = [
            TaskSpec.make(
                "repro.exec.workloads:bench_counters",
                name=name,
                label=f"bench:{name}",
            )
            for name in names
        ]
        params = {"names": names}
    return specs, params


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run one sharded, cached campaign; see docs/TUTORIAL.md §8."""
    import json

    from .exec import run_campaign
    from .obs import CampaignManifest

    try:
        specs, params = _campaign_specs(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print("error: campaign has no tasks", file=sys.stderr)
        return 2

    status_tags = {"ok": "ran  ", "cached": "cache", "failed": "FAIL ",
                   "skipped": "skip "}

    def announce(result) -> None:
        note = f"  ({result.error})" if result.error else ""
        retried = f"  [attempt {result.attempts}]" if result.attempts > 1 else ""
        print(f"[{status_tags[result.status]}] {result.spec.label}"
              f"{retried}{note}")

    ticker = _ProgressTicker(len(specs)) if args.progress else None
    outcome = run_campaign(
        specs,
        jobs=args.jobs,
        cache=None if args.no_cache else args.cache_dir,
        timeout=args.timeout,
        retries=args.retries,
        max_tasks=args.max_tasks,
        on_result=ticker.update if ticker is not None else announce,
        perf=args.perf,
    )
    if ticker is not None:
        ticker.finish()

    print()
    print(format_table(
        ["tasks", "executed", "cached", "failed", "skipped", "retries",
         "wall_ms"],
        [[len(outcome.results), outcome.executed, outcome.cache_hits,
          len(outcome.failures), outcome.skipped, outcome.retries_used,
          f"{outcome.wall_ms:.0f}"]],
        title=f"campaign {args.workload} at --jobs {args.jobs}",
    ))

    if args.perf:
        merged = outcome.merged_perf()
        if merged is not None:
            from .obs import PerfCounters

            print()
            print(PerfCounters.from_dict(merged).render(
                title="campaign perf attribution (all tasks merged)"
            ))
        else:
            print("no perf data collected (every task came from the cache)")

    complete = all(r.ok for r in outcome.results)
    if args.rows_out:
        if complete:
            rows_doc = {
                "workload": args.workload,
                "params": params,
                "rows": [r.value for r in outcome.results],
            }
            path = Path(args.rows_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(rows_doc, indent=2, sort_keys=True) + "\n"
            )
            print(f"rows written to {path}")
        else:
            print(f"rows NOT written to {args.rows_out} "
                  "(campaign incomplete; resume to finish)")
    if args.manifest_out:
        manifest = CampaignManifest.from_outcome(
            outcome, command="campaign", workload=args.workload, **params
        )
        print(f"campaign manifest written to "
              f"{manifest.write(args.manifest_out)}")

    if outcome.failures:
        first = outcome.failures[0]
        print(f"error: {len(outcome.failures)} task(s) failed "
              f"(first: {first.spec.label}: {first.error})", file=sys.stderr)
        return 1
    if outcome.interrupted:
        print(f"interrupted after {outcome.executed} execution(s); "
              f"{outcome.skipped} task(s) pending — re-run to resume "
              "from the cache")
        return 3
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def cmd_report(args: argparse.Namespace) -> int:
    from .reporting import generate_report

    path = generate_report(args.out)
    print(f"report written to {path}")
    for artifact in sorted(path.parent.glob("*.csv")):
        print(f"  {artifact.name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Cidon-Gopal-Kutten (PODC 1988): "
        "fast-network algorithms under the system-call cost measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--topology", default="random:64,0",
                       help="e.g. ring:64, grid:6,8, random:128,7 (default %(default)s)")
        p.add_argument("--C", type=float, default=0.0,
                       help="hardware delay bound (default %(default)s)")
        p.add_argument("--P", type=float, default=1.0,
                       help="software delay bound (default %(default)s)")
        obs = p.add_argument_group("observability")
        obs.add_argument("--trace-out", metavar="PATH", default=None,
                         help="write the run's trace records as JSON Lines")
        obs.add_argument("--chrome-trace", metavar="PATH", default=None,
                         help="write a chrome://tracing / Perfetto span JSON")
        obs.add_argument("--stats", action="store_true",
                         help="stream bounded live statistics and print them")
        obs.add_argument("--manifest-out", metavar="PATH", default=None,
                         help="run-manifest path (default: next to a trace export)")
        obs.add_argument("--trace-capacity", type=int, default=None, metavar="N",
                         help="cap retained trace records (excess is counted, "
                              "not stored)")
        obs.add_argument("--monitor", type=_monitor_spec, default=None,
                         metavar="LIST",
                         help="comma list of online conformance monitors "
                              "(budgets, invariants, watchdog, netcalc, "
                              "churn, or 'all'); violations make the "
                              "command exit non-zero")
        p.add_argument("--scenario", metavar="FILE", default=None,
                       help="compile a scenario spec's failure/churn events "
                            "onto this run (the command keeps its own "
                            "topology and delays; see 'repro scenario')")
        fc = p.add_argument_group("flow control")
        fc.add_argument("--link-rate", type=float, default=None, metavar="R",
                        help="per-link bandwidth in packets per time unit; "
                             "enables credit-based flow control "
                             "(default: unlimited)")
        fc.add_argument("--link-buffer", type=int, default=None, metavar="B",
                        help="per-link buffer in packets; senders stall "
                             "while the downstream buffer is full "
                             "(default: unbounded)")
        obs.add_argument("--flight-recorder", metavar="PATH", default=None,
                         help="keep a bounded ring of the last scheduler "
                              "events; dump it as replayable JSONL on "
                              "monitor alert, uncaught exception or SIGUSR1")
        obs.add_argument("--flight-capacity", type=int, default=512,
                         metavar="N",
                         help="flight-recorder ring size "
                              "(default %(default)s events)")

    p = sub.add_parser("broadcast", help="one topology broadcast (E1/E2)")
    common(p)
    p.add_argument("--scheme", choices=BROADCAST_SCHEMES, default="bpaths")
    p.add_argument("--compare", action="store_true",
                   help="run every scheme on the same graph")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--show-plan", action="store_true",
                   help="render the labelled tree and path decomposition")
    p.set_defaults(func=cmd_broadcast)

    p = sub.add_parser("election", help="leader election (E5/E6)")
    common(p)
    p.add_argument("--baselines", action="store_true",
                   help="also run the ring classics (ring topologies only)")
    p.add_argument("--starters", default="all",
                   help="'all' or a single initiating node id")
    p.set_defaults(func=cmd_election)

    p = sub.add_parser("converge", help="topology maintenance (E4)")
    common(p)
    p.add_argument("--strategy", choices=("bpaths", "flood", "dfs"),
                   default="bpaths")
    p.add_argument("--scope", choices=("local", "full"), default="full")
    p.add_argument("--fail", type=int, default=0,
                   help="random link failures to inject after convergence")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=int, default=64)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("globalfn", help="optimal aggregation trees (E7-E10)")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--P", type=float, default=1.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="shard the trade-off sweep across N processes "
                        "(default %(default)s; rows are identical for any N)")
    p.set_defaults(func=cmd_globalfn)

    p = sub.add_parser("lowerbound", help="one-way broadcast bounds (E3)")
    p.add_argument("--max-depth", type=int, default=10)
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser(
        "report", help="run every experiment family, write REPORT.md + CSVs"
    )
    p.add_argument("--out", default="report",
                   help="output directory (default %(default)s)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("multicast", help="hardware multicast groups (E12)")
    common(p)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--messages", type=int, default=3)
    p.set_defaults(func=cmd_multicast)

    p = sub.add_parser(
        "observe",
        help="run one workload fully instrumented: spans, timeline, stats",
    )
    common(p)
    p.add_argument("--workload", choices=("broadcast", "election"),
                   default="broadcast")
    p.add_argument("--scheme", choices=BROADCAST_SCHEMES, default="bpaths",
                   help="broadcast scheme (broadcast workload only)")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--timeline", action=argparse.BooleanOptionalAction,
                   default=True, help="render the text timeline")
    p.add_argument("--timeline-width", type=int, default=56)
    p.add_argument("--limit", type=int, default=40,
                   help="max timeline rows (default %(default)s)")
    p.add_argument("--from-trace", metavar="PATH", default=None,
                   help="skip simulating: rebuild spans from a JSONL trace "
                        "written with --trace-out")
    p.add_argument("--congestion", action="store_true",
                   help="sample per-link queue occupancy during the run and "
                        "render a congestion heatmap + per-link stall "
                        "summary (pairs with --link-rate/--link-buffer)")
    p.add_argument("--heat-limit", type=int, default=40, metavar="N",
                   help="max heatmap rows: only the N hottest link "
                        "directions are shown, the rest are summarised "
                        "in a footer (default %(default)s; 0 = no limit)")
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser(
        "topology",
        help="topology utilities: shape summaries without simulating",
    )
    tsub = p.add_subparsers(dest="topology_command", required=True)
    tp = tsub.add_parser(
        "info",
        help="node/link counts, degree stats, diameter and estimated "
             "build memory for a spec",
    )
    tp.add_argument("spec",
                    help="topology spec, e.g. fat_tree:32, clos:16,8,4, "
                         "torus:8,8,8, dragonfly:9,4,2, grid:6,8")
    tp.add_argument("--exact-diameter", action="store_true",
                    help="compute the exact diameter (O(n*m) BFS sweep) "
                         "instead of the two-sweep pseudo-diameter bound")
    tp.add_argument("--build-memory", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="also build the substrate once under tracemalloc "
                         "and report retained bytes per node")
    tp.set_defaults(func=cmd_topology_info)

    p = sub.add_parser(
        "bench",
        help="run the benchmark telemetry suite, write BENCH_*.json, "
             "gate regressions",
    )
    p.add_argument("--name", default=None, metavar="LIST",
                   help="comma list of benchmarks (default: all; see --list)")
    p.add_argument("--out-dir", default=".", metavar="DIR",
                   help="where BENCH_<name>.json documents go "
                        "(default: current directory)")
    p.add_argument("--compare", action="append", metavar="BASELINE",
                   help="baseline BENCH_*.json to gate against (repeatable); "
                        "any threshold breach exits 1")
    p.add_argument("--replay", action="append", metavar="CURRENT",
                   help="compare saved documents instead of re-running "
                        "(repeatable)")
    p.add_argument("--threshold", action="append", metavar="METRIC=RATIO",
                   help="allowed current/baseline ratio for one metric "
                        "(repeatable; default 1.0, wall_ms 2.0, "
                        "events_per_sec and hops_per_sec 0.5)")
    p.add_argument("--list", action="store_true",
                   help="list registered benchmarks and exit")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="run benchmarks across N worker processes "
                        "(default %(default)s; deterministic counters are "
                        "identical for any N)")
    p.add_argument("--profile", action="store_true",
                   help="run each benchmark under cProfile: dump "
                        "PROFILE_<name>.pstats next to the documents and "
                        "print a top-N cumulative table (wall metrics "
                        "include profiler overhead)")
    p.add_argument("--profile-top", type=int, default=15, metavar="N",
                   help="rows in the --profile table (default %(default)s)")
    p.add_argument("--perf", action="store_true",
                   help="collect per-subsystem perf counters into a 'perf' "
                        "block of each BENCH document and print the "
                        "attribution table (metrics are unaffected; "
                        "runs serially)")
    p.add_argument("--flamegraph", action="store_true",
                   help="sample each benchmark's stack and write "
                        "FLAME_<name>.collapsed.txt + "
                        ".speedscope.json next to the documents "
                        "(runs serially)")
    p.add_argument("--flamegraph-hz", type=float, default=251.0,
                   metavar="HZ",
                   help="sampling rate for --flamegraph "
                        "(default %(default)s)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "scenario",
        help="run a churn scenario (crashes, partitions, re-elections) "
             "or search its adversarial delay space against the "
             "closed-form bounds",
    )
    p.add_argument("action", choices=("run", "search"),
                   help="run: execute one spec under ChurnMonitor; "
                        "search: explore seeded delay assignments via a "
                        "resumable campaign")
    common(p)
    p.add_argument("--spec", metavar="FILE", default=None,
                   help="scenario spec JSON (default: generate the seeded "
                        "churn preset from the flags below)")
    p.add_argument("--spec-out", metavar="PATH", default=None,
                   help="save the spec (loaded or generated) as JSON")
    preset = p.add_argument_group("churn preset (without --spec)")
    preset.add_argument("--churn-seed", type=int, default=0,
                        help="seed for the generated churn story "
                             "(default %(default)s)")
    preset.add_argument("--crashes", type=int, default=1,
                        help="nodes to crash mid-partition "
                             "(default %(default)s)")
    preset.add_argument("--partition", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="include the partition/heal phase")
    preset.add_argument("--spacing", type=float, default=200.0,
                        help="time between scenario phases "
                             "(default %(default)s)")
    search = p.add_argument_group("delay search (action 'search')")
    search.add_argument("--trials", type=int, default=20,
                        help="seeded adversarial assignments to try, plus "
                             "the at-bounds run (default %(default)s)")
    search.add_argument("--root-seed", type=int, default=0,
                        help="root for trial-seed derivation "
                             "(default %(default)s)")
    search.add_argument("--bias", type=float, default=0.5,
                        help="probability a delay pins at its bound "
                             "(default %(default)s)")
    search.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default %(default)s); rows "
                             "are byte-identical for any N)")
    search.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                        help="content-addressed result cache "
                             "(default %(default)s)")
    search.add_argument("--no-cache", action="store_true",
                        help="recompute everything; do not touch the cache")
    search.add_argument("--max-tasks", type=int, default=None, metavar="K",
                        help="execute at most K fresh tasks then stop "
                             "(exit 3); re-running resumes from the cache")
    search.add_argument("--rows-out", default=None, metavar="PATH",
                        help="write the search rows + report as JSON")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser(
        "campaign",
        help="sharded, cached experiment campaign: sweeps, Monte-Carlo "
             "or bench counters across a process pool, resumable from "
             "its result cache",
    )
    p.add_argument("workload", choices=CAMPAIGN_WORKLOADS,
                   help="which task family to run")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (default %(default)s); rows are "
                        "byte-identical for any N")
    p.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                   help="content-addressed result cache "
                        "(default %(default)s)")
    p.add_argument("--no-cache", action="store_true",
                   help="recompute everything; do not read or write the cache")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-task wall-clock limit (worker is killed; "
                        "needs --jobs >= 2)")
    p.add_argument("--retries", type=int, default=2, metavar="K",
                   help="extra attempts per task after a worker crash "
                        "(default %(default)s)")
    p.add_argument("--max-tasks", type=int, default=None, metavar="K",
                   help="execute at most K fresh tasks then stop (exit 3); "
                        "re-running resumes from the cache")
    p.add_argument("--rows-out", default=None, metavar="PATH",
                   help="write the deterministic result rows as JSON "
                        "(only once the campaign is complete)")
    p.add_argument("--manifest-out", default=None, metavar="PATH",
                   help="write a campaign manifest (shards, cache hits, "
                        "retries, per-task wall time)")
    p.add_argument("--progress", action="store_true",
                   help="single-line stderr ticker (done/total, cache "
                        "hits, retries, EWMA tasks/sec) instead of "
                        "per-task lines")
    p.add_argument("--perf", action="store_true",
                   help="collect per-task perf counters in the workers, "
                        "merge them campaign-wide, print the attribution "
                        "table and record it in the manifest")
    grid = p.add_argument_group("workload parameters")
    grid.add_argument("--n", type=int, default=32,
                      help="problem size: tradeoff tree size / montecarlo "
                           "graph size (default %(default)s)")
    grid.add_argument("--ratios", default="0,1,2,4,8,16", metavar="LIST",
                      help="tradeoff: comma list of C/P ratios, exact "
                           "fractions allowed (default %(default)s)")
    grid.add_argument("--P", default="1", metavar="FRACTION",
                      help="tradeoff: software delay bound "
                           "(default %(default)s)")
    grid.add_argument("--seeds", type=int, default=16,
                      help="montecarlo: number of derived seeds "
                           "(default %(default)s)")
    grid.add_argument("--root-seed", type=int, default=0,
                      help="montecarlo: root for seed derivation "
                           "(default %(default)s)")
    grid.add_argument("--edge-prob", type=float, default=0.18,
                      help="montecarlo: random-graph edge probability "
                           "(default %(default)s)")
    grid.add_argument("--topology", default=None, metavar="SPEC",
                      help="montecarlo: pin the topology to a builder spec "
                           "(e.g. random:64,16); only delays vary per seed, "
                           "and workers reuse pooled substrates (overrides "
                           "--n/--edge-prob)")
    grid.add_argument("--names", default=None, metavar="LIST",
                      help="bench: comma list of benchmarks (default: all)")
    p.set_defaults(func=cmd_campaign)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point (``python -m repro ...``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception:
        # An armed flight recorder turns a crash into a postmortem:
        # dump the ring before the traceback propagates.
        recorder = getattr(args, "_recorder", None)
        if recorder is not None:
            path = recorder.dump(reason="exception")
            print(f"flight recorder dumped to {path} (uncaught exception)",
                  file=sys.stderr)
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
