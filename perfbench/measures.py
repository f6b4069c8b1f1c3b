"""Turn what a run measured into named metrics with units.

:func:`end_to_end` reads an untraced :class:`~perfbench.workloads.Tally`;
:func:`per_layer` reads a traced one together with its
:class:`~perfbench.tracing.Tracer`.  Per-layer counts are per task (one
broadcast pair, one stream, one campaign task), so they do not depend
on how many tasks fit in a run.
"""

from __future__ import annotations

import math
import resource
import statistics
from typing import Any

from .tracing import EVENT_BUCKETS, Tracer
from .workloads import Tally

#: End-to-end metric -> unit, in report order.  ``fail_frac`` is printed
#: with the rest but is not a benchmark metric: it is 0 on every good
#: run, which the result's ``failed``/``attempted`` already carry.
END_TO_END_UNITS = {
    "setup_s": "s",
    "syscalls_per_s": "1/s",
    "hops_per_s": "1/s",
    "tasks_per_s": "1/s",
    "task_ms.p50": "ms",
    "task_ms.p95": "ms",
    "mem_peak_mb": "MB",
}


def percentile(values: Any, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def mem_peak_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tally: Tally) -> dict[str, float]:
    tasks = len(tally.task_s)
    task_ms = [s * 1000.0 for s in tally.task_s] or [math.nan]
    sim_s = tally.sim_s or math.nan
    return {
        "setup_s": statistics.median(tally.setup_s),
        "syscalls_per_s": tally.system_calls / sim_s,
        "hops_per_s": tally.hops / sim_s,
        "tasks_per_s": tasks / tally.wall_s,
        "task_ms.p50": statistics.median(task_ms),
        "task_ms.p95": percentile(task_ms, 95),
        "mem_peak_mb": mem_peak_mb(),
    }


#: Per-layer metric -> unit for the metrics every workload reports.
PER_LAYER_UNITS = {
    "sim.events": "count",
    **{f"sim.events.{bucket}": "count" for bucket in EVENT_BUCKETS},
    "sim.pending_peak": "count",
    "sim.event_us.hop": "us",
    "sim.event_us.ncu": "us",
    "sim.noop_event_us": "us",
    "hardware.hops": "count",
    "hardware.copies": "count",
    "hardware.system_calls": "count",
    "hardware.drops": "count",
    "hardware.ncu_queue_peak": "count",
    "hardware.ss_hop_us": "us",
    "hardware.send_us": "us",
    "hardware.ncu_self_us": "us",
    "core.handler_calls": "count",
    "core.handler_s": "s",
    "core.handler_us.p50": "us",
    "core.handler_us.p99": "us",
    "core.handler_self_s": "s",
    "network.graph_s": "s",
    "network.build_s": "s",
    "network.views_s": "s",
    "network.attach_s": "s",
    "network.reset_us": "us",
    "network.bytes_per_node": "B",
    "network.link_changes": "count",
    "trace.wall_s": "s",
    "trace.attributed_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_x": "x",
}


def _mean_s(tracer: Tracer, name: str) -> float:
    count, total, _ = tracer.totals(name)
    return total / count if count else math.nan


def per_layer(
    tally: Tally,
    tracer: Tracer,
    *,
    noop_us: float,
    bytes_per_node: float,
    window_s: float,
    overhead_x: float,
) -> dict[str, float]:
    tasks = max(1, len(tally.task_s))
    out: dict[str, float] = {"sim.events": tally.events / tasks}
    for bucket in EVENT_BUCKETS:
        out[f"sim.events.{bucket}"] = tracer.event_stats(bucket).count / tasks
    hop = tracer.event_stats("hop")
    ncu = tracer.event_stats("ncu")
    hop_us = hop.cost_s / hop.count * 1e6 if hop.count else math.nan
    send_count, send_s, _ = tracer.totals("hardware.send")
    calls, handler_s, handler_self = tracer.totals_prefix("core.dispatch.")
    handler_us = [d * 1e6 for d in tracer.handler_durations] or [math.nan]
    out.update({
        "sim.pending_peak": tracer.pending_peak,
        "sim.event_us.hop": hop_us,
        "sim.event_us.ncu": ncu.cost_s / ncu.count * 1e6 if ncu.count else math.nan,
        "sim.noop_event_us": noop_us,
        "hardware.hops": tally.hops / tasks,
        "hardware.copies": tally.copies / tasks,
        "hardware.system_calls": tally.system_calls / tasks,
        "hardware.drops": tally.drops / tasks,
        "hardware.ncu_queue_peak": tally.ncu_queue_peak,
        "hardware.ss_hop_us": hop_us - noop_us,
        "hardware.send_us": send_s / send_count * 1e6 if send_count else math.nan,
        "hardware.ncu_self_us": (
            (ncu.cost_s - ncu.child_s) / ncu.count * 1e6 if ncu.count else math.nan
        ),
        "core.handler_calls": calls / tasks,
        "core.handler_s": handler_s / tasks,
        "core.handler_us.p50": percentile(handler_us, 50),
        "core.handler_us.p99": percentile(handler_us, 99),
        "core.handler_self_s": handler_self / tasks,
        "network.graph_s": _mean_s(tracer, "network.graph"),
        "network.build_s": _mean_s(tracer, "network.build"),
        "network.views_s": _mean_s(tracer, "network.views"),
        "network.attach_s": _mean_s(tracer, "network.attach"),
        "network.reset_us": _mean_s(tracer, "network.reset") * 1e6,
        "network.bytes_per_node": bytes_per_node,
        "network.link_changes": tracer.link_changes / tasks,
    })
    attributed = sum(tracer.layer_self_s(noop_us).values())
    out.update({
        "trace.wall_s": window_s,
        "trace.attributed_s": attributed,
        "trace.unattributed_frac": (window_s - attributed) / window_s,
        "trace.overhead_x": overhead_x,
    })
    return out


def workload_layer(
    tally: Tally, tracer: Tracer, pool: dict[str, int]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of layers only some workloads exercise.

    ``pool`` is the change in ``pool_stats()`` over the traced phase.
    """
    tasks = max(1, len(tally.task_s))
    out: dict[str, tuple[float, str]] = {}
    for name in tracer.names:
        if name.startswith("core.dispatch."):
            label = name.rpartition(".")[2]
            out[f"core.handler_s.{label}"] = (tracer.totals(name)[1] / tasks, "s")
    if tally.campaign_s:
        out.update({
            "exec.tasks": (len(tally.task_s), "count"),
            "exec.tasks_failed": (tally.tasks_failed, "count"),
            "exec.retries": (tally.retries, "count"),
            "exec.task_overhead_ms": (
                (tally.campaign_s - sum(tally.task_s)) / tasks * 1000.0, "ms"
            ),
            "exec.pool_builds": (pool["builds"], "count"),
            "exec.pool_reuses": (pool["reuses"], "count"),
            "scenario.compile_us": (_mean_s(tracer, "scenario.compile") * 1e6, "us"),
            "scenario.run_ms": (_mean_s(tracer, "scenario.run") * 1e3, "ms"),
            "scenario.violations": (tally.violations, "count"),
        })
    return out
