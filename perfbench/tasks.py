"""The traced twin of ``repro.scenario.runner:scenario_metrics``.

It makes the calls ``scenario_metrics`` and ``run_scenario`` make, in
the same order and with the same arguments, with a span around each —
except that the attached election is the traced subclass, whose
``dispatch`` and ``send`` are spans too.  The traced run checks that
every row equals the untraced row for the same seed.

Campaign tasks are resolved by import path and take only JSON
parameters, so the tracer, tally and traced protocol reach this function through
:data:`CONTEXT`, which the churn workload sets around each campaign
(one process, ``jobs=1``).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

import networkx as nx

from repro.exec.substrate import worker_pool
from repro.obs.monitors import ChurnMonitor, MonitorHost
from repro.scenario import ScenarioSpec, compile_scenario
from repro.sim.adversary import SeededAdversary
from repro.sim.delays import FixedDelays

#: ``(tracer, tally, traced election class)`` of the campaign being
#: run, or ``None``.
CONTEXT: Any = None


def traced_scenario_metrics(
    seed: int | None = None, *, spec: dict, bias: float | None = None
) -> dict[str, Any]:
    """Campaign task: one churn scenario run, one row, with spans."""
    tracer, tally, election = CONTEXT
    with tracer.span("scenario.parse"):
        scenario = ScenarioSpec.from_dict(spec)
        if seed is None:
            delays = FixedDelays(scenario.C, scenario.P)
        else:
            delays = SeededAdversary(
                scenario.C,
                scenario.P,
                seed=seed,
                bias=0.5 if bias is None else bias,
            )
    pool = worker_pool()
    builds = pool.builds
    t0 = perf_counter()
    net = pool.acquire(scenario.topology, delays=delays)
    # The pool builds on its first acquisition and resets after.
    tracer.add(
        "network.build" if pool.builds > builds else "network.reset",
        t0,
        perf_counter(),
    )
    tracer.install(net.scheduler)
    tracer.watch_links(net.links.values())
    with tracer.span("scenario.run"):
        with tracer.span("network.attach"):
            net.attach(election)
        with tracer.span("scenario.compile"):
            compile_scenario(net, scenario)
        with tracer.span("obs.install"):
            churn = ChurnMonitor(net, expect_leaders=scenario.protocol == "election")
            host = MonitorHost(net, [churn]).install()
        tracer.install_tail(net.scheduler)
        tracer.run("sim.run", net.run_to_quiescence)
        with tracer.span("obs.finish"):
            alerts = host.finish()
        with tracer.span("scenario.row"):
            final_time = net.scheduler.now
            metrics = net.metrics
            leaders = sorted(
                repr(node_id)
                for node_id, value in net.outputs_for_key("is_leader").items()
                if value and not net.nodes[node_id].ncu.crashed
            )
            row = {
                "scenario": scenario.name,
                "final_time": float(final_time),
                "system_calls": int(metrics.system_calls),
                "tour_return_calls": int(
                    metrics.system_calls_of_kind("tour")
                    + metrics.system_calls_of_kind("return")
                ),
                "hops": int(metrics.hops),
                "drops": int(metrics.drops),
                "events": int(net.scheduler.events_processed),
                "leaders": leaders,
                "components": int(nx.number_connected_components(net.active_graph())),
                "alerts": len(alerts),
                "violations": sum(1 for a in alerts if a.severity == "violation"),
            }
    tally.copies += metrics.copies
    peak = max(node.ncu.queue_peak for node in net.nodes.values())
    tally.ncu_queue_peak = max(tally.ncu_queue_peak, peak)
    return row
