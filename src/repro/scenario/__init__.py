"""Scenario engine: churn, partitions, and adversarial-delay search.

The first subsystem that *drives* the simulator rather than observing
it.  A :class:`ScenarioSpec` describes a failure story as plain data
(link/node failures, partitions and heals, NCU crashes with state loss,
restarts, START phases); the compiler turns it into closure-free
scheduler events; the runner executes it — optionally under a
:class:`~repro.obs.monitors.ChurnMonitor` — as a deterministic campaign
task; and the search driver explores adversarial delay assignments
within (C, P) bounds against the closed-form bounds.
"""

from .compiler import (
    CompiledScenario,
    compile_scenario,
    schedule_failure_actions,
    validate_scenario,
)
from .runner import attach_protocol, run_scenario, scenario_metrics
from .search import (
    delay_search_specs,
    election_rounds,
    run_delay_search,
    search_report,
)
from .spec import (
    OPS,
    PROTOCOLS,
    ScenarioEvent,
    ScenarioSpec,
    churn_scenario,
)

__all__ = [
    "OPS",
    "PROTOCOLS",
    "CompiledScenario",
    "ScenarioEvent",
    "ScenarioSpec",
    "attach_protocol",
    "churn_scenario",
    "compile_scenario",
    "delay_search_specs",
    "election_rounds",
    "run_delay_search",
    "run_scenario",
    "scenario_metrics",
    "schedule_failure_actions",
    "search_report",
    "validate_scenario",
]
