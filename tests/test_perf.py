"""Perf-counter attribution: correctness, determinism, aggregation.

Three properties are load-bearing:

1. **Attribution is exact** — counters equal the independent totals the
   metrics layer keeps (hops, system calls, events processed), so a
   perf breakdown can be trusted against the gated numbers.
2. **Observation never perturbs** — the golden-equivalence scenarios
   produce byte-identical documents with counters globally enabled,
   and BENCH metrics blocks match with perf on vs off.
3. **Aggregation is lossless** — per-task registries collected by
   campaign workers merge into the same totals regardless of sharding
   (fixed histogram bounds make the merge bin-exact).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core import FloodingBroadcast, run_standalone_broadcast
from repro.exec.engine import run_campaign
from repro.exec.task import TaskSpec
from repro.network.builder import from_spec
from repro.obs import (
    CampaignManifest,
    Histogram,
    PerfCounters,
    RunManifest,
    SamplingProfiler,
    merge_perf_dicts,
)
from repro.obs.bench import run_benchmark
from repro.sim import FixedDelays

from test_hotpath_equivalence import GOLDEN_PATH, SCENARIOS


def _flood_net(spec: str = "random:16,3"):
    return from_spec(spec, delays=FixedDelays(0.5, 1.0))


def _run_flood(net) -> None:
    run_standalone_broadcast(net, lambda api: FloodingBroadcast(api, root=0), 0)


# ----------------------------------------------------------------------
# Histogram merge / round-trip (satellite)
# ----------------------------------------------------------------------
def test_histogram_merge_sums_everything():
    a = Histogram([1.0, 10.0, 100.0])
    b = Histogram([1.0, 10.0, 100.0])
    for v in (0.5, 5.0, 50.0):
        a.add(v)
    for v in (2.0, 500.0):
        b.add(v)
    out = a.merge(b)
    assert out is a
    assert a.count == 5
    assert a.total == pytest.approx(557.5)
    assert a.minimum == 0.5 and a.maximum == 500.0
    assert sum(a.counts) == 5


def test_histogram_merge_mismatched_bounds_raises():
    a = Histogram([1.0, 10.0])
    b = Histogram([1.0, 10.0, 100.0])
    with pytest.raises(ValueError, match="different bounds"):
        a.merge(b)


def test_histogram_empty_merge_is_identity():
    a = Histogram([1.0, 10.0])
    for v in (0.2, 3.0, 99.0):
        a.add(v)
    before = a.to_dict()
    a.merge(Histogram([1.0, 10.0]))
    assert a.to_dict() == before
    # ...and merging *into* an empty one reproduces the source.
    empty = Histogram([1.0, 10.0])
    empty.merge(a)
    assert empty.to_dict() == before


def test_histogram_dict_round_trip():
    a = Histogram.geometric(0.5, 1000.0, 6)
    for v in (0.1, 0.7, 30.0, 5000.0):
        a.add(v)
    data = json.loads(json.dumps(a.to_dict()))
    back = Histogram.from_dict(data)
    assert back.to_dict() == a.to_dict()
    assert back.quantile(0.5) == a.quantile(0.5)


def test_histogram_from_dict_bad_counts_raises():
    data = Histogram([1.0, 2.0]).to_dict()
    data["counts"] = [0, 0]  # bounds imply 3 bins
    with pytest.raises(ValueError, match="bins"):
        Histogram.from_dict(data)


# ----------------------------------------------------------------------
# Counter attribution
# ----------------------------------------------------------------------
def test_counters_match_metrics_layer():
    net = _flood_net()
    counters = PerfCounters().install(net)
    _run_flood(net)
    snap = net.metrics.snapshot()
    assert counters.sched_pop == net.scheduler.events_processed
    assert counters.ss_hops == snap.hops
    assert counters.ncu_jobs == snap.system_calls
    assert counters.sched_push >= counters.sched_pop
    assert counters.handler_us.count == counters.ncu_jobs
    assert counters.ncu_handler_s > 0.0
    assert counters.sched_run_s > 0.0


def test_counters_count_trace_emission():
    net = from_spec("ring:8", delays=FixedDelays(0.5, 1.0), trace=True)
    counters = PerfCounters().install(net)
    _run_flood(net)
    assert counters.trace_records == len(net.trace) > 0


def test_install_and_uninstall_are_instance_scoped():
    net = _flood_net("ring:8")
    other = _flood_net("ring:8")
    counters = PerfCounters().install(net)
    _run_flood(other)  # not instrumented
    assert counters.sched_pop == 0
    _run_flood(net)
    assert counters.sched_pop > 0
    counters.uninstall(net)
    before = counters.sched_pop
    _run_flood(from_spec("ring:8", delays=FixedDelays(0.5, 1.0)))
    assert counters.sched_pop == before
    # Class attributes were never touched.
    assert type(net.scheduler).perf is None


def test_global_activation_captures_networks_built_later():
    counters = PerfCounters()
    with counters:
        net = _flood_net("ring:8")
        _run_flood(net)
        net2 = _flood_net("grid:3,3")
        _run_flood(net2)
    total = counters.sched_pop
    assert total == net.scheduler.events_processed + net2.scheduler.events_processed
    # Deactivated: later runs are invisible.
    _run_flood(_flood_net("ring:8"))
    assert counters.sched_pop == total


def test_events_per_sec_meter_rolls():
    net = _flood_net()
    counters = PerfCounters().install(net)
    _run_flood(net)
    rate = counters.events_per_sec()
    assert rate > 0.0
    # A tiny window after going idle decays toward zero.
    time.sleep(0.01)
    assert counters.events_per_sec(window=0.005) == 0.0


def test_alloc_snapshot_requires_tracking():
    counters = PerfCounters()
    with pytest.raises(RuntimeError, match="tracking is off"):
        counters.alloc_snapshot()
    counters.start_alloc_tracking()
    try:
        payload = [list(range(100)) for _ in range(50)]
        top = counters.alloc_snapshot(top=5)
    finally:
        counters.stop_alloc_tracking()
    assert payload and top
    assert all({"where", "size_kb", "blocks"} <= set(row) for row in top)


def test_perf_dict_round_trip_and_merge():
    net = _flood_net()
    counters = PerfCounters().install(net)
    _run_flood(net)
    data = json.loads(json.dumps(counters.to_dict()))
    back = PerfCounters.from_dict(data)
    assert back.to_dict() == counters.to_dict()

    doubled = PerfCounters.from_dict(data).merge(back)
    assert doubled.sched_pop == 2 * counters.sched_pop
    assert doubled.handler_us.count == 2 * counters.handler_us.count
    assert merge_perf_dicts([]) is None
    assert merge_perf_dicts([data])["counters"] == data["counters"]


def test_scheduler_ledger_balances():
    """``sched_push == sched_pop + sched_cancelled_drops + pending``.

    The push/pop/drop ledger must account for every event, mid-run and
    at quiescence — it is how a perf breakdown proves no event was lost
    or double-counted by the cancelled-entry sweeps.
    """
    from repro.sim import Scheduler

    sched = Scheduler()
    counters = PerfCounters()
    sched.perf = counters

    def cancel_peer(victim):
        victim.cancel()

    handles = [sched.schedule(float(i % 4), lambda: None) for i in range(40)]
    for handle in handles[::5]:
        handle.cancel()
    # Mid-run cancellations: events at t=1 cancel not-yet-fired peers.
    sched.schedule(1.0, cancel_peer, 2, "axe", (handles[2],))
    sched.schedule(1.0, cancel_peer, 2, "axe", (handles[3],))

    def balanced():
        return counters.sched_push == (
            counters.sched_pop + counters.sched_cancelled_drops + sched.pending
        )

    assert balanced()  # nothing fired yet: push == pending + early drops
    sched.run(until=1.0)
    assert balanced()
    sched.run()
    assert sched.pending == 0
    assert balanced()
    assert counters.sched_push == 42
    assert counters.sched_pop == sched.events_processed


def test_render_is_presentable():
    net = _flood_net("ring:8")
    counters = PerfCounters().install(net)
    _run_flood(net)
    text = counters.render()
    assert "ss_hops" in text and "ncu handler wall (us)" in text


# ----------------------------------------------------------------------
# Observation must not perturb (acceptance criterion)
# ----------------------------------------------------------------------
def test_golden_equivalence_with_counters_enabled():
    """The golden suite's documents are byte-identical under perf."""
    golden = json.loads(GOLDEN_PATH.read_text())
    counters = PerfCounters().activate()
    try:
        for name, scenario in SCENARIOS.items():
            current = scenario()
            assert json.dumps(current, sort_keys=True) == json.dumps(
                golden[name], sort_keys=True
            ), f"scenario {name} diverged with perf counters enabled"
    finally:
        PerfCounters.deactivate()
    assert counters.sched_pop > 0 and counters.ss_hops > 0


def test_bench_perf_block_leaves_metrics_identical():
    plain = run_benchmark("broadcast_grid")
    instrumented = run_benchmark("broadcast_grid", perf=True)
    assert "perf" not in plain and "perf" in instrumented
    for key, value in plain["metrics"].items():
        if key in ("wall_ms", "events_per_sec", "hops_per_sec"):
            continue  # wall-clock, moves run to run regardless
        assert instrumented["metrics"][key] == value
    counters = instrumented["perf"]["counters"]
    assert counters["sched_pop"] == plain["metrics"]["events"]
    assert counters["ncu_jobs"] == plain["metrics"]["system_calls"]


# ----------------------------------------------------------------------
# Campaign telemetry
# ----------------------------------------------------------------------
def _mc_specs(count: int = 2) -> list[TaskSpec]:
    return [
        TaskSpec.make(
            "repro.exec.workloads:election_calls_per_node",
            seed=i,
            topology="ring:8",
            label=f"mc[{i}]",
        )
        for i in range(count)
    ]


def test_campaign_perf_serial_and_manifest_merge():
    outcome = run_campaign(_mc_specs(), jobs=1, perf=True)
    assert all(r.perf is not None for r in outcome.results)
    merged = outcome.merged_perf()
    assert merged["counters"]["sched_pop"] == sum(
        r.perf["counters"]["sched_pop"] for r in outcome.results
    )
    manifest = CampaignManifest.from_outcome(
        outcome, command="test", workload="montecarlo"
    )
    assert manifest.perf == merged
    assert manifest.substrate_reuse in (True, False)


def test_campaign_perf_counters_identical_across_sharding():
    """Deterministic counters don't depend on where a task ran."""
    serial = run_campaign(_mc_specs(), jobs=1, perf=True)
    pooled = run_campaign(_mc_specs(), jobs=2, perf=True)
    deterministic = ("sched_push", "sched_pop", "ss_hops", "ncu_jobs",
                     "trace_records")
    for a, b in zip(serial.results, pooled.results):
        for key in deterministic:
            assert a.perf["counters"][key] == b.perf["counters"][key]
        assert a.value == b.value


def test_campaign_without_perf_carries_none():
    outcome = run_campaign(_mc_specs(1), jobs=1)
    assert outcome.results[0].perf is None
    assert outcome.merged_perf() is None
    manifest = CampaignManifest.from_outcome(outcome, command="test")
    assert manifest.perf is None


def test_run_manifest_records_substrate_provenance():
    net = _flood_net("ring:8")
    _run_flood(net)
    manifest = RunManifest.collect(net, command="test")
    assert manifest.substrate_reuse in (True, False)
    data = manifest.to_dict()
    assert "substrate_reuse" in data and "substrate_pool" in data


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------
def _busy_wait(seconds: float) -> int:
    deadline = time.perf_counter() + seconds
    spins = 0
    while time.perf_counter() < deadline:
        spins += 1
    return spins


def test_sampling_profiler_outputs(tmp_path):
    profiler = SamplingProfiler(hz=500)
    with profiler:
        _busy_wait(0.25)
    assert profiler.samples > 0
    collapsed = profiler.collapsed()
    assert any("_busy_wait" in stack for stack in collapsed)

    text_path = profiler.write_collapsed(tmp_path / "out.collapsed.txt")
    lines = text_path.read_text().strip().splitlines()
    assert lines and all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    doc = json.loads(
        profiler.write_speedscope(
            tmp_path / "out.speedscope.json", name="unit"
        ).read_text()
    )
    assert doc["$schema"].startswith("https://www.speedscope.app")
    profile = doc["profiles"][0]
    assert profile["type"] == "sampled"
    assert len(profile["samples"]) == len(profile["weights"])
    n_frames = len(doc["shared"]["frames"])
    assert all(0 <= idx < n_frames for stack in profile["samples"] for idx in stack)
    assert profile["endValue"] == pytest.approx(sum(profile["weights"]))


def test_sampling_profiler_guards():
    with pytest.raises(ValueError):
        SamplingProfiler(hz=0)
    profiler = SamplingProfiler(hz=100).start()
    try:
        with pytest.raises(RuntimeError, match="already running"):
            profiler.start()
    finally:
        profiler.stop()
    profiler.stop()  # idempotent


# ----------------------------------------------------------------------
# Build-memory gauge
# ----------------------------------------------------------------------
def test_measure_build_bytes_per_node_sets_gauge():
    perf = PerfCounters()
    net = perf.measure_build_bytes_per_node(
        lambda: from_spec("grid:4,4", trace=False)
    )
    assert net.n == 16
    assert perf.build_bytes_per_node > 0
    # The gauge merges by max and survives serialisation.
    clone = PerfCounters.from_dict(perf.to_dict())
    assert clone.build_bytes_per_node == perf.build_bytes_per_node
    low = PerfCounters()
    low.merge(perf)
    assert low.build_bytes_per_node == perf.build_bytes_per_node
    assert "build_bytes_per_node" in perf.render()


def test_measure_build_bytes_per_node_explicit_count_and_guards():
    perf = PerfCounters()
    blob = perf.measure_build_bytes_per_node(lambda: bytearray(10_000), nodes=10)
    assert len(blob) == 10_000
    assert perf.build_bytes_per_node >= 1_000
    with pytest.raises(ValueError):
        perf.measure_build_bytes_per_node(lambda: object())
    perf.start_alloc_tracking()
    try:
        with pytest.raises(RuntimeError):
            perf.measure_build_bytes_per_node(lambda: None, nodes=1)
    finally:
        perf.stop_alloc_tracking()
