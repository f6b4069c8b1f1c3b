"""Run one benchmark workload against the simulator in ``src/``.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fabric_broadcast --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first repeats that untraced measurement, then measures
again with spans around every layer call, and reports the per-layer
metrics, the reconciliation of layer self times against wall-clock time
and the tracing overhead.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run appends its full
record, with provenance, to ``perfbench/out/results.jsonl``; a traced
run also writes its spans to ``perfbench/out/``.

Exit status: 0 when every check passed, 1 when a check failed, 2 when
the simulator's sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("fabric_broadcast", "anr_stream", "churn_campaign")


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` if none)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    from repro.sim.kernel import resolve_kernel

    return {
        "seed": seed,
        "git_revision": git_revision(ROOT),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": resolve_kernel(None),
    }


def retained_bytes_per_node(spec: str) -> float:
    """Heap retained by one ``from_spec`` build, per node (tracemalloc)."""
    from repro.network import from_spec

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        net = from_spec(spec)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
        n = net.n
    finally:
        tracemalloc.stop()
    del net
    gc.collect()
    return retained / n


def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<28} {fmt(value):>14} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {src}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    from perfbench import measures
    from perfbench.tracing import Tracer, noop_event_us
    from perfbench.workloads import WORKLOADS, ChurnCampaign
    from repro.exec.substrate import pool_stats

    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))
    cls = WORKLOADS[args.workload]
    plain = cls(args.seed)
    untraced = plain.measure(args.seconds)
    e2e = measures.end_to_end(untraced)
    print_metrics(
        f"{args.workload}: end-to-end, tracing off "
        f"({len(untraced.task_s)} tasks, {untraced.attempted} simulations)",
        {**e2e, "fail_frac": untraced.failed / max(1, untraced.attempted)},
        {**measures.END_TO_END_UNITS, "fail_frac": "ratio"},
    )
    tallies = [untraced]
    record = {"workload": args.workload, "provenance": prov, "end_to_end": e2e}

    if args.trace:
        tracer = Tracer()
        workload = cls(args.seed, tracer)
        if isinstance(workload, ChurnCampaign):
            workload.reference = plain.reference
        pool0 = pool_stats() or {"builds": 0, "reuses": 0}
        t0 = perf_counter()
        traced = workload.measure(args.seconds)
        window_s = perf_counter() - t0
        pool1 = pool_stats() or {"builds": 0, "reuses": 0}
        tallies.append(traced)
        calls, _, _ = tracer.totals_prefix("core.dispatch.")
        if calls != traced.system_calls:
            traced.failed += 1
            traced.errors.append(
                f"{calls} handler spans for {traced.system_calls} system calls"
            )
        traced_e2e = measures.end_to_end(traced)
        noop_us = noop_event_us(tracer.pending_peak)
        bytes_per_node = retained_bytes_per_node(cls.SPEC)
        layers = measures.per_layer(
            traced,
            tracer,
            noop_us=noop_us,
            bytes_per_node=bytes_per_node,
            window_s=window_s,
            overhead_x=e2e["tasks_per_s"] / traced_e2e["tasks_per_s"],
        )
        extra = measures.workload_layer(
            traced,
            tracer,
            {key: pool1[key] - pool0[key] for key in ("builds", "reuses")},
        )
        print_metrics(
            f"{args.workload}: per layer (per task where a count)",
            {**layers, **{k: v for k, (v, _) in extra.items()}},
            {**measures.PER_LAYER_UNITS, **{k: u for k, (_, u) in extra.items()}},
        )
        self_s = tracer.layer_self_s(noop_us)
        print(f"reconciliation over the traced window of {fmt(window_s)} s:")
        for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<10} {fmt(seconds):>12} s {seconds / window_s:8.1%}")
        unattributed = window_s - sum(self_s.values())
        print(
            f"  {'unattributed':<10} {fmt(unattributed):>12} s "
            f"{unattributed / window_s:8.1%}"
        )
        print("tracing overhead (traced / untraced):")
        for name in measures.END_TO_END_UNITS:
            if name != "mem_peak_mb":
                print(f"  {name:<28} {traced_e2e[name] / e2e[name]:8.3f}x")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path, {"workload": args.workload, **prov})
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        record.update({
            "per_layer": layers,
            "workload_layer": {k: v for k, (v, _) in extra.items()},
            "layer_self_s": self_s,
            "traced_end_to_end": traced_e2e,
        })
        metrics, units = layers, measures.PER_LAYER_UNITS
    else:
        metrics, units = e2e, measures.END_TO_END_UNITS

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for tally in tallies:
        for error in tally.errors[:20]:
            print(f"check failed: {error}", file=sys.stderr)
    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    if bad:
        print(f"error: metrics not measured: {bad}", file=sys.stderr)
        failed = max(failed, 1)
    record.update({"attempted": attempted, "failed": failed})
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
