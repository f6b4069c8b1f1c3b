"""Name of the simulator's event kernel, for run provenance.

The heap :class:`~repro.sim.scheduler.Scheduler` is the only kernel.
This function exists for the benchmark driver (``perfbench/run.py``),
which records ``resolve_kernel(None)`` in each result's provenance.
"""

from __future__ import annotations


def resolve_kernel(name: str | None = None) -> str:
    """The event kernel every run uses: always ``"heap"``."""
    return "heap"
