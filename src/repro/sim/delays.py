"""Delay models: the (C, P) cost parameters of the paper.

The paper's model bounds *hardware* delays (link transmission plus
switching) by ``C`` per hop and *software* delays (one NCU involvement)
by ``P``.  Time complexity is defined as the worst case under those
bounds, while algorithms must stay correct for arbitrary finite delays.

This module provides pluggable delay models:

* :class:`FixedDelays` pins every delay at its bound.  For the tree- and
  path-structured algorithms studied in the paper, maximal delays
  maximise completion time (the paper makes this observation explicitly
  in Section 5), so a ``FixedDelays`` run *measures* the paper's time
  complexity directly.
* :class:`RandomDelays` draws delays uniformly from ``(lo_frac*bound,
  bound]`` with an explicit seed; used to check correctness under
  arbitrary asynchrony.
* :class:`PerturbedDelays` lets tests hand-craft adversarial timings for
  specific links/nodes while defaulting to the bounds elsewhere.

The limiting model of Sections 3 and 4 — negligible hardware cost — is
``FixedDelays(hardware=0.0, software=1.0)``, available as
:func:`limiting_model`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Hashable


class DelayModel(ABC):
    """Produces per-hop hardware delays and per-visit software delays.

    The hooks receive identifying context (the link or node key and a
    packet sequence number) so adversarial models can discriminate.
    """

    #: Upper bound on hardware delay per hop (the paper's ``C``).
    hardware_bound: float
    #: Upper bound on software delay per NCU involvement (the paper's ``P``).
    software_bound: float

    @abstractmethod
    def hardware_delay(self, link_key: Hashable, packet_seq: int) -> float:
        """Delay for one hop: link transmission plus switching."""

    @abstractmethod
    def software_delay(self, node_id: Hashable, job_seq: int) -> float:
        """Service time of one NCU job (one system call)."""

    @property
    def fixed_hardware_delay(self) -> float | None:
        """The hardware delay every hop gets, or ``None`` if it varies.

        Derived from the model, never configured.  The switching
        subsystem flies a run of transit hops as one scheduled event
        only when this is a number, because only then is every hop's
        timing closed-form.  Zero-bound models qualify whatever their
        kind: every delay in ``[0, 0]`` is 0.  Models that draw or
        override per hop return ``None`` and keep the per-hop path, so
        their draw order and FIFO clamping never move.
        """
        return 0.0 if self.hardware_bound == 0 else None


@dataclass
class FixedDelays(DelayModel):
    """Every delay is exactly its bound — the worst-case run.

    ``FixedDelays(0.0, 1.0)`` is the limiting model of Sections 3–4:
    hardware is free and instantaneous, each NCU involvement costs one
    time unit.  ``FixedDelays(C, P)`` is the general parameterised model
    of Section 5.
    """

    hardware: float = 0.0
    software: float = 1.0

    def __post_init__(self) -> None:
        if self.hardware < 0 or self.software < 0:
            raise ValueError("delay bounds must be non-negative")
        self.hardware_bound = self.hardware
        self.software_bound = self.software

    def hardware_delay(self, link_key: Hashable, packet_seq: int) -> float:
        return self.hardware

    def software_delay(self, node_id: Hashable, job_seq: int) -> float:
        return self.software

    @property
    def fixed_hardware_delay(self) -> float | None:
        return self.hardware


@dataclass
class RandomDelays(DelayModel):
    """Delays drawn uniformly from ``(lo_frac * bound, bound]``.

    A strictly positive ``lo_frac`` avoids zero hardware delays, which
    keeps event ordering informative; set it to ``0.0`` to allow the
    full range.  The model owns its RNG so that two networks with the
    same seed see identical timings.
    """

    hardware: float = 1.0
    software: float = 1.0
    lo_frac: float = 0.1
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo_frac <= 1.0:
            raise ValueError("lo_frac must lie in [0, 1]")
        self.hardware_bound = self.hardware
        self.software_bound = self.software
        self._rng = random.Random(self.seed)

    def _draw(self, bound: float) -> float:
        if bound == 0.0:
            return 0.0
        lo = self.lo_frac * bound
        return lo + (bound - lo) * self._rng.random()

    def hardware_delay(self, link_key: Hashable, packet_seq: int) -> float:
        return self._draw(self.hardware)

    def software_delay(self, node_id: Hashable, job_seq: int) -> float:
        return self._draw(self.software)


@dataclass
class PerturbedDelays(DelayModel):
    """Bound-valued delays with targeted, test-supplied overrides.

    ``hardware_override(link_key, packet_seq)`` / ``software_override
    (node_id, job_seq)`` may return ``None`` to fall back to the bound.
    Overrides must not exceed the bounds (checked), since the bounds are
    what the time-complexity measure is defined against.
    """

    hardware: float = 1.0
    software: float = 1.0
    hardware_override: Callable[[Hashable, int], float | None] | None = None
    software_override: Callable[[Hashable, int], float | None] | None = None

    def __post_init__(self) -> None:
        self.hardware_bound = self.hardware
        self.software_bound = self.software

    def hardware_delay(self, link_key: Hashable, packet_seq: int) -> float:
        if self.hardware_override is not None:
            value = self.hardware_override(link_key, packet_seq)
            if value is not None:
                if not 0.0 <= value <= self.hardware:
                    raise ValueError(f"hardware override {value} outside [0, C]")
                return value
        return self.hardware

    def software_delay(self, node_id: Hashable, job_seq: int) -> float:
        if self.software_override is not None:
            value = self.software_override(node_id, job_seq)
            if value is not None:
                if not 0.0 <= value <= self.software:
                    raise ValueError(f"software override {value} outside [0, P]")
                return value
        return self.software


def limiting_model() -> FixedDelays:
    """The limiting model of Sections 3–4: ``C = 0``, ``P = 1``.

    Hardware switching is free; each system call costs one unit.  Under
    this model the measured completion time of a run, divided by ``P``,
    is the paper's time complexity in "time units".
    """
    return FixedDelays(hardware=0.0, software=1.0)


def parameterized_model(C: float, P: float) -> FixedDelays:
    """The general model of Section 5 with explicit hardware/software costs."""
    return FixedDelays(hardware=C, software=P)
