"""Adversarial delay search: empirically hunting the worst case.

The paper's time complexities are worst-case over all delay assignments
within the (C, P) bounds.  For tree- and path-structured algorithms the
worst case is provably "all delays at their bounds", which is why
``FixedDelays(C, P)`` measures it directly — but that's a theorem about
*these* algorithms, not a law of the model.  This module provides a
randomized search that tries to *beat* the pinned-delay completion time
by perturbing individual delays within bounds:

* :func:`random_delay_search` re-runs a scenario under many seeded
  random delay assignments (plus the all-at-bounds assignment) and
  reports the worst completion observed;
* the tests use it to confirm, empirically, that nothing beats the
  bounds for the §3/§5 algorithms — and that the §4 bound of Theorem 5
  survives every timing tried.

Every draw routes through :func:`repro.sim.seeding.derive_seed` — no
``random`` module, no global state — so an adversarial schedule is
reproducible from its integer seed alone, and campaign shards drawing
from the same root seed agree bit-for-bit with a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .delays import DelayModel, FixedDelays
from .seeding import _MASK64, derive_seed, splitmix64

#: 53-bit mantissa mask: ``word & _MANTISSA`` over ``2**53`` is the
#: standard uniform-in-[0, 1) construction.
_MANTISSA = (1 << 53) - 1


def _component_key(target: Any) -> int | str:
    """Coerce a delay target (link key / node ID) to a seed component."""
    if isinstance(target, int) and not isinstance(target, bool):
        return target
    if isinstance(target, str):
        return target
    return repr(target)


@dataclass
class SeededAdversary(DelayModel):
    """Random per-(target, seq) delays, deterministic per seed.

    Each delay is drawn as ``bound * u`` with ``u`` derived from
    ``derive_seed(seed, kind, target, seq)`` and biased toward 1 (the
    bound) — so re-running the same seed reproduces the exact timing,
    different seeds explore genuinely different schedules, and a draw
    depends on nothing but the (seed, target, sequence) triple.
    """

    hardware: float
    software: float
    seed: int
    bias: float = 0.5  # probability mass pinned exactly at the bound

    def __post_init__(self) -> None:
        self.hardware_bound = self.hardware
        self.software_bound = self.software
        self._root = derive_seed(self.seed, "adversary")
        #: ``(kind, component) -> derive_seed(root, kind, component)``.
        #: Keyed on the component, not the target: ``True``/``1``,
        #: ``1.0``/``1`` and ``(1, 2)``/``(1.0, 2)`` hash equal as
        #: targets but are different seed components.
        self._prefixes: dict[tuple[str, int | str], int] = {}

    def _draw(self, bound: float, kind: str, target: Any, seq: int) -> float:
        if bound == 0.0:
            return 0.0
        component = _component_key(target)
        key = (kind, component)
        prefix = self._prefixes.get(key)
        if prefix is None:
            prefix = self._prefixes[key] = derive_seed(self._root, kind, component)
        # derive_seed's last round, for the integer component ``seq``:
        # equal to derive_seed(root, kind, component, seq).
        word = splitmix64(prefix ^ splitmix64(seq & _MASK64))
        # Top 11 bits decide pin-at-bound; low 53 bits are the uniform.
        if (word >> 53) / 2048.0 < self.bias:
            return bound
        return bound * ((word & _MANTISSA) / float(1 << 53))

    def hardware_delay(self, link_key: Any, packet_seq: int) -> float:
        return self._draw(self.hardware, "hw", link_key, packet_seq)

    def software_delay(self, node_id: Any, job_seq: int) -> float:
        return self._draw(self.software, "sw", node_id, job_seq)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an adversarial delay search."""

    worst_value: float
    worst_seed: int | None  # None = the all-at-bounds assignment won
    at_bounds_value: float
    trials: int

    @property
    def bounds_are_worst(self) -> bool:
        """Did pinning every delay at its bound maximise the objective?"""
        return self.worst_value <= self.at_bounds_value + 1e-9


def random_delay_search(
    scenario: Callable[[DelayModel], float],
    *,
    C: float,
    P: float,
    trials: int = 20,
    seed: int = 0,
    bias: float = 0.5,
) -> SearchResult:
    """Maximise ``scenario(delay_model)`` over random delay assignments.

    ``scenario`` builds a fresh network with the given delay model,
    runs the algorithm, and returns the objective (typically the
    completion time).  The all-at-bounds assignment is always included.
    Trial seeds are derived from ``seed`` via ``derive_seed``; the
    reported ``worst_seed`` is the *derived* seed, directly reusable as
    ``SeededAdversary(C, P, seed=worst_seed, bias=bias)``.
    """
    at_bounds = scenario(FixedDelays(C, P))
    worst_value, worst_seed = at_bounds, None
    for trial in range(trials):
        trial_seed = derive_seed(seed, "delay-search", trial)
        value = scenario(SeededAdversary(C, P, seed=trial_seed, bias=bias))
        if value > worst_value:
            worst_value, worst_seed = value, trial_seed
    return SearchResult(
        worst_value=worst_value,
        worst_seed=worst_seed,
        at_bounds_value=at_bounds,
        trials=trials + 1,
    )
