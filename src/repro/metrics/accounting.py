"""Complexity accounting: the paper's cost measures, as counters.

The paper (Section 2) defines two network-resource costs:

* **Communication (hop) complexity** — the number of link hops traversed
  by packets; the *hardware* cost.  Counted by :meth:`count_hop`.
* **System-call complexity** — "the sum over all nodes of the number of
  times that each NCU is involved in the algorithm process"; the
  *software* cost.  Counted by :meth:`count_system_call`, once per NCU
  job served.

The collector also tracks packet injections, selective copies and drops
because the algorithms' analyses refer to them (e.g. the branching-paths
broadcast copies its message exactly once per node).

Counters can be sliced by node and by a free-form *kind* label so that a
test can, say, count only the election's tour messages when checking the
``6n`` bound of Theorem 5.  :meth:`snapshot` / :meth:`since` provide
cheap delta measurement around a protocol phase.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Hashable


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable totals captured at one instant.

    ``system_calls_by_kind`` maps the job-kind label (``"start"``,
    ``"packet"``, ``"timer"``, ``"link_event"`` or a protocol-supplied
    tag) to counts, which is what lets analyses separate, for example,
    broadcast relays from periodic-timer overhead.
    """

    system_calls: int
    hops: int
    packets_injected: int
    header_ids: int
    copies: int
    drops: int
    system_calls_per_node: dict[Any, int] = field(default_factory=dict)
    system_calls_by_kind: dict[str, int] = field(default_factory=dict)
    hops_per_link: dict[Hashable, int] = field(default_factory=dict)

    def __sub__(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Delta between two snapshots (``later - earlier``)."""
        per_node = Counter(self.system_calls_per_node)
        per_node.subtract(earlier.system_calls_per_node)
        by_kind = Counter(self.system_calls_by_kind)
        by_kind.subtract(earlier.system_calls_by_kind)
        per_link = Counter(self.hops_per_link)
        per_link.subtract(earlier.hops_per_link)
        return MetricsSnapshot(
            system_calls=self.system_calls - earlier.system_calls,
            hops=self.hops - earlier.hops,
            packets_injected=self.packets_injected - earlier.packets_injected,
            header_ids=self.header_ids - earlier.header_ids,
            copies=self.copies - earlier.copies,
            drops=self.drops - earlier.drops,
            system_calls_per_node={k: v for k, v in per_node.items() if v},
            system_calls_by_kind={k: v for k, v in by_kind.items() if v},
            hops_per_link={k: v for k, v in per_link.items() if v},
        )


class MetricsCollector:
    """Mutable counters updated by the hardware and NCU layers."""

    def __init__(self) -> None:
        self._system_calls_per_node: Counter = Counter()
        self._system_calls_by_kind: Counter = Counter()
        self._hops_per_link: Counter = Counter()
        self.system_calls = 0
        self.hops = 0
        self.packets_injected = 0
        #: Total ANR header IDs injected — the source-routing volume the
        #: dmax restriction (Section 2) is about.  Multiply by the ID
        #: width k for bits.
        self.header_ids = 0
        self.copies = 0
        self.drops = 0

    # ------------------------------------------------------------------
    # Update hooks (called by the substrate)
    # ------------------------------------------------------------------
    def count_system_call(self, node: Any, kind: str) -> None:
        """One NCU involvement at ``node`` (one unit of software cost)."""
        self.system_calls += 1
        self._system_calls_per_node[node] += 1
        self._system_calls_by_kind[kind] += 1

    def count_hop(self, link_key: Hashable) -> None:
        """One packet traversal of one link (one unit of hardware cost)."""
        self.hops += 1
        self._hops_per_link[link_key] += 1

    def count_hops(self, link_keys: list[Hashable]) -> None:
        """Several traversals at once (a cut-through leg's walked hops)."""
        self.hops += len(link_keys)
        self._hops_per_link.update(link_keys)

    def count_injection(self, node: Any, header_len: int = 0) -> None:
        """One packet handed by an NCU to its switching subsystem."""
        self.packets_injected += 1
        self.header_ids += header_len

    def count_copy(self, node: Any) -> None:
        """One selective copy delivered toward an NCU."""
        self.copies += 1

    def count_drop(self, reason: str) -> None:
        """One packet discarded (failed link, unroutable ID, spent header)."""
        self.drops += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def system_calls_at(self, node: Any) -> int:
        """NCU involvements at one node."""
        return self._system_calls_per_node[node]

    def system_calls_of_kind(self, kind: str) -> int:
        """NCU involvements whose job carried the given kind label."""
        return self._system_calls_by_kind[kind]

    def snapshot(self) -> MetricsSnapshot:
        """Immutable copy of every counter."""
        return MetricsSnapshot(
            system_calls=self.system_calls,
            hops=self.hops,
            packets_injected=self.packets_injected,
            header_ids=self.header_ids,
            copies=self.copies,
            drops=self.drops,
            system_calls_per_node=dict(self._system_calls_per_node),
            system_calls_by_kind=dict(self._system_calls_by_kind),
            hops_per_link=dict(self._hops_per_link),
        )

    def since(self, earlier: MetricsSnapshot) -> MetricsSnapshot:
        """Delta of every counter relative to an earlier snapshot."""
        return self.snapshot() - earlier
