"""Slot-allocation policies for the shared-site fleet.

When a free slot opens on the shared pool, the fleet engine must decide
*which tenant* gets it (each tenant keeps its own FIFO task queue, so
within a tenant the existing scheduler ordering applies unchanged). A
policy picks among the active tenants that currently have runnable
work. All tie-breaks bottom out on the tenant's arrival index, keeping
dispatch fully deterministic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.tenant import TenantRun

__all__ = [
    "AllocationPolicy",
    "FairSharePolicy",
    "FifoPolicy",
    "PriorityPolicy",
    "allocation_policy",
]


class AllocationPolicy(ABC):
    """Chooses which tenant receives the next free slot."""

    #: short name used in CLI flags and reports
    name: str = "policy"

    @abstractmethod
    def choose(self, candidates: Sequence["TenantRun"]) -> "TenantRun":
        """Pick one tenant from ``candidates`` (non-empty, all runnable)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class FifoPolicy(AllocationPolicy):
    """First-come-first-served over tenant submission times."""

    name = "fifo"

    def choose(self, candidates: Sequence["TenantRun"]) -> "TenantRun":
        return min(candidates, key=lambda t: (t.submitted_at, t.index))


class FairSharePolicy(AllocationPolicy):
    """Max-min fairness: the tenant holding the fewest slots goes first.

    Repeatedly granting the next slot to the currently least-served
    tenant converges to the max-min fair allocation over the active
    set; ties fall back to FIFO order.
    """

    name = "fair-share"

    def choose(self, candidates: Sequence["TenantRun"]) -> "TenantRun":
        return min(
            candidates,
            key=lambda t: (t.occupied_slots, t.submitted_at, t.index),
        )


class PriorityPolicy(AllocationPolicy):
    """Strict priority (lower value first), FIFO within a level."""

    name = "priority"

    def choose(self, candidates: Sequence["TenantRun"]) -> "TenantRun":
        return min(
            candidates,
            key=lambda t: (t.priority, t.submitted_at, t.index),
        )


_POLICIES: dict[str, type[AllocationPolicy]] = {
    FifoPolicy.name: FifoPolicy,
    FairSharePolicy.name: FairSharePolicy,
    PriorityPolicy.name: PriorityPolicy,
}


def allocation_policy(name: str) -> AllocationPolicy:
    """Instantiate a policy by CLI name ("fifo", "fair-share", "priority")."""
    try:
        return _POLICIES[name]()
    except KeyError:
        options = ", ".join(sorted(_POLICIES))
        raise ValueError(f"unknown allocation policy {name!r} (options: {options})")
