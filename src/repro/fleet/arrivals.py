"""Workflow arrival processes for multi-tenant fleet simulation.

A fleet run is driven by a stream of :class:`Submission` objects — one
per tenant — produced by an :class:`ArrivalProcess`. Three processes are
provided, mirroring the workload-of-workflows literature (Ilyushkin et
al., arXiv:1905.10270): memoryless Poisson arrivals, bursty arrivals
(synchronized waves separated by quiet gaps), and trace-driven arrivals
replaying an explicit submission timeline.

Determinism: arrival times and per-tenant workflow seeds derive from the
fleet seed through labelled sub-streams (:mod:`repro.util.rng`), so a
submission schedule is a pure function of ``(process, seed)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.engine.tenant import Submission
from repro.util.rng import derive_seed, spawn_rng
from repro.util.validation import check_positive

__all__ = [
    "ArrivalProcess",
    "BurstyArrivals",
    "PoissonArrivals",
    "Submission",
    "TraceArrivals",
]


class ArrivalProcess(ABC):
    """A reproducible generator of tenant submissions.

    Subclasses produce arrival *times*; this base class turns them into
    :class:`Submission` objects with round-robin workload assignment,
    cycled priorities, and per-tenant workflow seeds derived from the
    fleet seed.
    """

    #: short name used in reports ("poisson", "bursty", "trace")
    name: str = "arrivals"

    def __init__(
        self,
        workloads: Sequence[str],
        *,
        priority_levels: int = 2,
    ) -> None:
        if not workloads:
            raise ValueError("at least one workload name is required")
        if not isinstance(priority_levels, int) or priority_levels < 1:
            raise ValueError(
                f"priority_levels must be a positive int, got {priority_levels!r}"
            )
        self.workloads = tuple(workloads)
        self.priority_levels = priority_levels

    @abstractmethod
    def arrival_times(self, seed: int) -> tuple[float, ...]:
        """Non-decreasing submission times for this seed."""

    def generate(self, seed: int) -> tuple[Submission, ...]:
        """Realize the submission stream for ``seed``."""
        submissions = []
        for index, at in enumerate(self.arrival_times(seed)):
            tenant_id = f"t{index:02d}"
            submissions.append(
                Submission(
                    tenant_id=tenant_id,
                    workload=self.workloads[index % len(self.workloads)],
                    submit_time=at,
                    workflow_seed=derive_seed(seed, f"fleet/{tenant_id}/workflow"),
                    priority=index % self.priority_levels,
                )
            )
        return tuple(submissions)


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential interarrival gaps.

    ``rate`` is the mean arrival rate in workflows per hour; the first
    tenant submits at t=0 (a fleet starts with work in hand) and each
    subsequent gap is an independent Exponential(3600/rate) draw.
    """

    name = "poisson"

    def __init__(
        self,
        rate: float,
        count: int,
        workloads: Sequence[str],
        *,
        priority_levels: int = 2,
    ) -> None:
        super().__init__(workloads, priority_levels=priority_levels)
        check_positive("rate", rate)
        if not isinstance(count, int) or count < 1:
            raise ValueError(f"count must be a positive int, got {count!r}")
        self.rate = rate
        self.count = count

    def arrival_times(self, seed: int) -> tuple[float, ...]:
        rng = spawn_rng(seed, "fleet/arrivals")
        mean_gap = 3600.0 / self.rate
        times = [0.0]
        for _ in range(self.count - 1):
            times.append(times[-1] + float(rng.exponential(mean_gap)))
        return tuple(times)


class BurstyArrivals(ArrivalProcess):
    """Synchronized waves: ``burst_size`` simultaneous submissions per
    burst, bursts separated by a fixed ``gap`` in seconds.

    Models the flash-crowd pattern that stresses shared-site admission:
    within one burst every tenant arrives at the same instant and
    contends for the same free-slot index.
    """

    name = "bursty"

    def __init__(
        self,
        burst_size: int,
        n_bursts: int,
        gap: float,
        workloads: Sequence[str],
        *,
        priority_levels: int = 2,
    ) -> None:
        super().__init__(workloads, priority_levels=priority_levels)
        if not isinstance(burst_size, int) or burst_size < 1:
            raise ValueError(f"burst_size must be a positive int, got {burst_size!r}")
        if not isinstance(n_bursts, int) or n_bursts < 1:
            raise ValueError(f"n_bursts must be a positive int, got {n_bursts!r}")
        check_positive("gap", gap)
        self.burst_size = burst_size
        self.n_bursts = n_bursts
        self.gap = gap

    def arrival_times(self, seed: int) -> tuple[float, ...]:
        return tuple(
            burst * self.gap
            for burst in range(self.n_bursts)
            for _ in range(self.burst_size)
        )


class TraceArrivals(ArrivalProcess):
    """Replay an explicit submission timeline (trace-driven arrivals)."""

    name = "trace"

    def __init__(
        self,
        times: Sequence[float],
        workloads: Sequence[str],
        *,
        priority_levels: int = 2,
    ) -> None:
        super().__init__(workloads, priority_levels=priority_levels)
        if not times:
            raise ValueError("at least one arrival time is required")
        ordered = tuple(float(t) for t in times)
        if any(t < 0 for t in ordered):
            raise ValueError("arrival times must be >= 0")
        if any(b < a for a, b in zip(ordered, ordered[1:])):
            raise ValueError("arrival times must be non-decreasing")
        self.times = ordered

    def arrival_times(self, seed: int) -> tuple[float, ...]:
        return self.times
