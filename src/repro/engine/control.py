"""The engine <-> autoscaler contract.

At every MAPE tick the engine hands the active :class:`Autoscaler` a
:class:`PoolObservation` — everything a controller co-located with the
framework master could legitimately see (paper §II-C: monitored lifecycles,
the DAG, pool and billing state) — and receives a :class:`ScalingDecision`
back. A single run observes an :class:`Observation` of its one workflow, a
fleet a :class:`~repro.fleet.autoscalers.FleetObservation` of all active
tenants. The engine applies launches with the site's provisioning lag and
terminations at the decision's chosen times.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.cloud.billing import BillingModel
from repro.cloud.instance import Instance
from repro.cloud.pool import InstancePool
from repro.cloud.site import CloudSite
from repro.dag.workflow import Workflow
from repro.engine.master import FrameworkMaster, TaskExecState
from repro.engine.monitor import Monitor
from repro.telemetry.records import TickTelemetry

__all__ = [
    "Autoscaler",
    "Observation",
    "PoolObservation",
    "ScalingDecision",
    "TerminationOrder",
]


@dataclass(frozen=True)
class TerminationOrder:
    """Release ``instance_id`` at absolute simulation time ``at``.

    WIRE schedules releases at an instance's charge boundary so no paid
    time is forfeited (Algorithm 2); reactive policies release immediately.
    """

    instance_id: str
    at: float


@dataclass(frozen=True)
class ScalingDecision:
    """The outcome of one control iteration."""

    launch: int = 0
    terminations: tuple[TerminationOrder, ...] = ()

    def __post_init__(self) -> None:
        if self.launch < 0:
            raise ValueError(f"launch must be >= 0, got {self.launch}")
        if self.launch and self.terminations:
            raise ValueError("a decision cannot both launch and terminate")

    @property
    def is_noop(self) -> bool:
        return self.launch == 0 and not self.terminations


NO_CHANGE = ScalingDecision()


@dataclass(kw_only=True)
class PoolObservation:
    """What every control tick observes of the shared pool.

    ``window_start`` is the time of the previous tick, so
    ``monitor.transfer_times_between(window_start, now)`` yields exactly
    the paper's "observations between the n-1th and nth MAPE iterations".
    Under chaos monitor blackouts in delayed-records mode it can reach
    further back: the first clear tick after a blackout is handed the
    whole starved window at once.
    """

    now: float
    window_start: float
    pool: InstancePool
    billing: BillingModel
    site: CloudSite
    draining_ids: frozenset[str] = field(default_factory=frozenset)
    #: True when cloud-fault injection blacked out this tick's kickstart
    #: records: the monitor's fresh interval data must be treated as
    #: missing and predictive controllers should fall back to their
    #: last-known model (:mod:`repro.cloud.faults`)
    monitor_blackout: bool = False

    @property
    def charging_unit(self) -> float:
        return self.billing.charging_unit

    @property
    def lag(self) -> float:
        return self.site.lag

    def steerable_instances(self) -> list[Instance]:
        """RUNNING instances not already scheduled for termination."""
        return [
            i
            for i in self.pool.running()
            if i.instance_id not in self.draining_ids
        ]

    def effective_pool_size(self) -> int:
        """Pool size the policy should plan against.

        Counts RUNNING (minus draining, which will be gone) plus PENDING
        (already ordered, will arrive) instances.
        """
        return len(self.steerable_instances()) + len(self.pool.pending())

    def masters(self) -> tuple[FrameworkMaster, ...]:
        """The framework masters of the observed workflows."""
        raise NotImplementedError

    def runnable_task_count(self) -> int:
        """Tasks ready or in flight — the reactive policies' load signal."""
        return sum(
            master.count(TaskExecState.READY)
            + master.count(TaskExecState.STAGING_IN)
            + master.count(TaskExecState.EXECUTING)
            + master.count(TaskExecState.STAGING_OUT)
            for master in self.masters()
        )


@dataclass(kw_only=True)
class Observation(PoolObservation):
    """Snapshot handed to a single run's autoscaler at a MAPE tick."""

    workflow: Workflow
    master: FrameworkMaster
    monitor: Monitor
    queued_task_ids: tuple[str, ...]

    def masters(self) -> tuple[FrameworkMaster, ...]:
        return (self.master,)

    def restart_cost(self, instance: Instance) -> float:
        """Max sunk occupancy of any task on ``instance`` as of now.

        The paper's ``c_j``: "the maximum sunk cost (consumed slot
        occupancy time ...) of any task assigned to a slot on instance j".
        """
        cost = 0.0
        for task_id in instance.occupants:
            attempt = self.monitor.current_attempt(task_id)
            cost = max(cost, attempt.occupancy_elapsed(self.now))
        return cost


class Autoscaler(ABC):
    """A pool-sizing policy, for single runs and fleets alike.

    A policy that reads only :class:`PoolObservation` fields (full-site,
    pure-reactive) serves both front-ends; one that needs a single run's
    workflow, master or monitor narrows :meth:`plan` to
    :class:`Observation`.
    """

    #: short name used in experiment reports ("wire", "full-site", ...)
    name: str = "autoscaler"

    @abstractmethod
    def plan(self, obs: PoolObservation) -> ScalingDecision:
        """Compute pool changes for the upcoming interval."""

    def initial_pool_size(self, site: CloudSite) -> int:
        """Instances to provision before the run starts (default: one)."""
        return min(1, site.max_instances)

    def state_size_bytes(self) -> int | None:
        """Approximate controller state footprint, for the §IV-F overhead
        report. None means "not tracked"."""
        return None

    def tick_telemetry(self) -> TickTelemetry | None:
        """Controller-internal detail of the most recent :meth:`plan` call.

        The engine invokes this only when a trace sink is attached, after
        applying the decision, and attaches the result to the tick's
        :class:`~repro.telemetry.records.ControlTickRecord`. Policies
        without online prediction (the default) return ``None``;
        implementations may compute lazily — the call is off the untraced
        hot path by construction.
        """
        return None
