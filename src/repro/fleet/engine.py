"""Multi-tenant front-end of the discrete-event engine.

Runs N concurrent workflow submissions on ONE shared
:class:`~repro.cloud.site.CloudSite` / pool / billing clock / event
queue — the engine core of :mod:`repro.engine.core`, which also runs
single workflows as a fleet of one. Each tenant keeps the full
single-workflow control stack (framework master, monitor, FIFO task
queue); this front-end adds three things on top:

- an arrival loop (``WORKFLOW_ARRIVAL`` events admit tenants, optionally
  gated by an admission cap),
- a slot-allocation step (an :class:`~repro.fleet.policies.
  AllocationPolicy` decides which tenant's queue feeds each free slot),
- a global steering tick (an :class:`~repro.engine.control.Autoscaler`
  sizes the shared pool from the summed per-tenant forecasts, observing
  a :class:`~repro.fleet.autoscalers.FleetObservation`),

and builds the per-tenant :class:`~repro.fleet.result.FleetResult` with
proportional cost attribution.

Task ids are *scoped* (``"t03:stage_2_7"``) on the shared pool and event
queue and *local* inside each tenant's structures; ``_owner`` translates.
Every stochastic model draws from a per-tenant labelled sub-stream
(``fleet/<tenant>/*``), so a fleet run is a pure function of its
configuration and seed.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Mapping, Sequence

from repro.cloud.faults import ChaosSpec
from repro.cloud.site import CloudSite
from repro.dag.workflow import Workflow
from repro.engine.control import Autoscaler
from repro.engine.core import EngineCore
from repro.engine.events import EventKind
from repro.engine.faults import FaultModel
from repro.engine.runtime import TaskRuntimeModel
from repro.engine.tenant import Submission, TenantRun
from repro.engine.transfer import DataTransferModel
from repro.fleet.autoscalers import FleetObservation
from repro.fleet.policies import AllocationPolicy
from repro.fleet.result import FleetResult, TenantResult
from repro.telemetry.records import FleetTickRecord, TenantRecord, TickTelemetry
from repro.telemetry.tracer import Tracer
from repro.util.rng import RngStream

__all__ = ["FleetSimulation"]

#: the TenantResult fields a TenantRecord carries (all but the critical path)
_TENANT_RECORD_FIELDS = tuple(f.name for f in fields(TenantRecord) if f.name != "now")


def _realize(workload: object, seed: int) -> Workflow:
    """Turn a workload object into a concrete workflow.

    Accepts a :class:`Workflow` (used as-is), anything with a
    ``generate(seed)`` method (the ``StagedWorkflowSpec`` protocol), or a
    plain callable taking a seed.
    """
    if isinstance(workload, Workflow):
        return workload
    generate = getattr(workload, "generate", None)
    if callable(generate):
        return generate(seed)
    if callable(workload):
        return workload(seed)
    raise TypeError(
        f"cannot realize workload of type {type(workload).__name__}: expected "
        "a Workflow, an object with generate(seed), or a callable"
    )


class FleetSimulation(EngineCore):
    """One multi-tenant fleet run under one global autoscaling policy.

    Parameters
    ----------
    submissions:
        The arrival stream (from an :class:`~repro.fleet.arrivals.
        ArrivalProcess`, or hand-built).
    workloads:
        Name -> workload mapping resolving each submission's ``workload``
        field; values may be concrete workflows, spec objects with
        ``generate(seed)``, or seed-taking callables.
    site, autoscaler, policy, charging_unit:
        Where to run, the global pool-sizing policy, the slot-allocation
        policy, and the billing unit *u* in seconds.
    max_active:
        Admission cap: at most this many tenants hold slots concurrently;
        excess arrivals wait and are admitted in allocation-policy order.
        ``None`` (default) admits everyone on arrival.

    Other parameters mirror :class:`~repro.engine.simulator.Simulation`;
    under ``chaos`` a revocation kills whichever tenants occupy the
    doomed instance.
    """

    def __init__(
        self,
        submissions: Sequence[Submission],
        workloads: Mapping[str, object],
        site: CloudSite,
        autoscaler: Autoscaler,
        policy: AllocationPolicy,
        charging_unit: float,
        *,
        transfer_model: DataTransferModel | None = None,
        runtime_model: TaskRuntimeModel | None = None,
        fault_model: FaultModel | None = None,
        controller_period: float | None = None,
        boost_k: int = 5,
        launch_jitter: float = 0.0,
        seed: int = 0,
        max_time: float = 1e8,
        max_active: int | None = None,
        tracer: Tracer | None = None,
        chaos: ChaosSpec | None = None,
        validate: object = None,
    ) -> None:
        if not submissions:
            raise ValueError("a fleet needs at least one submission")
        if max_active is not None and max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {max_active}")
        rng = RngStream(seed=seed, label="fleet")
        super().__init__(
            site,
            autoscaler,
            charging_unit,
            rng,
            transfer_model=transfer_model,
            runtime_model=runtime_model,
            fault_model=fault_model,
            controller_period=controller_period,
            boost_k=boost_k,
            launch_jitter=launch_jitter,
            seed=seed,
            max_time=max_time,
            tracer=tracer,
            metrics=None,
            chaos=chaos,
            validate=validate,
        )
        self.policy = policy
        self.max_active = max_active
        # every tenant reports its mean queue wait, traced or not
        self._track_ready = True
        # Realize every tenant up front, each with its own RNG sub-stream.
        for submission in sorted(
            submissions, key=lambda s: (s.submit_time, s.tenant_id)
        ):
            try:
                workload = workloads[submission.workload]
            except KeyError:
                raise ValueError(
                    f"submission {submission.tenant_id!r} names unknown "
                    f"workload {submission.workload!r}"
                )
            self._add_tenant(
                submission,
                _realize(workload, submission.workflow_seed),
                rng.child(submission.tenant_id),
            )
        self._owner: dict[str, tuple[TenantRun, str]] = {
            tenant.scoped(local): (tenant, local)
            for tenant in self.tenants
            for local in tenant.workflow.tasks
        }
        self._label = f"fleet:{len(self.tenants)}"
        #: arrived tenants held back by the admission cap
        self._waiting: list[TenantRun] = []

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        checkpoint_every: int | None = None,
        checkpoint_path: object = None,
        stop_after_checkpoint: bool = False,
    ) -> FleetResult | None:
        """Execute every submission to completion and return measurements.

        Checkpointing works as for :meth:`Simulation.run
        <repro.engine.simulator.Simulation.run>`.
        """
        return self._run(checkpoint_every, checkpoint_path, stop_after_checkpoint)

    # ------------------------------------------------------------------
    # arrivals / admission
    # ------------------------------------------------------------------
    def _schedule_tenants(self) -> None:
        for tenant in self.tenants:
            self.events.push(
                tenant.submitted_at, EventKind.WORKFLOW_ARRIVAL, tenant.index
            )

    def _on_workflow_arrival(self, index: int) -> None:
        tenant = self.tenants[index]
        if self.max_active is not None and len(self._active) >= self.max_active:
            self._waiting.append(tenant)
            return
        self._activate(tenant)
        self._dispatch()

    def _admit_waiting(self) -> None:
        """Fill freed admission slots in allocation-policy order."""
        while self._waiting and (
            self.max_active is None or len(self._active) < self.max_active
        ):
            tenant = self.policy.choose(self._waiting)
            self._waiting.remove(tenant)
            self._activate(tenant)

    def _finish_tenant(self, tenant: TenantRun) -> None:
        super()._finish_tenant(tenant)
        self._admit_waiting()

    # ------------------------------------------------------------------
    # global steering
    # ------------------------------------------------------------------
    def _active_tenants(self) -> tuple[TenantRun, ...]:
        """Admitted, unfinished tenants in arrival order."""
        return tuple(self._active[index] for index in sorted(self._active))

    def _observe(self, **pool_view) -> FleetObservation:
        return FleetObservation(
            **pool_view,
            tenants=self._active_tenants(),
            waiting_count=len(self._waiting),
            owner=self._owner,
        )

    def _emit_tick(self, extra: TickTelemetry | None, **common) -> None:
        active = self._active_tenants()
        self.tracer.emit(
            FleetTickRecord(
                **common,
                active_tenants=len(active),
                waiting_tenants=len(self._waiting),
                queued_tasks=sum(len(t.scheduler) for t in active),
            )
        )

    # ------------------------------------------------------------------
    # result
    # ------------------------------------------------------------------
    def _finalize(self, completed: bool) -> FleetResult:
        makespan = self._teardown(completed)
        cost_of, units_of, wasted_of, unattributed = self._attribute(makespan)
        tenant_results = []
        for tenant in self.tenants:
            finished = tenant.finished_at if tenant.finished_at is not None else makespan
            started = tenant.started_at if tenant.started_at is not None else finished
            response = max(0.0, finished - tenant.submitted_at)
            slowdown = (
                response / tenant.critical_path if tenant.critical_path > 0 else 0.0
            )
            queue_wait_mean = (
                sum(tenant.queue_waits) / len(tenant.queue_waits)
                if tenant.queue_waits
                else 0.0
            )
            tenant_results.append(
                TenantResult(
                    tenant_id=tenant.tenant_id,
                    workload=tenant.submission.workload,
                    priority=tenant.priority,
                    submitted_at=tenant.submitted_at,
                    finished_at=finished,
                    makespan=max(0.0, finished - started),
                    critical_path=tenant.critical_path,
                    slowdown=slowdown,
                    queue_wait_mean=queue_wait_mean,
                    tasks=len(tenant.workflow),
                    restarts=tenant.monitor.total_restarts(),
                    attributed_cost=cost_of[tenant.index],
                    attributed_units=units_of[tenant.index],
                    attributed_wasted_seconds=wasted_of[tenant.index],
                    completed=tenant.finished_at is not None,
                )
            )
        result = FleetResult(
            autoscaler_name=self.autoscaler.name,
            allocation_policy=self.policy.name,
            charging_unit=self.billing.charging_unit,
            seed=self._seed,
            n_tenants=len(self.tenants),
            makespan=makespan,
            completed=completed,
            total_units=self.pool.total_units(makespan),
            total_cost=self.pool.total_cost(makespan),
            wasted_seconds=self.pool.total_wasted_time(makespan),
            unattributed_cost=unattributed,
            utilization=self._utilization(makespan),
            peak_instances=self._peak_instances(),
            instances_launched=len(self.pool),
            restarts=sum(t.monitor.total_restarts() for t in self.tenants),
            ticks=self._ticks,
            events_processed=self._events_processed,
            cloud_faults=dict(self._cloud_faults),
            tenants=tuple(tenant_results),
            controller_cpu_seconds=self._controller_seconds,
        )
        if self._trace:
            for tr in tenant_results:
                self.tracer.emit(
                    TenantRecord(
                        now=makespan,
                        **{f: getattr(tr, f) for f in _TENANT_RECORD_FIELDS},
                    )
                )
            self._emit_summary(result)
        return result
