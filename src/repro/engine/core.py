"""The discrete-event engine core: tenants on one shared pool.

This is the repo's stand-in for "Pegasus WMS/HTCondor running on
ExoGENI": it executes workflows on an elastic pool of simulated worker
instances, invoking an autoscaler every control period (the MAPE
cadence, paper §III-A) and applying its decisions with the site's
provisioning lag.

Every workflow is a :class:`~repro.engine.tenant.TenantRun` with its own
framework master, monitor and task queue; the site, pool, billing clock,
event queue, chaos injector and provisioner are shared. The core holds
the run loop, every event handler, dispatch, decision application,
teardown and trace emission. Two front-ends add the rest:

- :class:`~repro.engine.simulator.Simulation` — one tenant admitted at
  t=0 under its local task ids: the paper's single-workflow setting;
- :class:`~repro.fleet.engine.FleetSimulation` — arrivals, admission and
  an allocation policy choosing which tenant feeds each free slot.

A single run is thus the degenerate one-tenant fleet (Ilyushkin et al.,
arXiv:1905.10270). Front-ends supply the observation and tick record of
a control tick and build their own result from the torn-down state.

Determinism: all randomness flows from one seed through labelled
sub-streams (:mod:`repro.util.rng`), simultaneous events fire in
scheduling order, and every tie-break bottoms out on arrival index, so a
run is a pure function of its configuration and seed.
"""

from __future__ import annotations

import time as _time
from dataclasses import fields

from repro.cloud.billing import BillingModel
from repro.cloud.faults import ChaosInjector, ChaosSpec
from repro.cloud.instance import Instance, InstanceState
from repro.cloud.pool import InstancePool
from repro.cloud.provisioner import Provisioner
from repro.cloud.site import CloudSite
from repro.dag.workflow import Workflow
from repro.engine.control import ScalingDecision
from repro.engine.events import Event, EventKind, EventQueue
from repro.engine.faults import FaultModel, NoFaults
from repro.engine.runtime import NominalRuntimeModel, TaskRuntimeModel
from repro.engine.scheduler import FifoScheduler
from repro.engine.tenant import Submission, TenantRun
from repro.engine.transfer import DataTransferModel, NoTransferModel
from repro.telemetry.metrics import NULL_METRICS, MetricsRegistry
from repro.telemetry.records import (
    CloudFaultRecord,
    InstanceEventRecord,
    RunMetaRecord,
    RunSummaryRecord,
    TaskAttemptRecord,
)
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.util.rng import RngStream
from repro.util.validation import check_positive

__all__ = ["EngineCore"]

#: the closing record's fields; RunResult and FleetResult both carry them
_SUMMARY_FIELDS = tuple(f.name for f in fields(RunSummaryRecord))


def _make_validator(validate: object):
    """Normalize the ``validate=`` argument of the engines.

    ``None``/``False`` -> no validator (the zero-cost path); ``True`` ->
    a default raise-mode checker; anything else is assumed to be a
    checker instance and used as-is. The import is deferred so runs that
    never validate never load :mod:`repro.validate`.
    """
    if validate is None or validate is False:
        return None
    if validate is True:
        from repro.validate.checker import InvariantChecker

        return InvariantChecker()
    return validate


class EngineCore:
    """Shared run loop and event handlers of both front-ends.

    Subclasses add tenants with :meth:`_add_tenant`, set ``_owner`` (the
    scoped-id -> ``(tenant, local id)`` index) and ``_label``, and
    implement ``_schedule_tenants``, ``_observe`` (the autoscaler's
    input, given the pool view every observation shares), ``_emit_tick``
    (the tick record, given the fields every tick record shares) and
    ``_finalize`` (the result).
    """

    def __init__(
        self,
        site: CloudSite,
        autoscaler,
        charging_unit: float,
        rng: RngStream,
        *,
        transfer_model: DataTransferModel | None,
        runtime_model: TaskRuntimeModel | None,
        fault_model: FaultModel | None,
        controller_period: float | None,
        boost_k: int,
        launch_jitter: float,
        seed: int,
        max_time: float,
        tracer: Tracer | None,
        metrics: MetricsRegistry | None,
        chaos: ChaosSpec | None,
        validate: object,
    ) -> None:
        check_positive("charging_unit", charging_unit)
        check_positive("max_time", max_time)
        self.site = site
        self.autoscaler = autoscaler
        self.billing = BillingModel(charging_unit)
        self.transfer_model = transfer_model or NoTransferModel()
        self.runtime_model = runtime_model or NominalRuntimeModel()
        self.fault_model = fault_model or NoFaults()
        self.period = controller_period if controller_period is not None else site.lag
        check_positive("controller_period", self.period)
        # The paper's lag is "the *maximum* delay to launch or release an
        # instance" (§III-A); with jitter j, an ordered instance becomes
        # usable after lag * (1 - j*U[0,1)) — up to j earlier than the
        # worst case the controller plans around.
        if not 0.0 <= launch_jitter <= 1.0:
            raise ValueError(f"launch_jitter must be in [0, 1], got {launch_jitter!r}")
        self.launch_jitter = launch_jitter
        self.boost_k = boost_k
        self.max_time = max_time
        self._seed = seed
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = self.tracer.enabled
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._metrics_on = self.metrics.enabled
        #: whether dispatch measures queue waits (front-ends reporting
        #: them per tenant always do; otherwise only the trace needs them)
        self._track_ready = self._trace

        self._rng_launch = rng.child("launch").generator()
        # Cloud-fault injection: the injector exists only when a fault
        # class is actually enabled, so `self._chaos_injector is None` is
        # the zero-cost disabled path (mirroring the `self._trace` guard).
        self.chaos = chaos
        if chaos is not None and chaos.enabled:
            self._chaos_injector: ChaosInjector | None = ChaosInjector(
                chaos, rng.child("chaos").generator()
            )
        else:
            self._chaos_injector = None
        # Invariant checking mirrors the chaos contract: the checker
        # exists only when requested, so `self.validator is None` is the
        # zero-cost disabled path.
        self.validator = _make_validator(validate)
        #: fault-class -> occurrence count (stays empty without chaos)
        self._cloud_faults: dict[str, int] = {}
        #: pending-instance id -> provisioning attempt number, for
        #: launches that will come back failed
        self._provision_attempts: dict[str, int] = {}

        self.pool = InstancePool(site.itype, self.billing)
        self.provisioner = Provisioner(site, self.pool)
        self.events = EventQueue()
        self.tenants: list[TenantRun] = []
        #: tenant index -> admitted, unfinished tenant (admission order)
        self._active: dict[int, TenantRun] = {}
        #: tenants not yet finished; the run ends when this reaches 0
        self._unfinished = 0

        self._started = False
        self._now = 0.0
        self._events_processed = 0
        #: draining instance id -> its scheduled INSTANCE_TERMINATE
        self._draining: dict[str, Event] = {}
        #: running instance id -> its not-yet-fired INSTANCE_REVOKED
        self._pending_revocation: dict[str, Event] = {}
        self._pending_task_event: dict[str, Event] = {}
        #: (instance_id, tenant index) -> busy slot-seconds accrued
        self._tenant_busy: dict[tuple[str, int], float] = {}
        self._timeline: list[tuple[float, int]] = []
        self._last_completion = 0.0
        self._ticks = 0
        self._controller_seconds = 0.0
        self._last_tick_time = 0.0
        #: start of a monitoring window whose records were blacked out
        #: and are still awaiting delivery (delayed-records mode only)
        self._observe_from: float | None = None

    def _add_tenant(
        self,
        submission: Submission,
        workflow: Workflow,
        rng: RngStream,
        *,
        scheduler: FifoScheduler | None = None,
        prefix: str | None = None,
    ) -> TenantRun:
        """Register one tenant drawing its models' randomness from
        ``rng``'s ``transfer``/``runtime``/``faults`` children."""
        tenant = TenantRun(
            index=len(self.tenants),
            submission=submission,
            workflow=workflow,
            rng_transfer=rng.child("transfer").generator(),
            rng_runtime=rng.child("runtime").generator(),
            rng_faults=rng.child("faults").generator(),
            scheduler=(
                scheduler
                if scheduler is not None
                else FifoScheduler(boost_k=self.boost_k)
            ),
            prefix=prefix,
        )
        self.tenants.append(tenant)
        self._unfinished += 1
        return tenant

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def _run(
        self,
        checkpoint_every: int | None,
        checkpoint_path: object,
        stop_after_checkpoint: bool,
    ):
        if checkpoint_every is not None:
            check_positive("checkpoint_every", checkpoint_every)
            if checkpoint_path is None:
                raise ValueError("checkpoint_every requires a checkpoint_path")
            from repro.checkpoint import save_checkpoint
        validator = self.validator
        if not self._started:
            self._started = True
            self._bootstrap()
            if validator is not None:
                validator.begin_run(self)
        completed = True
        while self._unfinished:
            if not self.events:
                raise RuntimeError(
                    "event queue drained before every workflow completed "
                    f"(at t={self._now}); the pool can no longer make progress"
                )
            event = self.events.pop()
            if event.time > self.max_time:
                completed = False
                break
            self._now = event.time
            self._events_processed += 1
            self._handle(event)
            if validator is not None:
                validator.after_event(self, event)
            if (
                checkpoint_every is not None
                and event.kind is EventKind.CONTROLLER_TICK
                and self._ticks > 0
                and self._ticks % checkpoint_every == 0
                and self._unfinished
            ):
                save_checkpoint(self, checkpoint_path)
                if stop_after_checkpoint:
                    return None
        result = self._finalize(completed)
        if validator is not None:
            validator.check_final(self, result)
        return result

    def _handle(self, event: Event) -> None:
        kind = event.kind
        if kind is EventKind.STAGE_IN_DONE:
            self._on_stage_in_done(event.payload)
        elif kind is EventKind.EXEC_DONE:
            self._on_exec_done(event.payload)
        elif kind is EventKind.STAGE_OUT_DONE:
            self._on_stage_out_done(event.payload)
        elif kind is EventKind.CONTROLLER_TICK:
            self._on_controller_tick()
        elif kind is EventKind.INSTANCE_READY:
            self._on_instance_ready(event.payload)
        elif kind is EventKind.INSTANCE_TERMINATE:
            self._on_instance_terminate(event.payload)
        elif kind is EventKind.TASK_FAILED:
            self._on_task_failed(event.payload)
        elif kind is EventKind.INSTANCE_REVOKED:
            self._on_instance_revoked(event.payload)
        elif kind is EventKind.PROVISION_FAILED:
            self._on_provision_failed(event.payload)
        elif kind is EventKind.PROVISION_RETRY:
            self._on_provision_retry(event.payload)
        elif kind is EventKind.WORKFLOW_ARRIVAL:
            # only front-ends that schedule arrivals implement this
            self._on_workflow_arrival(event.payload)
        else:  # pragma: no cover - exhaustive enum
            raise RuntimeError(f"unknown event kind {kind}")

    # ------------------------------------------------------------------
    # setup / teardown
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        if self._trace:
            self.tracer.emit(
                RunMetaRecord(
                    workflow=self._label,
                    policy=self.autoscaler.name,
                    charging_unit=self.billing.charging_unit,
                    seed=self._seed,
                    site=self.site.name,
                    max_instances=self.site.max_instances,
                    lag=self.site.lag,
                    period=self.period,
                    n_tasks=sum(len(t.workflow) for t in self.tenants),
                    n_stages=sum(len(t.workflow.stages) for t in self.tenants),
                    slots_per_instance=self.site.itype.slots,
                    runtime_model=getattr(
                        self.runtime_model, "name", type(self.runtime_model).__name__
                    ),
                )
            )
        initial = self.autoscaler.initial_pool_size(self.site)
        initial = max(self.site.min_instances, min(initial, self.site.max_instances))
        for _ in range(initial):
            instance = self.pool.create(now=0.0)
            instance.mark_running(0.0)
            if self._chaos_injector is not None:
                self._chaos_instance_started(instance)
            if self._trace:
                self._emit_instance(instance.instance_id, "requested")
                self._emit_instance(instance.instance_id, "provisioned")
        if self._metrics_on:
            self.metrics.counter("instance.launched").inc(initial)
        self._record_pool_change(0.0)
        self._schedule_tenants()
        self.events.push(self.period, EventKind.CONTROLLER_TICK)

    def _activate(self, tenant: TenantRun) -> None:
        """Admit ``tenant``: its root tasks become queueable now."""
        tenant.started_at = self._now
        self._active[tenant.index] = tenant
        for local in tenant.master.initially_ready():
            if self._track_ready:
                tenant.ready_at[local] = self._now
            tenant.scheduler.push(local, tenant.workflow.stage_of[local])

    def _finish_tenant(self, tenant: TenantRun) -> None:
        tenant.finished_at = self._now
        del self._active[tenant.index]
        self._unfinished -= 1

    def _teardown(self, completed: bool) -> float:
        """Stop whatever is still up; returns the run's makespan."""
        makespan = self._last_completion if completed else self._now
        for instance in self.pool:
            if instance.state is InstanceState.RUNNING:
                for scoped in sorted(instance.occupants):
                    # Only possible on an incomplete (timed-out) run.
                    tenant, local = self._owner[scoped]
                    tenant.monitor.record_kill(local, makespan)
                    if self._trace:
                        self._emit_attempt(tenant, local, scoped, "killed", makespan)
                    self._release(tenant, instance, scoped, makespan)
                end = max(makespan, instance.started_at or 0.0)
                instance.mark_terminated(end)
                if self._trace:
                    self._emit_instance_end(instance, end, "terminated")
            elif instance.state is InstanceState.PENDING:
                # Never became usable; never billed.
                instance.cancel_pending()
                if self._trace:
                    self._emit_instance(instance.instance_id, "cancelled", now=makespan)
        return makespan

    def _utilization(self, makespan: float) -> float:
        """Busy slot-seconds over paid slot-seconds, capped at 1."""
        busy = sum(
            a.occupancy_elapsed(makespan)
            for tenant in self.tenants
            for a in tenant.monitor.all_attempts()
        )
        paid_slot_seconds = sum(
            self.billing.units_charged(i, makespan)
            * self.billing.charging_unit
            * i.itype.slots
            for i in self.pool
        )
        utilization = busy / paid_slot_seconds if paid_slot_seconds > 0 else 0.0
        return min(1.0, utilization)

    def _peak_instances(self) -> int:
        return max((c for _, c in self._timeline), default=0)

    def _attribute(
        self, makespan: float
    ) -> tuple[list[float], list[float], list[float], float]:
        """Split the bill across tenants by their busy slot-seconds.

        Returns per-tenant ``(cost, units, wasted seconds)`` lists and
        the unattributed cost: instances that never ran a task have no
        share key and bill to the operator.
        """
        n = len(self.tenants)
        cost_of, units_of, wasted_of = [0.0] * n, [0.0] * n, [0.0] * n
        unattributed = 0.0
        for instance in self.pool:
            if instance.started_at is None:
                continue  # cancelled pending launch: never billed
            iid = instance.instance_id
            cost = self.billing.cost(instance, makespan)
            units = self.billing.units_charged(instance, makespan)
            wasted = self.billing.wasted_time(instance, makespan)
            shares = {
                tenant.index: self._tenant_busy[(iid, tenant.index)]
                for tenant in self.tenants
                if self._tenant_busy.get((iid, tenant.index), 0.0) > 0.0
            }
            total_busy = sum(shares.values())
            if total_busy <= 0.0:
                unattributed += cost
                continue
            for index, busy in shares.items():
                fraction = busy / total_busy
                cost_of[index] += fraction * cost
                units_of[index] += fraction * units
                wasted_of[index] += fraction * wasted
        return cost_of, units_of, wasted_of, unattributed

    def _emit_summary(self, result) -> None:
        self.tracer.emit(
            RunSummaryRecord(**{f: getattr(result, f) for f in _SUMMARY_FIELDS})
        )

    # ------------------------------------------------------------------
    # instance lifecycle
    # ------------------------------------------------------------------
    def _on_instance_ready(self, instance_id: str) -> None:
        instance = self.pool.get(instance_id)
        instance.mark_running(self._now)
        if self._chaos_injector is not None:
            self._chaos_instance_started(instance)
        if self._trace:
            self._emit_instance(instance_id, "provisioned")
        self._record_pool_change(self._now)
        self._dispatch()

    def _release(
        self, tenant: TenantRun, instance: Instance, scoped: str, now: float
    ) -> float:
        """Free the slot ``scoped`` holds; returns the occupancy it ends,
        credited to the tenant's busy share of the instance."""
        busy = instance.release(scoped, now)
        key = (instance.instance_id, tenant.index)
        self._tenant_busy[key] = self._tenant_busy.get(key, 0.0) + busy
        tenant.occupied_slots -= 1
        return busy

    def _kill_occupant(
        self, instance: Instance, scoped: str, *, failed: bool = False
    ) -> float:
        """Kill one occupant, requeue it with its tenant, free the slot;
        returns the occupancy lost with the attempt."""
        tenant, local = self._owner[scoped]
        pending = self._pending_task_event.pop(scoped, None)
        if pending is not None:
            self.events.cancel(pending)
        tenant.monitor.record_kill(local, self._now, failed=failed)
        if self._trace:
            self._emit_attempt(
                tenant, local, scoped, "failed" if failed else "killed", self._now
            )
        if self._track_ready:
            tenant.ready_at[local] = self._now
        tenant.master.mark_killed(local)
        tenant.scheduler.push(local, tenant.workflow.stage_of[local], requeue=True)
        return self._release(tenant, instance, scoped, self._now)

    def _on_instance_terminate(self, instance_id: str) -> None:
        instance = self.pool.get(instance_id)
        for scoped in sorted(instance.occupants):
            self._kill_occupant(instance, scoped)
        instance.mark_terminated(self._now)
        # a planned release retracts any not-yet-fired revocation
        revocation = self._pending_revocation.pop(instance_id, None)
        if revocation is not None:
            self.events.cancel(revocation)
        if self._trace:
            self._emit_instance_end(instance, self._now, "terminated")
        self._draining.pop(instance_id, None)
        self._record_pool_change(self._now)
        self._dispatch()

    # ------------------------------------------------------------------
    # cloud-fault handlers (reachable only with an enabled ChaosSpec)
    # ------------------------------------------------------------------
    def _chaos_instance_started(self, instance: Instance) -> None:
        """Per-instance chaos draws, made once when it becomes RUNNING.

        Draw order is fixed (straggler roll, then revocation sample) so a
        run is a pure function of ``(seed, spec)``.
        """
        injector = self._chaos_injector
        assert injector is not None
        factor = injector.straggler_factor()
        iid = instance.instance_id
        if factor != 1.0:
            instance.slowdown = factor
            self._count_fault("stragglers")
            if self._trace:
                self._emit_fault("straggler", instance_id=iid, slowdown=factor)
        delay = injector.revocation_delay()
        if delay is not None:
            # The provider will preempt this instance unless the run (or
            # a planned release) gets there first.
            self._pending_revocation[iid] = self.events.push(
                self._now + delay, EventKind.INSTANCE_REVOKED, iid
            )

    def _on_instance_revoked(self, instance_id: str) -> None:
        """The provider preempts ``instance_id`` (spot-style revocation).

        Mirrors a planned termination — occupants of every tenant are
        killed and requeued — except the instance had no say: any
        scheduled release is retracted, the instance is flagged
        ``revoked``, and billing stops at the revocation boundary.
        """
        self._pending_revocation.pop(instance_id, None)
        instance = self.pool.get(instance_id)
        if instance.state is not InstanceState.RUNNING:
            return  # defensive: planned releases cancel revocation events
        occupants = sorted(instance.occupants)
        killed = len(occupants)
        lost_occupancy = 0.0
        for scoped in occupants:
            lost_occupancy += self._kill_occupant(instance, scoped)
        terminate = self._draining.pop(instance_id, None)
        if terminate is not None:
            self.events.cancel(terminate)
        instance.revoked = True
        instance.mark_terminated(self._now)
        self._count_fault("revocations")
        if killed:
            self._count_fault("revocation_task_kills", killed)
        if self._metrics_on:
            self.metrics.counter("cloud.revocations").inc()
        if self._trace:
            self._emit_instance_end(instance, self._now, "revoked")
            _, _, _, _, wasted = self.pool.instance_utilization(instance, self._now)
            self._emit_fault(
                "revocation",
                instance_id=instance_id,
                tasks_killed=killed,
                wasted_seconds=wasted,
                lost_occupancy=lost_occupancy,
            )
        self._record_pool_change(self._now)
        self._dispatch()

    def _on_provision_failed(self, instance_id: str) -> None:
        """An ordered launch came back failed after its lag.

        The pending instance is cancelled (never billed) and, within the
        retry budget, a replacement is ordered after exponential backoff.
        """
        injector = self._chaos_injector
        assert injector is not None
        attempt = self._provision_attempts.pop(instance_id, 1)
        self.pool.get(instance_id).cancel_pending()
        self._count_fault("provision_failures")
        if self._trace:
            self._emit_instance(instance_id, "cancelled")
            self._emit_fault(
                "provision_failure", instance_id=instance_id, attempt=attempt
            )
        retry = injector.spec.retry
        if attempt <= retry.max_retries:
            backoff = retry.delay(attempt)
            self._count_fault("provision_retries")
            if self._trace:
                self._emit_fault(
                    "provision_retry",
                    instance_id=instance_id,
                    attempt=attempt,
                    backoff=backoff,
                )
            self.events.push(
                self._now + backoff, EventKind.PROVISION_RETRY, attempt + 1
            )
        else:
            self._count_fault("provision_abandoned")
            if self._trace:
                self._emit_fault(
                    "provision_abandoned", instance_id=instance_id, attempt=attempt
                )

    def _on_provision_retry(self, attempt: int) -> None:
        """Backoff elapsed: re-issue one launch as attempt ``attempt``."""
        orders = self.provisioner.order_launches(1, self._now)
        if not orders:
            # The site cap (or a competing MAPE grow) absorbed the slot;
            # the controller will re-plan capacity on a later tick.
            self._count_fault("provision_retries_dropped")
            return
        if self._metrics_on:
            self.metrics.counter("instance.launched").inc()
        self._issue_launch(orders[0], attempt=attempt)

    def _count_fault(self, key: str, n: int = 1) -> None:
        self._cloud_faults[key] = self._cloud_faults.get(key, 0) + n

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------
    def _on_stage_in_done(self, scoped: str) -> None:
        tenant, local = self._owner[scoped]
        tenant.master.mark_executing(local)
        tenant.monitor.record_exec_start(local, self._now)
        instance = self.pool.instance_of_task(scoped)
        assert instance is not None, f"executing task {scoped} has no instance"
        task = tenant.workflow.task(local)
        attempt = tenant.master.attempts(local)
        duration = self.runtime_model.execution_time(
            task, instance, attempt, tenant.rng_runtime
        )
        if self._chaos_injector is not None and instance.slowdown != 1.0:
            # Straggler stretch applied outside the runtime model so the
            # model's RNG draw sequence is identical with chaos off; the
            # fault model below sees the stretched (real) duration.
            duration *= instance.slowdown
        failure = self.fault_model.failure_offset(
            task, instance, attempt, duration, tenant.rng_faults
        )
        kind = EventKind.EXEC_DONE
        if failure is not None and failure < duration:
            kind, duration = EventKind.TASK_FAILED, failure
        self._pending_task_event[scoped] = self.events.push(
            self._now + duration, kind, scoped
        )

    def _on_exec_done(self, scoped: str) -> None:
        tenant, local = self._owner[scoped]
        tenant.master.mark_staging_out(local)
        tenant.monitor.record_exec_end(local, self._now)
        duration = self.transfer_model.stage_out_time(
            tenant.workflow.task(local), tenant.rng_transfer
        )
        self._pending_task_event[scoped] = self.events.push(
            self._now + duration, EventKind.STAGE_OUT_DONE, scoped
        )

    def _on_stage_out_done(self, scoped: str) -> None:
        tenant, local = self._owner[scoped]
        now = self._now
        self._pending_task_event.pop(scoped, None)
        tenant.monitor.record_complete(local, now)
        if self._trace:
            self._emit_attempt(tenant, local, scoped, "completed", now)
        if self._metrics_on:
            attempt = tenant.monitor.current_attempt(local)
            self.metrics.counter("task.completed").inc()
            if attempt.execution_time is not None:
                self.metrics.histogram("task.runtime_seconds").observe(
                    attempt.execution_time
                )
        instance = self.pool.instance_of_task(scoped)
        assert instance is not None, f"completing task {scoped} has no instance"
        self._release(tenant, instance, scoped, now)
        self._last_completion = now
        for child in tenant.master.mark_completed(local):
            if self._track_ready:
                tenant.ready_at[child] = now
            tenant.scheduler.push(child, tenant.workflow.stage_of[child])
        if tenant.master.is_done():
            self._finish_tenant(tenant)
        self._dispatch()

    def _on_task_failed(self, scoped: str) -> None:
        """An attempt died mid-execution: the framework resubmits it."""
        instance = self.pool.instance_of_task(scoped)
        assert instance is not None, f"failed task {scoped} has no instance"
        self._kill_occupant(instance, scoped, failed=True)
        self._dispatch()

    # ------------------------------------------------------------------
    # control ticks and decision application
    # ------------------------------------------------------------------
    def _on_controller_tick(self) -> None:
        blackout = False
        window_start = self._last_tick_time
        if self._chaos_injector is not None:
            blackout = self._chaos_injector.blackout()
            if blackout:
                self._count_fault("blackouts")
                if self._trace:
                    self._emit_fault("monitor_blackout")
                # Delayed-records mode remembers where the starved window
                # began so the next clear tick can observe all of it at
                # once; dropped-records mode remembers nothing — those
                # windows are simply never offered to the predictor.
                if (
                    self._observe_from is None
                    and not self._chaos_injector.spec.blackout_drops
                ):
                    self._observe_from = self._last_tick_time
            elif self._observe_from is not None:
                window_start = self._observe_from
                self._observe_from = None
        observation = self._observe(
            now=self._now,
            window_start=window_start,
            pool=self.pool,
            billing=self.billing,
            site=self.site,
            draining_ids=frozenset(self._draining),
            monitor_blackout=blackout,
        )
        pool_before = self.pool.active_size() - len(self._draining)
        started = _time.perf_counter()
        decision = self.autoscaler.plan(observation)
        elapsed = _time.perf_counter() - started
        self._controller_seconds += elapsed
        self._ticks += 1
        self._last_tick_time = self._now
        terminated = self._apply_decision(decision)
        if self._trace:
            launched = decision.launch
            common = dict(
                tick=self._ticks - 1,
                now=self._now,
                pool_before=pool_before,
                pool_after=self.pool.active_size() - len(self._draining),
                launched=launched,
                terminated=terminated,
                branch=(
                    "grow" if launched > 0 else ("shrink" if terminated > 0 else "hold")
                ),
            )
            extra = self.autoscaler.tick_telemetry()
            if extra is not None:
                common.update(
                    target_pool=extra.target_pool,
                    q_task=extra.q_task,
                    q_remaining=extra.q_remaining,
                )
            self._emit_tick(extra, **common)
        if self._metrics_on:
            self.metrics.histogram("controller.plan_seconds").observe(elapsed)
            self.metrics.gauge("pool.running").set(self.pool.running_count())
        self.events.push(self._now + self.period, EventKind.CONTROLLER_TICK)

    def _apply_decision(self, decision: ScalingDecision) -> int:
        """Apply launches/terminations; returns terminations accepted.

        The count can be smaller than ``len(decision.terminations)`` —
        orders for draining/terminated instances or below the site floor
        are skipped — so telemetry reports what actually happened.
        """
        if decision.launch > 0:
            if self._metrics_on:
                self.metrics.counter("instance.launched").inc(decision.launch)
            for order in self.provisioner.order_launches(decision.launch, self._now):
                self._issue_launch(order)
        applied = 0
        remaining = self.pool.active_size() - len(self._draining)
        for order in decision.terminations:
            if order.instance_id in self._draining:
                continue  # already scheduled for release
            instance = self.pool.get(order.instance_id)
            if instance.state is not InstanceState.RUNNING:
                continue
            if remaining <= self.site.min_instances:
                break
            at = max(order.at, self._now)
            self._draining[order.instance_id] = self.events.push(
                at, EventKind.INSTANCE_TERMINATE, order.instance_id
            )
            remaining -= 1
            applied += 1
        return applied

    def _issue_launch(self, order, attempt: int = 1) -> None:
        """Schedule the arrival of one ordered launch.

        With chaos enabled the order is subjected to a provisioning
        outcome roll: it may come back failed after its lag (entering the
        retry/backoff path) or arrive late by the timeout factor.
        ``attempt`` numbers the order within a retry chain (1 = first
        try).
        """
        ready_at = order.ready_at
        if self.launch_jitter > 0.0:
            lag = order.ready_at - self._now
            ready_at = self._now + lag * (
                1.0 - self.launch_jitter * float(self._rng_launch.random())
            )
        iid = order.instance.instance_id
        if self._trace:
            self._emit_instance(iid, "requested")
        injector = self._chaos_injector
        if injector is None:
            self.events.push(ready_at, EventKind.INSTANCE_READY, iid)
            return
        outcome = injector.provision_outcome(self._now)
        if outcome == "fail":
            # The failure is only *detected* once the lag has elapsed —
            # a real site reports a launch error, not instant rejection.
            self._provision_attempts[iid] = attempt
            self.events.push(ready_at, EventKind.PROVISION_FAILED, iid)
        elif outcome == "timeout":
            factor = injector.spec.provision_timeout_factor
            delayed = self._now + (ready_at - self._now) * factor
            self._count_fault("provision_timeouts")
            if self._trace:
                self._emit_fault("provision_timeout", instance_id=iid, attempt=attempt)
            self.events.push(delayed, EventKind.INSTANCE_READY, iid)
        else:
            self.events.push(ready_at, EventKind.INSTANCE_READY, iid)

    # ------------------------------------------------------------------
    # task dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Fill free slots from the active tenants' queues.

        Each slot goes to the fullest running, non-draining instance
        (tight packing keeps marginal instances empty so steering can
        release them cheaply). A lone active tenant feeds every slot;
        with several, the allocation policy picks the tenant per slot.
        """
        active = self._active
        while True:
            alone = len(active) == 1
            if alone:
                (tenant,) = active.values()
                if len(tenant.scheduler) == 0:
                    return
            instance = self.pool.best_dispatchable(self._draining)
            if instance is None:
                return
            if not alone:
                candidates = [t for t in active.values() if len(t.scheduler) > 0]
                if not candidates:
                    return
                tenant = self.policy.choose(candidates)
            now = self._now
            local = tenant.scheduler.pop()
            scoped = tenant.prefix + local
            task = tenant.workflow.task(local)
            instance.assign(scoped, now)
            tenant.occupied_slots += 1
            tenant.master.mark_dispatched(local)
            ready = tenant.ready_at.pop(local, None)
            if ready is not None:
                tenant.queue_waits.append(now - ready)
            tenant.monitor.record_dispatch(
                local,
                tenant.workflow.stage_of[local],
                instance.instance_id,
                now,
                task.input_size,
                task.output_size,
                ready_time=ready,
            )
            duration = self._stage_in_duration(tenant, task, instance)
            self._pending_task_event[scoped] = self.events.push(
                now + duration, EventKind.STAGE_IN_DONE, scoped
            )

    def _stage_in_duration(self, tenant: TenantRun, task, instance: Instance) -> float:
        """Sample the stage-in time, with placement awareness when the
        transfer model supports it (see LocalityTransferModel)."""
        placed = getattr(self.transfer_model, "stage_in_time_placed", None)
        if placed is None:
            return self.transfer_model.stage_in_time(task, tenant.rng_transfer)
        return placed(
            task,
            self._local_input_fraction(tenant, task, instance),
            tenant.rng_transfer,
        )

    def _local_input_fraction(
        self, tenant: TenantRun, task, instance: Instance
    ) -> float:
        """Fraction of input bytes produced on ``instance`` by parents."""
        parents = tenant.workflow.parents(task.task_id)
        if not parents:
            return 0.0
        total = 0.0
        local_bytes = 0.0
        for parent_id in parents:
            parent = tenant.workflow.task(parent_id)
            total += parent.output_size
            attempts = tenant.monitor.attempts(parent_id)
            final = next((a for a in reversed(attempts) if a.is_completed), None)
            if final is not None and final.instance_id == instance.instance_id:
                local_bytes += parent.output_size
        if total <= 0.0:
            return 0.0
        return local_bytes / total

    # ------------------------------------------------------------------
    # bookkeeping / trace emission (emit call sites check ``self._trace``)
    # ------------------------------------------------------------------
    def _record_pool_change(self, now: float) -> None:
        count = self.pool.running_count()
        if self._timeline and self._timeline[-1][0] == now:
            self._timeline[-1] = (now, count)
        else:
            self._timeline.append((now, count))

    def _emit_attempt(
        self, tenant: TenantRun, local: str, scoped: str, outcome: str, now: float
    ) -> None:
        """Emit the closing record for a task attempt.

        Called after the monitor closed the attempt (complete/kill), so
        the derived timings below are final.
        """
        attempt = tenant.monitor.current_attempt(local)
        self.tracer.emit(
            TaskAttemptRecord(
                now=now,
                task_id=scoped,
                stage_id=attempt.stage_id,
                attempt=attempt.attempt,
                instance_id=attempt.instance_id,
                outcome=outcome,
                queue_wait=attempt.queue_wait,
                stage_in=attempt.stage_in_time,
                runtime=attempt.execution_time,
                stage_out=attempt.stage_out_time,
                occupancy=attempt.occupancy_elapsed(now),
                input_size=attempt.input_size,
            )
        )

    def _emit_instance(
        self, instance_id: str, event: str, now: float | None = None, **billing
    ) -> None:
        now = self._now if now is None else now
        self.tracer.emit(
            InstanceEventRecord(
                now=now, instance_id=instance_id, event=event, **billing
            )
        )

    def _emit_fault(self, fault: str, **detail) -> None:
        self.tracer.emit(CloudFaultRecord(now=self._now, fault=fault, **detail))

    def _emit_instance_end(self, instance: Instance, now: float, event: str) -> None:
        """Emit a terminal instance event with its final billing summary."""
        units, paid, busy, idle, wasted = self.pool.instance_utilization(instance, now)
        self._emit_instance(
            instance.instance_id,
            event,
            now,
            units_charged=units,
            paid_seconds=paid,
            busy_slot_seconds=busy,
            idle_fraction=idle,
            wasted_seconds=wasted,
        )
