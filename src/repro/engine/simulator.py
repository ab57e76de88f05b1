"""Single-workflow front-end of the discrete-event engine.

:class:`Simulation` executes one workflow run on an elastic pool of
simulated worker instances under one autoscaling policy — the paper's
setting. It is the engine core (:mod:`repro.engine.core`) with exactly
one tenant, admitted at t=0 under its local task ids; this module adds
the single-run :class:`~repro.engine.control.Observation`, the per-tick
:class:`~repro.telemetry.records.ControlTickRecord` and the
:class:`RunResult`.

Determinism: all randomness flows from a single seed through labelled
sub-streams (:mod:`repro.util.rng`), and simultaneous events fire in
scheduling order, so a run is a pure function of
``(workflow, site, autoscaler, charging_unit, models, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.faults import ChaosSpec
from repro.cloud.site import CloudSite
from repro.dag.workflow import Workflow
from repro.engine.control import Autoscaler, Observation
from repro.engine.core import EngineCore
from repro.engine.faults import FaultModel
from repro.engine.master import TaskExecState
from repro.engine.monitor import Monitor
from repro.engine.runtime import TaskRuntimeModel
from repro.engine.scheduler import FifoScheduler
from repro.engine.tenant import Submission, TenantRun
from repro.engine.transfer import DataTransferModel
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.records import ControlTickRecord, TickTelemetry
from repro.telemetry.tracer import Tracer
from repro.util.rng import RngStream

__all__ = ["RunResult", "Simulation"]


@dataclass
class RunResult:
    """Everything measured from one workflow run."""

    workflow_name: str
    autoscaler_name: str
    charging_unit: float
    #: completion time of the last task (simulation seconds)
    makespan: float
    #: False when the run hit ``max_time`` before finishing
    completed: bool
    #: total charging units billed (Fig 5's "resource cost")
    total_units: int
    #: total monetary cost (units x price)
    total_cost: float
    #: paid-but-unused instance seconds
    wasted_seconds: float
    #: busy slot-seconds / paid slot-seconds, in [0, 1]
    utilization: float
    #: largest number of simultaneously RUNNING instances
    peak_instances: int
    #: total instances ever launched
    instances_launched: int
    #: task attempts killed by pool shrinks
    restarts: int
    #: MAPE iterations executed
    ticks: int
    #: wall-clock seconds spent inside autoscaler.plan() (§IV-F overhead)
    controller_cpu_seconds: float
    #: autoscaler-reported state footprint in bytes (None if untracked)
    controller_state_bytes: int | None
    #: discrete events processed by the engine loop (perf accounting)
    events_processed: int
    #: (time, running instance count) at every pool change
    pool_timeline: list[tuple[float, int]]
    #: full task attempt records
    monitor: Monitor = field(repr=False)
    #: cloud-fault injection tallies by fault class (empty when chaos is
    #: disabled; see :mod:`repro.cloud.faults`)
    cloud_faults: dict[str, int] = field(default_factory=dict)

    @property
    def total_task_seconds(self) -> float:
        """Aggregate completed execution seconds (Table I's aggregate)."""
        return sum(
            a.execution_time or 0.0
            for a in self.monitor.all_attempts()
            if a.is_completed
        )


class Simulation(EngineCore):
    """One workflow run under one autoscaling policy (a one-tenant core).

    Parameters
    ----------
    workflow, site, autoscaler:
        What to run, where, and under which pool-sizing policy.
    charging_unit:
        Billing unit *u* in seconds.
    transfer_model, runtime_model:
        Ground-truth generators for transfers and execution times.
    controller_period:
        MAPE iteration period; defaults to the site's lag as the paper
        prescribes (§III-A).
    boost_k:
        First-*k* per-stage priority boost (paper: 5).
    seed:
        Root seed for all stochastic models.
    max_time:
        Safety horizon; the run is marked incomplete if it exceeds this.
    tracer:
        Structured trace destination (:mod:`repro.telemetry`). Defaults to
        the shared null tracer; every emission site is guarded by a single
        cached boolean, so untraced runs pay one attribute check per
        *potential* record, never record construction.
    metrics:
        Counter/gauge/histogram registry; defaults to the shared no-op
        registry with the same cached-boolean fast path.
    chaos:
        Cloud-fault injection spec (:mod:`repro.cloud.faults`). ``None``
        or a disabled spec leaves the run bit-identical to one with no
        chaos wiring at all: no chaos RNG sub-stream is derived (child
        streams are label-hashed, so the other streams are unaffected
        either way), no chaos events are scheduled, and every chaos call
        site is guarded by a single ``is not None`` check.
    validate:
        Runtime invariant checking (:mod:`repro.validate`). ``None`` or
        ``False`` (default) disables it with the same zero-cost contract
        as chaos — one ``is not None`` check per event, bit-identical
        results. ``True`` attaches a default raise-mode
        :class:`~repro.validate.checker.InvariantChecker`; an explicit
        checker instance is used as-is (pass ``mode="collect"`` to
        gather violations instead of stopping at the first).
    """

    def __init__(
        self,
        workflow: Workflow,
        site: CloudSite,
        autoscaler: Autoscaler,
        charging_unit: float,
        *,
        transfer_model: DataTransferModel | None = None,
        runtime_model: TaskRuntimeModel | None = None,
        fault_model: FaultModel | None = None,
        controller_period: float | None = None,
        boost_k: int = 5,
        scheduler: FifoScheduler | None = None,
        launch_jitter: float = 0.0,
        seed: int = 0,
        max_time: float = 1e8,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        chaos: ChaosSpec | None = None,
        validate: object = None,
    ) -> None:
        rng = RngStream(seed=seed, label="simulation")
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
            metrics=metrics,
            chaos=chaos,
            validate=validate,
        )
        # The one tenant draws from the run's own transfer/runtime/faults
        # streams and keeps its local task ids on the pool and in traces.
        # A custom scheduler models §III-D's dispatch-order drift; the
        # default is the FIFO order the steering policy assumes.
        tenant = self._add_tenant(
            Submission(
                tenant_id=workflow.name or "run",
                workload=workflow.name,
                submit_time=0.0,
                workflow_seed=seed,
            ),
            workflow,
            rng,
            scheduler=scheduler,
            prefix="",
        )
        self._owner = _LocalIds(tenant)
        self._label = workflow.name
        self.workflow = workflow
        self.master = tenant.master
        self.monitor = tenant.monitor
        self.scheduler = tenant.scheduler

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        checkpoint_every: int | None = None,
        checkpoint_path: object = None,
        stop_after_checkpoint: bool = False,
    ) -> RunResult | None:
        """Execute the workflow to completion and return measurements.

        ``checkpoint_every=N`` serializes the engine to
        ``checkpoint_path`` (see :mod:`repro.checkpoint`) at every N-th
        controller tick — the MAPE epoch barrier, after the tick's
        decision is applied and validated. ``stop_after_checkpoint=True``
        returns ``None`` right after the first checkpoint. A restored
        simulation continues where it stopped and finishes byte-identical
        to an uninterrupted run.
        """
        return self._run(checkpoint_every, checkpoint_path, stop_after_checkpoint)

    # ------------------------------------------------------------------
    # front-end hooks of the engine core
    # ------------------------------------------------------------------
    def _schedule_tenants(self) -> None:
        # admitted at t=0 with no arrival event, so ``events_processed``
        # counts only the run's own events
        self._activate(self.tenants[0])
        self._dispatch()

    def _observe(self, **pool_view) -> Observation:
        return Observation(
            **pool_view,
            workflow=self.workflow,
            master=self.master,
            monitor=self.monitor,
            queued_task_ids=self.scheduler.snapshot(),
        )

    def _emit_tick(self, extra: TickTelemetry | None, **common) -> None:
        counts = self.master.state_counts()
        if extra is not None:
            common.update(
                transfer_estimate=extra.transfer_estimate,
                stage_predictions=extra.stage_predictions,
            )
        self.tracer.emit(
            ControlTickRecord(
                **common,
                ready_tasks=counts[TaskExecState.READY],
                in_flight_tasks=sum(
                    counts[s] for s in TaskExecState if s.occupies_slot
                ),
                completed_tasks=counts[TaskExecState.COMPLETED],
            )
        )

    def _finalize(self, completed: bool) -> RunResult:
        makespan = self._teardown(completed)
        result = RunResult(
            workflow_name=self.workflow.name,
            autoscaler_name=self.autoscaler.name,
            charging_unit=self.billing.charging_unit,
            makespan=makespan,
            completed=completed,
            total_units=self.pool.total_units(makespan),
            total_cost=self.pool.total_cost(makespan),
            wasted_seconds=self.pool.total_wasted_time(makespan),
            utilization=self._utilization(makespan),
            peak_instances=self._peak_instances(),
            instances_launched=len(self.pool),
            restarts=self.monitor.total_restarts(),
            ticks=self._ticks,
            controller_cpu_seconds=self._controller_seconds,
            controller_state_bytes=self.autoscaler.state_size_bytes(),
            events_processed=self._events_processed,
            pool_timeline=list(self._timeline),
            monitor=self.monitor,
            cloud_faults=dict(self._cloud_faults),
        )
        if self._trace:
            self._emit_summary(result)
        return result


class _LocalIds:
    """Owner index of a tenant running alone under its local task ids.

    Every pool-side id is the tenant's own local id, so the lookup needs
    no per-task storage (and checkpoints carry none).
    """

    def __init__(self, tenant: TenantRun) -> None:
        self.tenant = tenant

    def __getitem__(self, task_id: str) -> tuple[TenantRun, str]:
        return self.tenant, task_id

    def __len__(self) -> int:
        return len(self.tenant.workflow)
