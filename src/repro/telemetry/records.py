"""Typed telemetry records emitted at the MAPE boundaries.

Each record type captures one class of per-decision quantity the paper's
evaluation (§IV) is built on: per-control-tick controller state (the
predicted load ``Q_task``, per-stage predictions, the Algorithm 2/3
branch taken, pool sizes), per-instance lifecycle and billing events
(charging units consumed, idle fraction at termination), and per-task
attempt outcomes (queue wait, runtime, transfer times).

Records are plain frozen dataclasses with a stable ``kind`` tag and a
lossless JSON round-trip (:meth:`to_json` / :func:`record_from_json`),
so a JSONL trace file is both machine-readable and diffable. Nothing in
this module imports engine state — records carry values, not references —
which keeps sinks trivially serializable across process boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Mapping

__all__ = [
    "CloudFaultRecord",
    "ControlTickRecord",
    "FleetTickRecord",
    "InstanceEventRecord",
    "RunMetaRecord",
    "RunSummaryRecord",
    "StagePrediction",
    "TaskAttemptRecord",
    "TenantRecord",
    "TickTelemetry",
    "TraceRecord",
    "record_from_json",
]


@dataclass(frozen=True, slots=True)
class StagePrediction:
    """One stage's execution-time prediction at a single MAPE tick."""

    stage_id: str
    #: identifier of the model/policy that dominated the stage's estimates
    #: (a §III-C policy name, ``observed``, or ``ogd``)
    model: str
    #: incomplete tasks of the stage annotated at this tick
    n_tasks: int
    #: mean predicted execution time over those tasks (seconds)
    mean_estimate: float


@dataclass(frozen=True, slots=True)
class TickTelemetry:
    """Controller-internal detail attached to one control tick.

    Produced by :meth:`repro.engine.control.Autoscaler.tick_telemetry`;
    policies without online prediction return ``None`` and the engine
    records the tick without it.
    """

    #: Algorithm 3's planned pool size p (before site clamping)
    target_pool: int
    #: size of the projected upcoming load Q_task
    q_task: int
    #: total predicted remaining occupancy over Q_task (seconds)
    q_remaining: float
    #: the controller's current data-transfer estimate t̃_data (seconds)
    transfer_estimate: float
    stage_predictions: tuple[StagePrediction, ...] = ()


class TraceRecord:
    """Base class for all trace records (provides the JSON round-trip)."""

    kind: ClassVar[str] = "abstract"

    def to_json(self) -> dict[str, Any]:
        """A JSON-ready dict with the record's ``kind`` tag included.

        Equal to ``dataclasses.asdict(self) | {"kind": self.kind}``, built
        straight from the slots: every field value is immutable, so the
        deep copy ``asdict`` makes buys nothing on the trace hot path.
        """
        payload = {name: getattr(self, name) for name in self.__slots__}
        predictions = payload.get("stage_predictions")
        if predictions:
            payload["stage_predictions"] = tuple(
                {name: getattr(p, name) for name in StagePrediction.__slots__}
                for p in predictions
            )
        payload["kind"] = self.kind
        return payload


@dataclass(frozen=True, slots=True)
class RunMetaRecord(TraceRecord):
    """Identity of the traced run — always the first record of a trace."""

    kind: ClassVar[str] = "run_meta"

    workflow: str
    policy: str
    charging_unit: float
    seed: int | None
    site: str
    max_instances: int
    lag: float
    #: MAPE controller period (seconds)
    period: float
    n_tasks: int
    n_stages: int
    slots_per_instance: int
    #: identifier of the engine's runtime model ("nominal", "perturbed")
    runtime_model: str = ""


@dataclass(frozen=True, slots=True)
class ControlTickRecord(TraceRecord):
    """What one MAPE iteration saw and decided."""

    kind: ClassVar[str] = "control_tick"

    #: 0-based tick index
    tick: int
    now: float
    #: RUNNING (non-draining) + PENDING instances when the tick fired
    pool_before: int
    #: the same count after the decision was applied
    pool_after: int
    launched: int
    terminated: int
    #: Algorithm 2 branch taken: "grow", "shrink", or "hold"
    branch: str
    #: master's task-state counts at the tick (ready/in-flight/completed)
    ready_tasks: int
    in_flight_tasks: int
    completed_tasks: int
    #: Algorithm 3 target p; None for policies without one
    target_pool: int | None = None
    #: predicted upcoming load |Q_task|; None for non-predictive policies
    q_task: int | None = None
    #: total predicted remaining occupancy over Q_task (seconds)
    q_remaining: float | None = None
    #: controller transfer estimate t̃_data; None for non-predictive policies
    transfer_estimate: float | None = None
    #: per-stage predictions at this tick (predictive policies only)
    stage_predictions: tuple[StagePrediction, ...] = ()


@dataclass(frozen=True, slots=True)
class InstanceEventRecord(TraceRecord):
    """One worker-instance lifecycle event with its billing context."""

    kind: ClassVar[str] = "instance_event"

    now: float
    instance_id: str
    #: "requested", "provisioned", "terminated", "revoked", or "cancelled"
    event: str
    #: charging units billed over the instance's life (terminated only)
    units_charged: int | None = None
    #: paid wall seconds = units * u (terminated only)
    paid_seconds: float | None = None
    #: busy slot-seconds actually consumed by task attempts
    busy_slot_seconds: float | None = None
    #: 1 - busy / (paid * slots), the §IV waste signal (terminated only)
    idle_fraction: float | None = None
    #: paid-but-unused wall seconds (billing's recharge waste measure)
    wasted_seconds: float | None = None


@dataclass(frozen=True, slots=True)
class TaskAttemptRecord(TraceRecord):
    """Outcome of one task attempt (completions, kills, and failures)."""

    kind: ClassVar[str] = "task_attempt"

    now: float
    task_id: str
    stage_id: str
    attempt: int
    instance_id: str
    #: "completed", "killed" (pool shrink), or "failed" (injected fault)
    outcome: str
    #: seconds between becoming ready and slot assignment
    queue_wait: float | None = None
    stage_in: float | None = None
    #: measured pure execution seconds (completions only)
    runtime: float | None = None
    stage_out: float | None = None
    #: total slot occupancy consumed by the attempt
    occupancy: float = 0.0
    input_size: float = 0.0


@dataclass(frozen=True, slots=True)
class CloudFaultRecord(TraceRecord):
    """One injected cloud fault, or a degradation reacting to one.

    Emitted by the engine's chaos wiring (:mod:`repro.cloud.faults`).
    ``fault`` is one of: ``revocation``, ``straggler``,
    ``provision_failure``, ``provision_retry``, ``provision_abandoned``,
    ``provision_timeout``, ``monitor_blackout``. Only the fields relevant
    to the fault class are set; the rest stay ``None``/0.
    """

    kind: ClassVar[str] = "cloud_fault"

    now: float
    fault: str
    #: subject instance (None for monitor blackouts)
    instance_id: str | None = None
    #: attempts killed and requeued by a revocation
    tasks_killed: int = 0
    #: paid-but-unused seconds of a revoked instance — the billing waste
    #: attributable to the revocation (its recharge-waste measure)
    wasted_seconds: float | None = None
    #: sunk slot-occupancy destroyed by a revocation (work to redo)
    lost_occupancy: float | None = None
    #: straggler execution-time multiplier
    slowdown: float | None = None
    #: provisioning attempt number within a retry chain (1 = first try)
    attempt: int | None = None
    #: backoff delay before the next provisioning retry (seconds)
    backoff: float | None = None


@dataclass(frozen=True, slots=True)
class FleetTickRecord(TraceRecord):
    """What one global steering iteration of a fleet run saw and decided.

    The fleet analogue of :class:`ControlTickRecord`: pool sizes and the
    Algorithm 2 branch are site-wide, and the task-state counts are
    replaced by tenant-population counts (per-tenant task detail lives in
    the :class:`TenantRecord` emitted at fleet end).
    """

    kind: ClassVar[str] = "fleet_tick"

    #: 0-based tick index
    tick: int
    now: float
    #: tenants admitted and not yet finished when the tick fired
    active_tenants: int
    #: tenants arrived but held back by the admission cap
    waiting_tenants: int
    #: ready tasks queued across all active tenants
    queued_tasks: int
    pool_before: int
    pool_after: int
    launched: int
    terminated: int
    #: Algorithm 2 branch taken: "grow", "shrink", or "hold"
    branch: str
    #: Algorithm 3 target p over the summed load; None for non-predictive
    target_pool: int | None = None
    #: size of the concatenated upcoming load sum(Q_task); None likewise
    q_task: int | None = None
    #: total predicted remaining occupancy over the summed load (seconds)
    q_remaining: float | None = None


@dataclass(frozen=True, slots=True)
class TenantRecord(TraceRecord):
    """Final per-tenant metrics of a fleet run (one per tenant, at end).

    ``slowdown`` is response time (finish - submit) over the workflow's
    zero-contention critical path; ``attributed_*`` are the tenant's
    proportional-to-busy-share slice of the shared site bill.
    """

    kind: ClassVar[str] = "tenant"

    now: float
    tenant_id: str
    workload: str
    priority: int
    submitted_at: float
    finished_at: float
    makespan: float
    slowdown: float
    queue_wait_mean: float
    tasks: int
    restarts: int
    attributed_cost: float
    attributed_units: float
    attributed_wasted_seconds: float
    completed: bool


@dataclass(frozen=True, slots=True)
class RunSummaryRecord(TraceRecord):
    """Aggregate measurements — always the last record of a trace."""

    kind: ClassVar[str] = "run_summary"

    makespan: float
    completed: bool
    total_units: int
    total_cost: float
    wasted_seconds: float
    utilization: float
    peak_instances: int
    instances_launched: int
    restarts: int
    ticks: int


_RECORD_TYPES: dict[str, type[TraceRecord]] = {
    cls.kind: cls
    for cls in (
        RunMetaRecord,
        ControlTickRecord,
        InstanceEventRecord,
        TaskAttemptRecord,
        CloudFaultRecord,
        FleetTickRecord,
        TenantRecord,
        RunSummaryRecord,
    )
}


def record_from_json(payload: Mapping[str, Any]) -> TraceRecord:
    """Rebuild a typed record from its :meth:`TraceRecord.to_json` dict.

    Raises ``ValueError`` on an unknown or malformed ``kind`` tag so a
    corrupted trace line fails loudly instead of silently degrading the
    summary.
    """
    kind = payload.get("kind")
    cls = _RECORD_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown trace record kind {kind!r}")
    values = {k: v for k, v in payload.items() if k != "kind"}
    if cls is ControlTickRecord and "stage_predictions" in values:
        values["stage_predictions"] = tuple(
            StagePrediction(**p) for p in values["stage_predictions"]
        )
    allowed = {f.name for f in fields(cls)}
    unknown = set(values) - allowed
    if unknown:
        raise ValueError(
            f"unknown fields {sorted(unknown)} for record kind {kind!r}"
        )
    return cls(**values)
