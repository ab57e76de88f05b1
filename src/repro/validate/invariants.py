"""Pure invariant checks over engine state.

Each function inspects one subsystem — the instance pool's incremental
indexes, the billing model, the monitor's incremental aggregates, task
conservation, fleet cost attribution — and returns a list of
:class:`Violation` records (empty when the invariant holds). The
functions are deliberately *recomputations*: they rebuild the quantity
under test from first principles (the instances' ``occupants`` sets, the
full attempt history) and compare it against the hand-maintained index
the hot path actually serves, so a drifted index is caught even when
both "look plausible" in isolation.

:class:`~repro.validate.checker.InvariantChecker` orchestrates these at
event/tick boundaries; they are also usable directly in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

from repro.cloud.billing import _BOUNDARY_EPS, BillingModel
from repro.cloud.instance import Instance, InstanceState
from repro.cloud.pool import InstancePool
from repro.engine.monitor import Monitor, TaskAttempt

__all__ = [
    "InvariantError",
    "Violation",
    "check_billing_instance",
    "committed_units",
    "check_fleet_attribution",
    "check_monitor_aggregates",
    "check_pool_slots",
    "check_task_conservation",
    "occupancy_integral",
]

#: absolute slack for float comparisons on simulation-time quantities
#: (times are sums of many float additions; 1e-6 s is far below any
#: charging unit yet far above accumulated ulp noise)
_TIME_TOL = 1e-6


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach.

    ``invariant`` is a stable dotted name (``"pool.free_slot_index"``,
    ``"billing.units_monotone"``, ...) that tests and the fuzz harness
    key on; ``context`` is JSON-serializable detail for the repro dump.
    """

    invariant: str
    time: float
    message: str
    context: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "time": self.time,
            "message": self.message,
            "context": self.context,
        }


class InvariantError(AssertionError):
    """Raised by a raise-mode checker on the first violation."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(
            f"[{violation.invariant}] at t={violation.time}: "
            f"{violation.message}"
        )
        self.violation = violation


# ----------------------------------------------------------------------
# pool / slot accounting
# ----------------------------------------------------------------------
def check_pool_slots(pool: InstancePool, now: float) -> list[Violation]:
    """Slot accounting: the pool's incremental indexes == recomputation.

    Rebuilds the free-slot buckets, the task-placement map, and the
    RUNNING/PENDING id sets from each instance's authoritative
    ``state``/``occupants`` and compares them against the indexes the
    dispatch hot path serves, plus per-instance capacity and
    busy-accounting preconditions.

    Deep checking calls this after every event over every instance ever
    launched, so the loop is kept tight: an instance with no occupants
    (every terminated one, on a healthy run) costs a few attribute reads.
    """
    violations: list[Violation] = []
    expected_running: set[str] = set()
    expected_pending: set[str] = set()
    expected_buckets: dict[int, set[str]] = {}
    expected_placement: dict[str, str] = {}
    running = InstanceState.RUNNING
    pending = InstanceState.PENDING
    add_running = expected_running.add
    add_pending = expected_pending.add
    for instance in pool:
        occupants = instance.occupants
        state = instance.state
        if occupants:
            iid = instance.instance_id
            slots = instance.itype.slots
            if len(occupants) > slots:
                violations.append(
                    Violation(
                        "slots.capacity",
                        now,
                        f"instance {iid} holds {len(occupants)} "
                        f"occupants on {slots} slots",
                        {"instance": iid, "occupants": sorted(occupants)},
                    )
                )
            if state is not running:
                violations.append(
                    Violation(
                        "slots.occupied_not_running",
                        now,
                        f"{state.value} instance {iid} still holds "
                        f"occupants {sorted(occupants)}",
                        {"instance": iid, "state": state.value},
                    )
                )
            if occupants != instance._assign_times.keys():
                violations.append(_assign_times_violation(instance, now))
            for task_id in occupants:
                expected_placement[task_id] = iid
        elif instance._assign_times:
            violations.append(_assign_times_violation(instance, now))
        if instance.busy_slot_seconds < -_TIME_TOL:
            violations.append(
                Violation(
                    "slots.busy_non_negative",
                    now,
                    f"instance {instance.instance_id} busy_slot_seconds "
                    f"{instance.busy_slot_seconds} < 0",
                    {
                        "instance": instance.instance_id,
                        "busy": instance.busy_slot_seconds,
                    },
                )
            )
        if state is running:
            iid = instance.instance_id
            add_running(iid)
            free = instance.itype.slots - len(occupants)
            if free > 0:
                expected_buckets.setdefault(free, set()).add(iid)
        elif state is pending:
            add_pending(instance.instance_id)

    if expected_running != pool._running_ids:
        violations.append(
            Violation(
                "pool.state_index",
                now,
                "RUNNING id set drifted from instance states",
                {
                    "missing": sorted(expected_running - pool._running_ids),
                    "stale": sorted(pool._running_ids - expected_running),
                },
            )
        )
    if expected_pending != pool._pending_ids:
        violations.append(
            Violation(
                "pool.state_index",
                now,
                "PENDING id set drifted from instance states",
                {
                    "missing": sorted(expected_pending - pool._pending_ids),
                    "stale": sorted(pool._pending_ids - expected_pending),
                },
            )
        )
    actual_buckets = {
        free: bucket for free, bucket in pool._buckets.items() if bucket
    }
    if actual_buckets != expected_buckets:
        violations.append(
            Violation(
                "pool.free_slot_index",
                now,
                "free-slot buckets drifted from occupants recomputation",
                {
                    "expected": {
                        str(k): sorted(v) for k, v in expected_buckets.items()
                    },
                    "actual": {
                        str(k): sorted(v) for k, v in actual_buckets.items()
                    },
                },
            )
        )
    if pool._task_instance != expected_placement:
        extra = set(pool._task_instance) - set(expected_placement)
        missing = set(expected_placement) - set(pool._task_instance)
        moved = {
            t
            for t in set(pool._task_instance) & set(expected_placement)
            if pool._task_instance[t] != expected_placement[t]
        }
        violations.append(
            Violation(
                "pool.placement_index",
                now,
                "task-placement map drifted from occupants recomputation",
                {
                    "stale": sorted(extra),
                    "missing": sorted(missing),
                    "moved": sorted(moved),
                },
            )
        )
    expected_free = sum(
        free * len(bucket) for free, bucket in expected_buckets.items()
    )
    actual_free = pool.free_slots()
    if actual_free != expected_free:
        violations.append(
            Violation(
                "pool.free_slot_total",
                now,
                f"pool.free_slots() == {actual_free} but occupants "
                f"recomputation gives {expected_free}",
                {"actual": actual_free, "expected": expected_free},
            )
        )
    return violations


def _assign_times_violation(instance: Instance, now: float) -> Violation:
    iid = instance.instance_id
    return Violation(
        "slots.assign_times",
        now,
        f"instance {iid} occupants and busy-accounting assign "
        "times disagree (a slot was assigned or vacated "
        "without a timestamp, undercounting busy_slot_seconds)",
        {
            "instance": iid,
            "occupants": sorted(instance.occupants),
            "assign_times": sorted(instance._assign_times),
        },
    )


# ----------------------------------------------------------------------
# billing
# ----------------------------------------------------------------------
def committed_units(
    billing: BillingModel, instance: Instance, now: float
) -> int:
    """Units the instance owes *no matter what happens next*.

    A running instance's ``units_charged`` includes a provisional unit
    the moment a boundary passes — provisional because a release at
    exactly that boundary (Algorithm 2's whole point) rescinds it. The
    committed count is what terminating right now would owe: this is the
    quantity that is monotone non-decreasing over an instance's life,
    while the provisional count may legitimately drop by one at a
    boundary-exact release.
    """
    if instance.started_at is None:
        return 0
    uptime = instance.uptime(now)
    return max(
        1, math.ceil((uptime - _BOUNDARY_EPS) / billing.charging_unit)
    )


def check_billing_instance(
    billing: BillingModel,
    instance: Instance,
    now: float,
    *,
    last_units: int | None = None,
    units_at_termination: int | None = None,
) -> list[Violation]:
    """Billing consistency for one instance as of ``now``.

    - :func:`committed_units` is monotone non-decreasing (vs
      ``last_units``, the committed count recorded at the previous
      check), and ``units_charged`` never undercuts it;
    - a terminated instance is never charged past the termination
      boundary (vs ``units_at_termination``);
    - a never-started instance is charged nothing and is "paid" only
      through its request time;
    - a running instance is always paid through ``now``, its next charge
      lies in ``(0, u]``, and ``next_charge_time == paid_until`` — the
      reconciled charge-boundary convention;
    - ``wasted_time`` is non-negative.
    """
    violations: list[Violation] = []
    iid = instance.instance_id
    u = billing.charging_unit
    units = billing.units_charged(instance, now)
    committed = committed_units(billing, instance, now)
    if last_units is not None and committed < last_units:
        violations.append(
            Violation(
                "billing.units_monotone",
                now,
                f"instance {iid} committed units fell from {last_units} "
                f"to {committed}; billing went backwards",
                {"instance": iid, "before": last_units, "after": committed},
            )
        )
    if units < committed:
        violations.append(
            Violation(
                "billing.undercharged",
                now,
                f"instance {iid} units_charged {units} is below its "
                f"committed count {committed}",
                {"instance": iid, "units": units, "committed": committed},
            )
        )
    if units_at_termination is not None and units != units_at_termination:
        violations.append(
            Violation(
                "billing.charged_after_termination",
                now,
                f"terminated instance {iid} units moved from "
                f"{units_at_termination} to {units}; billing must stop at "
                "the termination/revocation boundary",
                {
                    "instance": iid,
                    "at_termination": units_at_termination,
                    "now": units,
                },
            )
        )
    wasted = billing.wasted_time(instance, now)
    if wasted < -_TIME_TOL:
        violations.append(
            Violation(
                "billing.wasted_non_negative",
                now,
                f"instance {iid} wasted_time {wasted} < 0",
                {"instance": iid, "wasted": wasted},
            )
        )
    if instance.started_at is None:
        if units != 0:
            violations.append(
                Violation(
                    "billing.never_started_free",
                    now,
                    f"never-started instance {iid} charged {units} units",
                    {"instance": iid, "units": units},
                )
            )
        paid = billing.paid_until(instance, now)
        if abs(paid - instance.requested_at) > _TIME_TOL:
            violations.append(
                Violation(
                    "billing.pending_paid_until",
                    now,
                    f"never-started instance {iid} claims paid_until="
                    f"{paid}, expected its requested_at "
                    f"{instance.requested_at}",
                    {"instance": iid, "paid_until": paid},
                )
            )
        return violations
    if instance.state is InstanceState.RUNNING:
        paid = billing.paid_until(instance, now)
        if paid < now - _TIME_TOL:
            violations.append(
                Violation(
                    "billing.paid_through_now",
                    now,
                    f"running instance {iid} paid only through {paid} "
                    f"< now {now}: the unit in progress was never charged",
                    {"instance": iid, "paid_until": paid},
                )
            )
        r = billing.time_to_next_charge(instance, now)
        if not 0.0 < r <= u + _TIME_TOL:
            violations.append(
                Violation(
                    "billing.next_charge_range",
                    now,
                    f"running instance {iid} time_to_next_charge {r} "
                    f"outside (0, {u}]",
                    {"instance": iid, "r": r},
                )
            )
        next_charge = billing.next_charge_time(instance, now)
        if abs(next_charge - paid) > _TIME_TOL + 2e-9 * max(1.0, abs(paid)):
            violations.append(
                Violation(
                    "billing.boundary_consistency",
                    now,
                    f"running instance {iid}: next_charge_time "
                    f"{next_charge} != paid_until {paid}; units_charged "
                    "and time_to_next_charge apply different charge-"
                    "boundary conventions",
                    {
                        "instance": iid,
                        "next_charge_time": next_charge,
                        "paid_until": paid,
                    },
                )
            )
    return violations


# ----------------------------------------------------------------------
# monitor aggregates
# ----------------------------------------------------------------------
def check_monitor_aggregates(
    monitor: Monitor, now: float, *, label: str = ""
) -> list[Violation]:
    """Incremental monitor aggregates == brute-force recomputation.

    Guards the monitor's hot-path indexes: ``completed_in_stage`` /
    ``running_in_stage`` / ``transfer_times_between`` are served from
    hand-maintained indexes; here they are recomputed from the full
    per-stage attempt history (the authoritative record) and compared
    element-for-element, order included.
    """
    violations: list[Violation] = []
    tag = f"{label}: " if label else ""
    for stage_id, attempts in monitor._by_stage.items():
        # one scan of the stage's history: completed, else in flight
        # unless killed (TaskAttempt.is_completed / .in_flight)
        expected_completed: list[TaskAttempt] = []
        expected_running: list[TaskAttempt] = []
        for a in attempts:
            if a.complete_time is not None:
                expected_completed.append(a)
            elif a.killed_at is None:
                expected_running.append(a)
        actual_completed = monitor.completed_in_stage(stage_id)
        if list(map(id, expected_completed)) != list(map(id, actual_completed)):
            violations.append(
                Violation(
                    "monitor.completed_in_stage",
                    now,
                    f"{tag}stage {stage_id}: incremental completed list "
                    "drifted from the attempt-history scan",
                    {
                        "stage": stage_id,
                        "expected": [a.task_id for a in expected_completed],
                        "actual": [a.task_id for a in actual_completed],
                    },
                )
            )
        actual_running = monitor.running_in_stage(stage_id)
        if list(map(id, expected_running)) != list(map(id, actual_running)):
            violations.append(
                Violation(
                    "monitor.running_in_stage",
                    now,
                    f"{tag}stage {stage_id}: incremental in-flight list "
                    "drifted from the attempt-history scan",
                    {
                        "stage": stage_id,
                        "expected": [a.task_id for a in expected_running],
                        "actual": [a.task_id for a in actual_running],
                    },
                )
            )
    expected_transfers = _reference_transfer_times(monitor, -1.0, now)
    actual_transfers = monitor.transfer_times_between(-1.0, now)
    if expected_transfers != actual_transfers:
        violations.append(
            Violation(
                "monitor.transfer_observations",
                now,
                f"{tag}incremental transfer-observation log drifted from "
                "the attempt-history scan",
                {
                    "expected_n": len(expected_transfers),
                    "actual_n": len(actual_transfers),
                },
            )
        )
    return violations


#: first-dispatch order, then attempt number
_ATTEMPT_ORDER = attrgetter("_task_order", "attempt")


def _reference_transfer_times(
    monitor: Monitor, t0: float, t1: float
) -> list[float]:
    """The historical full-scan implementation of transfer_times_between:
    attempts in first-dispatch order, stage-in before stage-out within an
    attempt, keeping durations that finished in ``(t0, t1]``."""
    ordered: list[TaskAttempt] = sorted(
        monitor.all_attempts(), key=_ATTEMPT_ORDER
    )
    durations: list[float] = []
    append = durations.append
    for attempt in ordered:
        exec_start = attempt.exec_start
        if exec_start is not None and t0 < exec_start <= t1:
            append(attempt.stage_in_time or 0.0)
        complete_time = attempt.complete_time
        if complete_time is not None and t0 < complete_time <= t1:
            append(attempt.stage_out_time or 0.0)
    return durations


# ----------------------------------------------------------------------
# task conservation
# ----------------------------------------------------------------------
def check_task_conservation(
    task_ids,
    monitor: Monitor,
    now: float,
    *,
    completed_run: bool = True,
    label: str = "",
) -> list[Violation]:
    """Every task completes exactly once; attempt accounting balances.

    On a completed run each DAG task must have exactly one completed
    attempt, every other attempt must be killed (a restart), and no
    attempt may be simultaneously completed and killed or still in
    flight after finalization.
    """
    violations: list[Violation] = []
    tag = f"{label}: " if label else ""
    for task_id in task_ids:
        attempts = monitor.attempts(task_id)
        completed = [a for a in attempts if a.is_completed]
        if completed_run and len(completed) != 1:
            violations.append(
                Violation(
                    "tasks.completed_once",
                    now,
                    f"{tag}task {task_id} completed {len(completed)} times "
                    "on a completed run (expected exactly once)",
                    {"task": task_id, "completions": len(completed)},
                )
            )
        elif not completed_run and len(completed) > 1:
            violations.append(
                Violation(
                    "tasks.completed_once",
                    now,
                    f"{tag}task {task_id} completed {len(completed)} times",
                    {"task": task_id, "completions": len(completed)},
                )
            )
        for attempt in attempts:
            if attempt.is_completed and attempt.is_killed:
                violations.append(
                    Violation(
                        "tasks.attempt_accounting",
                        now,
                        f"{tag}task {task_id} attempt {attempt.attempt} is "
                        "both completed and killed",
                        {"task": task_id, "attempt": attempt.attempt},
                    )
                )
            elif attempt.in_flight:
                violations.append(
                    Violation(
                        "tasks.attempt_accounting",
                        now,
                        f"{tag}task {task_id} attempt {attempt.attempt} "
                        "still in flight after finalization",
                        {"task": task_id, "attempt": attempt.attempt},
                    )
                )
    return violations


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
def check_fleet_attribution(
    total_cost: float,
    attributed_costs,
    unattributed_cost: float,
    now: float,
) -> list[Violation]:
    """Per-tenant cost shares (plus the operator's unattributed share)
    must sum to the pool's bill."""
    share_sum = sum(attributed_costs) + unattributed_cost
    tol = 1e-6 * max(1.0, abs(total_cost))
    if abs(share_sum - total_cost) > tol:
        return [
            Violation(
                "fleet.cost_shares",
                now,
                f"attributed {sum(attributed_costs)} + unattributed "
                f"{unattributed_cost} = {share_sum} != pool bill "
                f"{total_cost}",
                {
                    "attributed": list(attributed_costs),
                    "unattributed": unattributed_cost,
                    "total_cost": total_cost,
                },
            )
        ]
    return []


def occupancy_integral(
    monitor: Monitor, instance_id: str, now: float
) -> float:
    """Hand-computed busy-slot integral of one instance from the attempt
    record: sum over attempts placed on it of (end − dispatch), where end
    is completion, kill, or ``now`` for in-flight attempts. The engine's
    timed assign/release pairs must accumulate exactly this into
    ``Instance.busy_slot_seconds``."""
    return sum(
        a.occupancy_elapsed(now)
        for a in monitor.all_attempts()
        if a.instance_id == instance_id
    )
