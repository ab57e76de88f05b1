"""Targeted corruption tests for the pure invariant checks.

Each test hand-builds a small consistent structure, verifies the check
passes, then applies *one* corruption and asserts the matching invariant
(and only a sensible set) trips. This is the checker checking the
checker: a rewrite of an invariant that silently stops detecting its
bug class fails here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.billing import BillingModel
from repro.cloud.instance import Instance, InstanceState, InstanceType
from repro.cloud.pool import InstancePool
from repro.engine.monitor import Monitor
from repro.validate import (
    InvariantError,
    Violation,
    check_billing_instance,
    check_fleet_attribution,
    check_monitor_aggregates,
    check_pool_slots,
    check_task_conservation,
    committed_units,
    occupancy_integral,
)


def names(violations) -> set[str]:
    return {v.invariant for v in violations}


def make_pool(slots: int = 2) -> InstancePool:
    return InstancePool(InstanceType(name="t", slots=slots), BillingModel(60.0))


def running_instance(pool: InstancePool, now: float = 0.0) -> Instance:
    inst = pool.create(now)
    inst.mark_running(now)
    return inst


# ----------------------------------------------------------------------
# pool / slot accounting
# ----------------------------------------------------------------------
class TestPoolSlots:
    def test_clean_pool_passes(self):
        pool = make_pool()
        a = running_instance(pool)
        running_instance(pool)
        pool.create(5.0)  # a PENDING straggler
        a.assign("t1", 1.0)
        assert check_pool_slots(pool, 10.0) == []

    def test_over_capacity(self):
        pool = make_pool(slots=1)
        inst = running_instance(pool)
        inst.assign("t1", 1.0)
        # bypass assign() to overfill the slot set
        inst.occupants.add("t2")
        assert "slots.capacity" in names(check_pool_slots(pool, 10.0))

    def test_occupants_on_non_running_instance(self):
        pool = make_pool()
        inst = running_instance(pool)
        inst.assign("t1", 1.0)
        # bypass mark_terminated's occupants guard
        inst.state = InstanceState.TERMINATED
        found = names(check_pool_slots(pool, 10.0))
        assert "slots.occupied_not_running" in found

    def test_assign_without_timestamp(self):
        pool = make_pool()
        inst = running_instance(pool)
        inst.assign("t1", 1.0)
        # lose the busy-accounting record while keeping the occupant:
        # exactly what an untimed assign on the engine path would do
        del inst._assign_times["t1"]
        assert "slots.assign_times" in names(check_pool_slots(pool, 10.0))

    def test_timestamp_without_occupant(self):
        # the reverse of test_assign_without_timestamp: a vacated slot
        # whose assign time was never popped, on an empty instance and
        # beside a real occupant
        pool = make_pool()
        empty = running_instance(pool)
        empty._assign_times["t9"] = 1.0
        busy = running_instance(pool)
        busy.assign("t1", 1.0)
        busy._assign_times["t8"] = 2.0
        found = check_pool_slots(pool, 10.0)
        assert names(found) == {"slots.assign_times"}
        assert [v.context["instance"] for v in found] == [
            empty.instance_id,
            busy.instance_id,
        ]
        assert found[0].context["assign_times"] == ["t9"]

    def test_timestamp_left_on_terminated_instance(self):
        pool = make_pool()
        inst = running_instance(pool)
        inst.mark_terminated(5.0)
        inst._assign_times["t1"] = 1.0
        assert names(check_pool_slots(pool, 10.0)) == {"slots.assign_times"}

    def test_negative_busy_accumulator(self):
        pool = make_pool()
        inst = running_instance(pool)
        inst.busy_slot_seconds = -1.0
        assert "slots.busy_non_negative" in names(check_pool_slots(pool, 10.0))

    def test_bucket_drift(self):
        pool = make_pool()
        inst = running_instance(pool)
        pool._buckets[2].discard(inst.instance_id)
        found = names(check_pool_slots(pool, 10.0))
        assert "pool.free_slot_index" in found
        assert "pool.free_slot_total" in found

    def test_stale_running_id(self):
        pool = make_pool()
        running_instance(pool)
        pool._running_ids.add("vm-9999")
        assert "pool.state_index" in names(check_pool_slots(pool, 10.0))

    def test_stale_pending_id(self):
        pool = make_pool()
        pool.create(0.0)
        pool._pending_ids.add("vm-9999")
        found = check_pool_slots(pool, 10.0)
        assert names(found) == {"pool.state_index"}
        assert "PENDING" in found[0].message
        assert found[0].context == {"missing": [], "stale": ["vm-9999"]}

    def test_free_slot_total_drift(self):
        # the buckets agree with the recomputation, but the total the
        # dispatch path reads does not
        pool = make_pool()
        running_instance(pool)
        pool.free_slots = lambda: 5
        found = check_pool_slots(pool, 10.0)
        assert names(found) == {"pool.free_slot_total"}
        assert found[0].context == {"actual": 5, "expected": 2}

    def test_placement_ghost(self):
        pool = make_pool()
        inst = running_instance(pool)
        pool._task_instance["ghost"] = inst.instance_id
        assert "pool.placement_index" in names(check_pool_slots(pool, 10.0))

    def test_placement_moved(self):
        pool = make_pool()
        a = running_instance(pool)
        b = running_instance(pool)
        a.assign("t1", 1.0)
        pool._task_instance["t1"] = b.instance_id
        found = check_pool_slots(pool, 10.0)
        assert "pool.placement_index" in names(found)
        moved = next(
            v for v in found if v.invariant == "pool.placement_index"
        )
        assert moved.context["moved"] == ["t1"]


# ----------------------------------------------------------------------
# billing
# ----------------------------------------------------------------------
class _LyingBilling(BillingModel):
    """BillingModel whose overridden quantities inject one specific lie."""

    def __init__(self, u: float, **lies) -> None:
        super().__init__(u)
        self._lies = lies

    def units_charged(self, instance, now):
        if "units" in self._lies:
            return self._lies["units"]
        return super().units_charged(instance, now)

    def paid_until(self, instance, now):
        if "paid_until" in self._lies:
            return self._lies["paid_until"]
        return super().paid_until(instance, now)

    def next_charge_time(self, instance, now):
        if "next_charge" in self._lies:
            return self._lies["next_charge"]
        return super().next_charge_time(instance, now)

    def wasted_time(self, instance, now):
        if "wasted" in self._lies:
            return self._lies["wasted"]
        return super().wasted_time(instance, now)


def make_running(started_at: float = 0.0) -> Instance:
    inst = Instance(
        instance_id="v",
        itype=InstanceType(name="t", slots=1),
        requested_at=started_at,
    )
    inst.mark_running(started_at)
    return inst


class TestCommittedUnits:
    def test_never_started_owes_nothing(self):
        inst = Instance(
            instance_id="v",
            itype=InstanceType(name="t", slots=1),
            requested_at=0.0,
        )
        assert committed_units(BillingModel(60.0), inst, 100.0) == 0

    def test_first_unit_committed_immediately(self):
        assert committed_units(BillingModel(60.0), make_running(), 0.0) == 1
        assert committed_units(BillingModel(60.0), make_running(), 30.0) == 1

    def test_boundary_exact_release_still_owes_k_units(self):
        # at exactly t=60 a release owes 1 unit, not the provisional 2
        billing = BillingModel(60.0)
        assert committed_units(billing, make_running(), 60.0) == 1
        assert committed_units(billing, make_running(), 60.1) == 2

    @given(
        u=st.floats(min_value=0.5, max_value=10_000, allow_nan=False),
        e1=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        e2=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_monotone_in_time(self, u, e1, e2):
        billing = BillingModel(u)
        inst = make_running(0.0)
        lo, hi = sorted((e1, e2))
        assert committed_units(billing, inst, lo) <= committed_units(
            billing, inst, hi
        )

    @given(
        u=st.floats(min_value=0.5, max_value=10_000, allow_nan=False),
        elapsed=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_never_exceeds_units_charged(self, u, elapsed):
        """The provisional count is an upper bound on the committed one."""
        billing = BillingModel(u)
        inst = make_running(0.0)
        assert committed_units(billing, inst, elapsed) <= billing.units_charged(
            inst, elapsed
        )


class TestBillingInstance:
    def test_clean_running_instance_passes(self):
        billing = BillingModel(60.0)
        inst = make_running(0.0)
        assert check_billing_instance(billing, inst, 95.0) == []

    @given(
        u=st.floats(min_value=0.5, max_value=10_000, allow_nan=False),
        start=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        elapsed=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_real_billing_never_trips(self, u, start, elapsed):
        """The real BillingModel satisfies every per-instance invariant
        at arbitrary observation times (the checker must be quiet on
        correct code)."""
        billing = BillingModel(u)
        inst = make_running(start)
        now = start + elapsed
        assert check_billing_instance(
            billing, inst, now, last_units=committed_units(billing, inst, now)
        ) == []

    def test_monotonicity_violation(self):
        billing = BillingModel(60.0)
        found = check_billing_instance(
            billing, make_running(0.0), 30.0, last_units=5
        )
        assert "billing.units_monotone" in names(found)

    def test_undercharge(self):
        billing = _LyingBilling(60.0, units=0)
        found = check_billing_instance(billing, make_running(0.0), 30.0)
        assert "billing.undercharged" in names(found)

    def test_charge_after_termination(self):
        billing = BillingModel(60.0)
        inst = make_running(0.0)
        inst.mark_terminated(90.0)
        # frozen at 2 units; claim only 1 was owed at termination
        found = check_billing_instance(
            billing, inst, 500.0, units_at_termination=1
        )
        assert "billing.charged_after_termination" in names(found)

    def test_never_started_charged(self):
        billing = _LyingBilling(60.0, units=7)
        inst = Instance(
            instance_id="v",
            itype=InstanceType(name="t", slots=1),
            requested_at=5.0,
        )
        assert "billing.never_started_free" in names(
            check_billing_instance(billing, inst, 100.0)
        )

    def test_pending_paid_until(self):
        billing = _LyingBilling(60.0, paid_until=99.0)
        inst = Instance(
            instance_id="v",
            itype=InstanceType(name="t", slots=1),
            requested_at=5.0,
        )
        assert "billing.pending_paid_until" in names(
            check_billing_instance(billing, inst, 100.0)
        )

    def test_unpaid_running_time(self):
        billing = _LyingBilling(60.0, paid_until=10.0)
        found = check_billing_instance(billing, make_running(0.0), 30.0)
        assert "billing.paid_through_now" in names(found)

    def test_boundary_convention_drift(self):
        billing = _LyingBilling(60.0, next_charge=45.0)
        found = check_billing_instance(billing, make_running(0.0), 30.0)
        assert "billing.boundary_consistency" in names(found)

    def test_negative_waste(self):
        billing = _LyingBilling(60.0, wasted=-3.0)
        found = check_billing_instance(billing, make_running(0.0), 30.0)
        assert "billing.wasted_non_negative" in names(found)


# ----------------------------------------------------------------------
# monitor aggregates
# ----------------------------------------------------------------------
def populated_monitor() -> Monitor:
    monitor = Monitor()
    for i, task in enumerate(("a", "b", "c")):
        monitor.record_dispatch(task, "s0", "vm-1", float(i), 1e6, 1e6)
        monitor.record_exec_start(task, float(i) + 1.0)
    for task in ("a", "b"):
        monitor.record_exec_end(task, 10.0)
        monitor.record_complete(task, 11.0)
    return monitor


class TestMonitorAggregates:
    def test_clean_monitor_passes(self):
        assert check_monitor_aggregates(populated_monitor(), 20.0) == []

    def test_completed_index_drift(self):
        monitor = populated_monitor()
        monitor._completed_by_stage["s0"].pop()
        found = check_monitor_aggregates(monitor, 20.0)
        assert "monitor.completed_in_stage" in names(found)

    def test_running_index_drift(self):
        monitor = populated_monitor()
        monitor._running_by_stage["s0"].clear()
        found = check_monitor_aggregates(monitor, 20.0)
        assert "monitor.running_in_stage" in names(found)

    def test_transfer_log_drift(self):
        monitor = populated_monitor()
        monitor._transfer_obs.pop()
        found = check_monitor_aggregates(monitor, 20.0)
        assert "monitor.transfer_observations" in names(found)

    def test_label_prefixes_messages(self):
        monitor = populated_monitor()
        monitor._completed_by_stage["s0"].pop()
        found = check_monitor_aggregates(monitor, 20.0, label="tenant-3")
        assert any(v.message.startswith("tenant-3: ") for v in found)


# ----------------------------------------------------------------------
# task conservation
# ----------------------------------------------------------------------
class TestTaskConservation:
    def test_completed_run_clean(self):
        monitor = populated_monitor()
        monitor.record_exec_end("c", 12.0)
        monitor.record_complete("c", 13.0)
        assert check_task_conservation(["a", "b", "c"], monitor, 20.0) == []

    def test_missing_completion(self):
        monitor = populated_monitor()
        monitor.record_kill("c", 12.0)
        found = check_task_conservation(["a", "b", "c"], monitor, 20.0)
        assert "tasks.completed_once" in names(found)

    def test_incomplete_run_tolerates_missing_but_not_double(self):
        monitor = populated_monitor()
        monitor.record_kill("c", 12.0)
        assert (
            check_task_conservation(
                ["a", "b", "c"], monitor, 20.0, completed_run=False
            )
            == []
        )
        # double completion is wrong on any run
        monitor.attempts("a")[0].complete_time = 11.0
        monitor.record_dispatch("a", "s0", "vm-1", 14.0, 1e6, 1e6)
        monitor.record_complete("a", 15.0)
        found = check_task_conservation(
            ["a", "b", "c"], monitor, 20.0, completed_run=False
        )
        assert "tasks.completed_once" in names(found)

    def test_completed_and_killed_attempt(self):
        monitor = populated_monitor()
        monitor.record_exec_end("c", 12.0)
        monitor.record_complete("c", 13.0)
        monitor.attempts("a")[0].killed_at = 11.0
        found = check_task_conservation(["a", "b", "c"], monitor, 20.0)
        assert "tasks.attempt_accounting" in names(found)

    def test_inflight_after_finalization(self):
        monitor = populated_monitor()  # "c" is still in flight
        found = check_task_conservation(["a", "b"], monitor, 20.0)
        # "c" not in task_ids -> clean; now include it
        assert found == []
        found = check_task_conservation(["a", "b", "c"], monitor, 20.0)
        assert "tasks.attempt_accounting" in names(found)


# ----------------------------------------------------------------------
# fleet attribution + occupancy integral
# ----------------------------------------------------------------------
class TestFleetAttribution:
    def test_balanced_shares_pass(self):
        assert check_fleet_attribution(100.0, [40.0, 50.0], 10.0, 5.0) == []

    def test_leaked_share_trips(self):
        found = check_fleet_attribution(100.0, [40.0, 50.0], 0.0, 5.0)
        assert names(found) == {"fleet.cost_shares"}

    def test_zero_cost_fleet_passes(self):
        assert check_fleet_attribution(0.0, [], 0.0, 5.0) == []


class TestOccupancyIntegral:
    def test_completed_killed_and_inflight_attempts(self):
        monitor = Monitor()
        monitor.record_dispatch("a", "s0", "vm-1", 10.0, 0.0, 0.0)
        monitor.record_complete("a", 25.0)  # 15 s
        monitor.record_dispatch("b", "s0", "vm-1", 10.0, 0.0, 0.0)
        monitor.record_kill("b", 20.0)  # 10 s
        monitor.record_dispatch("b", "s0", "vm-2", 21.0, 0.0, 0.0)  # elsewhere
        monitor.record_dispatch("c", "s0", "vm-1", 25.0, 0.0, 0.0)  # in flight
        assert occupancy_integral(monitor, "vm-1", 30.0) == pytest.approx(
            15.0 + 10.0 + 5.0
        )
        assert occupancy_integral(monitor, "vm-2", 30.0) == pytest.approx(9.0)
        assert occupancy_integral(monitor, "vm-9", 30.0) == 0.0


# ----------------------------------------------------------------------
# violation plumbing
# ----------------------------------------------------------------------
class TestViolation:
    def test_to_json_round_trips(self):
        v = Violation("pool.free_slot_index", 12.5, "drift", {"x": 1})
        assert v.to_json() == {
            "invariant": "pool.free_slot_index",
            "time": 12.5,
            "message": "drift",
            "context": {"x": 1},
        }

    def test_invariant_error_carries_violation(self):
        v = Violation("billing.undercharged", 3.0, "short by one unit")
        err = InvariantError(v)
        assert err.violation is v
        assert "billing.undercharged" in str(err)
        assert isinstance(err, AssertionError)


# ----------------------------------------------------------------------
# property: timed assign/release bookkeeping stays consistent
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # which task slot
            st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
        ),
        max_size=30,
    )
)
@settings(max_examples=100)
def test_random_assign_release_keeps_pool_invariants(ops):
    """Any legal timed assign/release interleaving leaves the pool clean
    and accrues exactly the hand-tracked busy integral."""
    pool = make_pool(slots=4)
    inst = running_instance(pool)
    now = 0.0
    expected_busy = 0.0
    held: dict[str, float] = {}
    for slot, dt in ops:
        now += dt
        task = f"task-{slot}"
        if task in held:
            inst.release(task, now)
            expected_busy += now - held.pop(task)
        else:
            inst.assign(task, now)
            held[task] = now
    assert check_pool_slots(pool, now) == []
    assert inst.busy_slot_seconds == pytest.approx(expected_busy)
