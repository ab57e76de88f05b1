"""Tests for the framework master's task lifecycle tracking."""

from __future__ import annotations

import pytest

from repro.engine import FrameworkMaster, TaskExecState


@pytest.fixture
def master(diamond):
    return FrameworkMaster(diamond)


def drive_to_completion(master, task_id):
    master.mark_dispatched(task_id)
    master.mark_executing(task_id)
    master.mark_staging_out(task_id)
    return master.mark_completed(task_id)


class TestInitialState:
    def test_roots_ready_rest_blocked(self, master):
        assert master.state("a") is TaskExecState.READY
        for tid in ("b", "c", "d"):
            assert master.state(tid) is TaskExecState.BLOCKED

    def test_initially_ready(self, master):
        assert master.initially_ready() == ("a",)

    def test_counts(self, master):
        assert master.count(TaskExecState.READY) == 1
        assert master.count(TaskExecState.BLOCKED) == 3


class TestLifecycle:
    def test_full_path(self, master):
        newly = drive_to_completion(master, "a")
        assert newly == ["b", "c"]
        assert master.state("a") is TaskExecState.COMPLETED

    def test_join_waits_for_all_parents(self, master):
        drive_to_completion(master, "a")
        assert drive_to_completion(master, "b") == []
        assert master.state("d") is TaskExecState.BLOCKED
        assert drive_to_completion(master, "c") == ["d"]

    def test_is_done(self, master):
        for tid in ("a", "b", "c", "d"):
            assert not master.is_done()
            drive_to_completion(master, tid)
        assert master.is_done()

    def test_attempts_counted(self, master):
        assert master.attempts("a") == 0
        master.mark_dispatched("a")
        assert master.attempts("a") == 1

    def test_invalid_transition_rejected(self, master):
        with pytest.raises(RuntimeError, match="expected"):
            master.mark_executing("a")  # never dispatched
        with pytest.raises(RuntimeError):
            master.mark_completed("a")

    def test_dispatch_blocked_rejected(self, master):
        with pytest.raises(RuntimeError):
            master.mark_dispatched("d")


class TestKill:
    def test_kill_requeues(self, master):
        master.mark_dispatched("a")
        master.mark_executing("a")
        master.mark_killed("a")
        assert master.state("a") is TaskExecState.READY
        # A second attempt is allowed.
        master.mark_dispatched("a")
        assert master.attempts("a") == 2

    def test_kill_during_staging(self, master):
        master.mark_dispatched("a")
        master.mark_killed("a")
        assert master.state("a") is TaskExecState.READY

    def test_kill_ready_rejected(self, master):
        with pytest.raises(RuntimeError):
            master.mark_killed("a")


class TestQueries:
    def test_in_flight(self, master):
        master.mark_dispatched("a")
        assert master.in_flight_tasks() == ["a"]

    def test_unstarted_in_stage(self, master, diamond):
        stage = diamond.stage_of["a"]
        assert master.unstarted_in_stage(stage) == ["a"]
        master.mark_dispatched("a")
        assert master.unstarted_in_stage(stage) == []

    def test_stage_completed(self, master, diamond):
        stage = diamond.stage_of["a"]
        assert not master.stage_completed(stage)
        drive_to_completion(master, "a")
        assert master.stage_completed(stage)

    def test_occupies_slot_property(self):
        assert TaskExecState.EXECUTING.occupies_slot
        assert TaskExecState.STAGING_IN.occupies_slot
        assert not TaskExecState.READY.occupies_slot
        assert not TaskExecState.COMPLETED.occupies_slot


class TestStateCountsDifferential:
    """``state_counts`` against a per-task tally, on every state a run
    passes through."""

    @staticmethod
    def tally(master) -> dict[TaskExecState, int]:
        counts = dict.fromkeys(TaskExecState, 0)
        for task_id in master.workflow.tasks:
            counts[master.state(task_id)] += 1
        return counts

    def test_every_state_keyed_in_enum_order(self, master):
        drive_to_completion(master, "a")
        master.mark_dispatched("b")
        master.mark_executing("b")
        master.mark_dispatched("c")
        counts = master.state_counts()
        assert list(counts) == list(TaskExecState)
        assert counts == self.tally(master)
        assert counts[TaskExecState.COMPLETED] == 1
        assert counts[TaskExecState.STAGING_OUT] == 0

    def test_matches_tally_at_every_tick_of_a_chaos_run(self):
        from repro.autoscalers import WireAutoscaler
        from repro.cloud import exogeni_site
        from repro.cloud.faults import parse_chaos_spec
        from repro.engine import Simulation
        from repro.workloads import table1_specs

        seen = []
        tally = self.tally

        class Checking(WireAutoscaler):
            def plan(self, obs):
                seen.append((obs.master.state_counts(), tally(obs.master)))
                return super().plan(obs)

        Simulation(
            table1_specs()["genome-S"].generate(0),
            exogeni_site(),
            Checking(),
            60.0,
            seed=0,
            chaos=parse_chaos_spec("revocations=2,stragglers=0.2"),
        ).run()
        assert len(seen) >= 5
        for fast, reference in seen:
            assert fast == reference
        assert any(fast[TaskExecState.EXECUTING] for fast, _ in seen)
