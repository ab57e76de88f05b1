"""Engine-level tests for cloud-fault injection (ChaosSpec wiring).

Most scenarios install a *scripted* injector so each fault fires at an
exact, hand-computable time; the real :class:`ChaosInjector` is
exercised by the determinism tests at the bottom and by the property
suite (test_cloud_fault_properties.py).
"""

from __future__ import annotations

import pytest

from repro.cloud.faults import NO_CHAOS, ChaosSpec, RetryPolicy
from repro.engine import ScalingDecision, Simulation
from repro.engine.control import Autoscaler, TerminationOrder
from repro.engine.events import EventKind
from repro.workloads import chain_workflow, single_stage_workflow


class ScriptedInjector:
    """ChaosInjector stand-in whose draws are fixed lists, not random.

    Each draw pops the next scripted value; an exhausted list yields the
    benign outcome (no straggler, no revocation, "ok", no blackout).
    """

    def __init__(self, spec, *, stragglers=(), revocations=(), outcomes=(),
                 blackouts=()):
        self.spec = spec
        self._stragglers = list(stragglers)
        self._revocations = list(revocations)
        self._outcomes = list(outcomes)
        self._blackouts = list(blackouts)

    def straggler_factor(self):
        return self._stragglers.pop(0) if self._stragglers else 1.0

    def revocation_delay(self):
        return self._revocations.pop(0) if self._revocations else None

    def provision_outcome(self, now):
        return self._outcomes.pop(0) if self._outcomes else "ok"

    def blackout(self):
        return self._blackouts.pop(0) if self._blackouts else False


#: any enabled spec: the simulator only wires chaos when spec.enabled
ENABLED = ChaosSpec(revocation_rate=1e-9)


def script(sim: Simulation, **draws) -> Simulation:
    """Replace the simulation's injector with a scripted one."""
    assert sim._chaos_injector is not None, "pass an enabled ChaosSpec"
    sim._chaos_injector = ScriptedInjector(sim.chaos, **draws)
    return sim


class GrowOnce(Autoscaler):
    """Launches ``extra`` instances at the first tick, then rests."""

    name = "grow-once"

    def __init__(self, extra: int) -> None:
        self.extra = extra
        self.fired = False

    def initial_pool_size(self, site) -> int:
        return 1

    def plan(self, obs) -> ScalingDecision:
        if self.fired:
            return ScalingDecision()
        self.fired = True
        return ScalingDecision(launch=self.extra)


class Recorder(Autoscaler):
    """Static pool of 1 that records every observation it is handed."""

    name = "recorder"

    def __init__(self) -> None:
        self.seen: list[tuple[float, float, bool]] = []

    def initial_pool_size(self, site) -> int:
        return 1

    def plan(self, obs) -> ScalingDecision:
        self.seen.append((obs.now, obs.window_start, obs.monitor_blackout))
        return ScalingDecision()


class TestRevocation:
    def test_revocation_kills_requeues_and_completes(
        self, small_site, fixed_pool
    ):
        # 4 x 100s tasks fill both 2-slot instances at t=0; the first
        # instance is revoked at t=50, mid-flight.
        wf = single_stage_workflow(4, runtime=100.0)
        sim = script(
            Simulation(wf, small_site, fixed_pool(2), 60.0, chaos=ENABLED),
            revocations=[50.0],
        )
        result = sim.run()
        assert result.completed
        assert result.cloud_faults["revocations"] == 1
        assert result.cloud_faults["revocation_task_kills"] == 2
        assert result.restarts == 2
        # The two killed tasks rerun on the surviving instance once its
        # own tasks finish at t=100.
        assert result.makespan == pytest.approx(200.0)

    def test_billing_stops_at_revocation_boundary(self, small_site, fixed_pool):
        wf = single_stage_workflow(4, runtime=100.0)
        sim = script(
            Simulation(wf, small_site, fixed_pool(2), 60.0, chaos=ENABLED),
            revocations=[50.0],
        )
        result = sim.run()
        revoked = [i for i in sim.pool if i.revoked]
        assert len(revoked) == 1
        assert revoked[0].terminated_at == pytest.approx(50.0)
        assert revoked[0].uptime(result.makespan) == pytest.approx(50.0)
        # ceil(50/60)=1 unit for the revoked instance, ceil(200/60)=4 for
        # the survivor: a non-capped boundary would bill 4+4.
        assert result.total_units == 5

    def test_stale_completion_never_fires(self, small_site, fixed_pool):
        # Regression: the revoked instance's occupants have EXEC/STAGE
        # completion events queued for t=100; revocation at t=50 must
        # cancel them, or the kill would be followed by a ghost
        # completion of a task that no longer occupies any slot.
        wf = single_stage_workflow(4, runtime=100.0)
        sim = script(
            Simulation(wf, small_site, fixed_pool(2), 60.0, chaos=ENABLED),
            revocations=[50.0],
        )
        result = sim.run()
        for task in wf.tasks.values():
            attempts = sim.monitor.attempts(task.task_id)
            completed = [a for a in attempts if a.is_completed]
            assert len(completed) == 1, task.task_id
            # a completed attempt can never also be the killed one
            assert all(not a.is_completed or not a.is_killed for a in attempts)
        assert result.makespan == pytest.approx(200.0)

    def test_planned_release_retracts_revocation(self, small_site, fixed_pool):
        # The instance would be revoked at t=1000, but the run (20s of
        # work) releases everything long before: the revocation must be
        # retracted, not fire on a terminated instance.
        wf = single_stage_workflow(2, runtime=20.0)
        sim = script(
            Simulation(wf, small_site, fixed_pool(1), 60.0, chaos=ENABLED),
            revocations=[1000.0],
        )
        result = sim.run()
        assert result.completed
        assert "revocations" not in result.cloud_faults
        assert not any(i.revoked for i in sim.pool)


class ReleaseIdleOnce(Autoscaler):
    """Pool of 2; the first tick releases every idle instance ``delay``
    seconds later."""

    name = "release-idle-once"

    def __init__(self, delay: float) -> None:
        self.delay = delay
        self.fired = False

    def initial_pool_size(self, site) -> int:
        return 2

    def plan(self, obs) -> ScalingDecision:
        if self.fired:
            return ScalingDecision()
        self.fired = True
        return ScalingDecision(
            terminations=tuple(
                TerminationOrder(i.instance_id, obs.now + self.delay)
                for i in obs.steerable_instances()
                if not i.occupants
            )
        )


def spy_on_queue(sim: Simulation) -> tuple[list, list]:
    """Record every event the run cancels and every event it pops."""
    cancelled: list = []
    popped: list = []
    cancel, pop = sim.events.cancel, sim.events.pop

    def spy_cancel(event):
        cancelled.append(event)
        cancel(event)

    def spy_pop():
        event = pop()
        popped.append(event)
        return event

    sim.events.cancel = spy_cancel
    sim.events.pop = spy_pop
    return cancelled, popped


class TestEngineHeldHandles:
    """The engine retracts the two chaos-cancellable instance events
    through the handles push returned, not through the queue."""

    def test_planned_release_retracts_pending_revocation(self, small_site):
        # one 500s task busies the first instance; the idle second one
        # is released at the first tick, while its revocation (t=300)
        # is still ahead
        wf = single_stage_workflow(1, runtime=500.0)
        sim = script(
            Simulation(wf, small_site, ReleaseIdleOnce(0.0), 60.0, chaos=ENABLED),
            revocations=[None, 300.0],
        )
        cancelled, popped = spy_on_queue(sim)
        result = sim.run()
        assert result.completed and result.makespan >= 500.0
        released = [e for e in popped if e.kind is EventKind.INSTANCE_TERMINATE]
        assert len(released) == 1
        retracted = [e for e in cancelled if e.kind is EventKind.INSTANCE_REVOKED]
        assert [(e.payload, e.time) for e in retracted] == [
            (released[0].payload, 300.0)
        ]
        assert not any(e.kind is EventKind.INSTANCE_REVOKED for e in popped)
        assert "revocations" not in result.cloud_faults
        assert sim._pending_revocation == {} and sim._draining == {}

    def test_revocation_retracts_draining_terminate(self, small_site):
        # the idle instance is ordered released at tick + 400s, but the
        # provider revokes it first (t=200)
        wf = single_stage_workflow(1, runtime=800.0)
        sim = script(
            Simulation(wf, small_site, ReleaseIdleOnce(400.0), 60.0, chaos=ENABLED),
            revocations=[None, 200.0],
        )
        cancelled, popped = spy_on_queue(sim)
        result = sim.run()
        assert result.completed
        assert result.cloud_faults["revocations"] == 1
        revoked = [e for e in popped if e.kind is EventKind.INSTANCE_REVOKED]
        assert len(revoked) == 1 and revoked[0].time == 200.0
        retracted = [e for e in cancelled if e.kind is EventKind.INSTANCE_TERMINATE]
        assert [e.payload for e in retracted] == [revoked[0].payload]
        assert retracted[0].time > 200.0
        assert not any(e.kind is EventKind.INSTANCE_TERMINATE for e in popped)
        assert sim._pending_revocation == {} and sim._draining == {}


class TestProvisioning:
    def test_failure_retries_with_backoff(self, small_site):
        wf = single_stage_workflow(8, runtime=300.0)
        spec = ChaosSpec(
            provision_failure=1e-9,
            retry=RetryPolicy(max_retries=2, backoff=30.0),
        )
        sim = script(
            Simulation(wf, small_site, GrowOnce(1), 60.0, chaos=spec),
            outcomes=["fail"],
        )
        result = sim.run()
        assert result.completed
        assert result.cloud_faults == {
            "provision_failures": 1,
            "provision_retries": 1,
        }
        # tick at t=10 orders the launch; the failure surfaces after the
        # 10s lag at t=20; backoff 30 re-orders at t=50; ready at t=60.
        replacement = [i for i in sim.pool if i.started_at == pytest.approx(60.0)]
        assert len(replacement) == 1
        assert result.peak_instances == 2

    def test_retry_budget_exhausts_to_abandoned(self, small_site):
        wf = single_stage_workflow(8, runtime=300.0)
        spec = ChaosSpec(
            provision_failure=1e-9,
            retry=RetryPolicy(max_retries=2, backoff=30.0),
        )
        sim = script(
            Simulation(wf, small_site, GrowOnce(1), 60.0, chaos=spec),
            outcomes=["fail", "fail", "fail"],
        )
        result = sim.run()
        assert result.completed  # degraded, not dead: pool of 1 finishes
        assert result.cloud_faults == {
            "provision_failures": 3,
            "provision_retries": 2,
            "provision_abandoned": 1,
        }
        assert result.peak_instances == 1

    def test_timeout_delays_readiness_by_factor(self, small_site):
        wf = single_stage_workflow(8, runtime=300.0)
        spec = ChaosSpec(provision_timeout=1e-9, provision_timeout_factor=3.0)
        sim = script(
            Simulation(wf, small_site, GrowOnce(1), 60.0, chaos=spec),
            outcomes=["timeout"],
        )
        result = sim.run()
        assert result.cloud_faults == {"provision_timeouts": 1}
        # ordered at t=10 with 10s lag: nominal ready t=20, delayed to
        # 10 + 10*3 = 40.
        late = [i for i in sim.pool if i.started_at == pytest.approx(40.0)]
        assert len(late) == 1


class TestStragglers:
    def test_straggler_stretches_execution(self, small_site, fixed_pool):
        wf = single_stage_workflow(1, runtime=10.0)
        sim = script(
            Simulation(wf, small_site, fixed_pool(1), 60.0, chaos=ENABLED),
            stragglers=[2.0],
        )
        result = sim.run()
        assert result.cloud_faults == {"stragglers": 1}
        assert result.makespan == pytest.approx(20.0)
        assert [i.slowdown for i in sim.pool] == [2.0]


class TestBlackouts:
    def test_blackout_flag_and_delayed_window(self, small_site):
        wf = chain_workflow(8, runtime=20.0)
        recorder = Recorder()
        sim = script(
            Simulation(wf, small_site, recorder, 60.0, chaos=ENABLED),
            blackouts=[False, True, True, False],
        )
        result = sim.run()
        assert result.cloud_faults["blackouts"] == 2
        # ticks land every 10s; the two starved windows are handed to the
        # first clear tick in one piece: window_start reaches back to the
        # last observed tick (t=10), not the previous tick (t=30).
        assert recorder.seen[0] == (10.0, 0.0, False)
        assert recorder.seen[1] == (20.0, 10.0, True)
        assert recorder.seen[2] == (30.0, 20.0, True)
        assert recorder.seen[3] == (40.0, 10.0, False)
        # once drained, windows return to normal width
        assert recorder.seen[4] == (50.0, 40.0, False)

    def test_blackout_dropped_records_never_reach_back(self, small_site):
        wf = chain_workflow(8, runtime=20.0)
        spec = ChaosSpec(blackout_probability=1e-9, blackout_drops=True)
        recorder = Recorder()
        sim = script(
            Simulation(wf, small_site, recorder, 60.0, chaos=spec),
            blackouts=[False, True, True, False],
        )
        sim.run()
        # dropped mode: the starved windows are lost for good, the first
        # clear tick sees only its own interval.
        assert recorder.seen[3] == (40.0, 30.0, False)


class TestDisabledPath:
    def test_no_chaos_bit_identical(self, two_stage, small_site, fixed_pool):
        from repro.engine import ExponentialTransferModel

        def run(chaos):
            return Simulation(
                two_stage,
                small_site,
                fixed_pool(2),
                60.0,
                transfer_model=ExponentialTransferModel(bandwidth=1e7),
                seed=7,
                chaos=chaos,
            ).run()

        base, none, disabled = run(None), run(NO_CHAOS), run(ChaosSpec())
        for other in (none, disabled):
            assert other.makespan == base.makespan
            assert other.total_cost == base.total_cost
            assert other.total_units == base.total_units
            assert other.restarts == base.restarts
            assert other.cloud_faults == {}


class TestDeterminism:
    SPEC = ChaosSpec(
        revocation_rate=4.0,
        provision_failure=0.3,
        provision_timeout=0.2,
        straggler_probability=0.3,
        blackout_probability=0.3,
    )

    def _run(self, seed, small_site):
        from repro.autoscalers import PureReactiveAutoscaler
        from repro.engine import ExponentialTransferModel

        return Simulation(
            single_stage_workflow(12, runtime=50.0),
            small_site,
            PureReactiveAutoscaler(),
            60.0,
            transfer_model=ExponentialTransferModel(bandwidth=1e7),
            seed=seed,
            chaos=self.SPEC,
        ).run()

    def test_same_seed_same_chaos(self, small_site):
        a, b = self._run(5, small_site), self._run(5, small_site)
        assert a.makespan == b.makespan
        assert a.total_units == b.total_units
        assert a.cloud_faults == b.cloud_faults
        assert a.restarts == b.restarts

    def test_chaos_rng_does_not_perturb_other_streams(self, small_site):
        # The chaos sub-stream is derived by label, not drawn from a
        # shared sequence — so two different enabled specs leave the
        # transfer/runtime draws alone and only fault draws differ.
        a = self._run(5, small_site)
        assert a.cloud_faults  # the aggressive spec actually injected
