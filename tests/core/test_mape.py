"""Integration tests for the WIRE MAPE controller."""

from __future__ import annotations

import pytest

from repro.autoscalers import WireAutoscaler
from repro.cloud import exogeni_site
from repro.core import MapeController, WireConfig
from repro.core.runstate import PredictionPolicy, RunState, TaskEstimate
from repro.core.steering import resize_pool
from repro.engine import ExponentialTransferModel, Simulation
from repro.engine.master import TaskExecState
from repro.telemetry.records import StagePrediction, TickTelemetry
from repro.workloads import (
    linear_stage_workflow,
    single_stage_workflow,
    table1_specs,
)


class TestMapeIntegration:
    def test_scales_up_for_wide_long_stage(self, small_site):
        # 16 long tasks on a 4x2-slot site: wire should grow past 1.
        wf = single_stage_workflow(16, runtime=400.0)
        controller = MapeController()
        result = Simulation(wf, small_site, controller, 60.0).run()
        assert result.completed
        assert result.peak_instances > 1
        assert controller.diagnostics  # telemetry captured

    def test_releases_idle_instances(self, small_site):
        # A wide first stage then a single long tail task: the pool must
        # shrink back rather than bill idle instances to the end.
        wf = linear_stage_workflow([(8, 120.0), (1, 300.0)])
        result = Simulation(wf, small_site, MapeController(), 60.0).run()
        assert result.completed
        final_pool = result.pool_timeline[-1][1]
        assert final_pool <= 2

    def test_cheaper_than_static_peak(self, small_site, fixed_pool):
        wf = linear_stage_workflow([(8, 120.0), (1, 300.0)])
        wire = Simulation(wf, small_site, MapeController(), 60.0).run()
        static = Simulation(wf, small_site, fixed_pool(4), 60.0).run()
        assert wire.total_units < static.total_units

    def test_single_controller_per_run(self, small_site, diamond, two_stage):
        controller = MapeController()
        Simulation(diamond, small_site, controller, 60.0).run()
        with pytest.raises(RuntimeError, match="single run"):
            Simulation(two_stage, small_site, controller, 60.0).run()

    def test_state_size_tracked(self, small_site, two_stage):
        controller = MapeController()
        Simulation(two_stage, small_site, controller, 60.0).run()
        size = controller.state_size_bytes()
        assert size is not None and 0 < size < 16 * 1024  # paper: <= 16KB

    def test_predictor_property_guarded(self):
        with pytest.raises(RuntimeError, match="not observed"):
            MapeController().predictor


class TestBlackoutDegradation:
    """Monitor blackouts (cloud-fault injection) degrade gracefully:
    the controller holds its last-known model and never shrinks the pool
    off stale estimates."""

    def _blackout_run(self, small_site, blackout_from_tick):
        from repro.cloud.faults import ChaosSpec

        class OnOffInjector:
            """Real-injector stand-in: blackout from tick N onwards."""

            spec = ChaosSpec(blackout_probability=1e-9)

            def __init__(self) -> None:
                self.tick = 0

            def straggler_factor(self):
                return 1.0

            def revocation_delay(self):
                return None

            def provision_outcome(self, now):
                return "ok"

            def blackout(self):
                self.tick += 1
                return self.tick > blackout_from_tick

        wf = linear_stage_workflow([(8, 120.0), (1, 300.0)])
        controller = MapeController()
        sim = Simulation(
            wf, small_site, controller, 60.0, chaos=OnOffInjector.spec
        )
        sim._chaos_injector = OnOffInjector()
        return Simulation.run(sim), controller

    def test_blackout_ticks_counted_and_model_frozen(self, small_site):
        result, controller = self._blackout_run(small_site, blackout_from_tick=3)
        assert result.completed
        assert controller.blackout_ticks == result.cloud_faults["blackouts"]
        assert controller.blackout_ticks > 0

    def test_never_shrinks_on_stale_model(self, small_site):
        # Without blackouts this scenario provably shrinks (the
        # test_releases_idle_instances case); with every tick blacked
        # out, shrink decisions must be replaced by holds.
        clear, clear_ctrl = self._blackout_run(small_site, 10**9)
        assert clear_ctrl.blackout_ticks == 0
        assert any(d.terminated > 0 for d in clear_ctrl.diagnostics)

        dark, dark_ctrl = self._blackout_run(small_site, 0)
        assert dark.completed
        assert dark_ctrl.blackout_ticks > 0
        assert all(d.terminated == 0 for d in dark_ctrl.diagnostics)
        assert dark_ctrl.blackout_holds > 0


class TestConfigVariants:
    def test_lookahead_ablation_runs(self, small_site):
        wf = single_stage_workflow(8, runtime=100.0)
        controller = MapeController(WireConfig(lookahead=False))
        result = Simulation(wf, small_site, controller, 60.0).run()
        assert result.completed

    def test_wire_autoscaler_alias(self):
        assert WireAutoscaler().name == "wire"
        assert isinstance(WireAutoscaler(), MapeController)

    def test_custom_threshold_flows_through(self, small_site):
        wf = single_stage_workflow(8, runtime=100.0)
        controller = MapeController(WireConfig(restart_threshold_fraction=0.5))
        result = Simulation(wf, small_site, controller, 60.0).run()
        assert result.completed


class TestDiagnostics:
    def test_tick_telemetry_fields(self, small_site):
        wf = single_stage_workflow(8, runtime=150.0, )
        controller = MapeController()
        Simulation(
            wf,
            small_site,
            controller,
            60.0,
            transfer_model=ExponentialTransferModel(bandwidth=1e8),
        ).run()
        assert controller.diagnostics
        first = controller.diagnostics[0]
        assert first.now == pytest.approx(small_site.lag)
        assert first.pool_before >= 1
        assert first.upcoming_tasks >= 0
        assert first.policy_counts


def materialized_tick_telemetry(controller: MapeController) -> TickTelemetry:
    """The tick telemetry built the original way: materialize a
    :class:`TaskEstimate` for every task and group the incomplete ones."""
    run_state = controller._last_run_state
    upcoming = controller._last_upcoming
    target = resize_pool(
        upcoming,
        controller._last_charging_unit,
        controller._last_slots,
        tail_threshold_fraction=controller._steering.restart_threshold_fraction,
    )
    by_stage: dict[str, list[TaskEstimate]] = {}
    for estimate in run_state.estimates.values():
        if estimate.phase is TaskExecState.COMPLETED:
            continue
        by_stage.setdefault(estimate.stage_id, []).append(estimate)
    predictions = []
    for stage_id in sorted(by_stage):
        estimates = by_stage[stage_id]
        counts: dict[PredictionPolicy, int] = {}
        for estimate in estimates:
            counts[estimate.policy] = counts.get(estimate.policy, 0) + 1
        dominant = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        predictions.append(
            StagePrediction(
                stage_id=stage_id,
                model=dominant.name.lower(),
                n_tasks=len(estimates),
                mean_estimate=sum(e.exec_estimate for e in estimates)
                / len(estimates),
            )
        )
    return TickTelemetry(
        target_pool=target,
        q_task=len(upcoming),
        q_remaining=sum(upcoming),
        transfer_estimate=run_state.transfer_estimate,
        stage_predictions=tuple(predictions),
    )


class _Recording(MapeController):
    """Compares both telemetry builds on every tick of a real run.

    ``override_at`` replaces one READY or BLOCKED task's estimate of that
    tick through ``__setitem__`` before comparing, the way a test or a
    custom policy may patch a run state."""

    def __init__(self, override_at: int | None = None) -> None:
        super().__init__()
        self.override_at = override_at
        self.pairs: list[tuple[TickTelemetry, TickTelemetry]] = []
        self.overridden: list[str] = []

    def plan(self, obs):
        decision = super().plan(obs)
        estimates = self._last_run_state.estimates
        assert hasattr(estimates, "phases_map")  # the lazy mapping
        if len(self.pairs) == self.override_at:
            self._override(estimates)
        # the accessor path first: the materializing loop caches estimates
        self.pairs.append(
            (self.tick_telemetry(), materialized_tick_telemetry(self))
        )
        return decision

    def _override(self, estimates) -> None:
        phases = estimates.phases_map
        for task_id in estimates:
            if phases[task_id] in (TaskExecState.READY, TaskExecState.BLOCKED):
                break
        else:  # pragma: no cover - the chosen tick has unstarted tasks
            raise AssertionError("no unstarted task to override")
        estimates[task_id] = TaskEstimate(
            task_id=task_id,
            stage_id=self._workflow.stage_of[task_id],
            phase=phases[task_id],
            exec_estimate=12345.678,
            policy=PredictionPolicy.RUNNING_ONLY,
            remaining_occupancy=12345.678,
        )
        self.overridden.append(task_id)


class TestTickTelemetryDifferential:
    """The accessor-based tick telemetry equals the materialize-everything
    loop it replaced, field for field and bit for bit."""

    @staticmethod
    def _run(controller: MapeController) -> None:
        workflow = table1_specs()["genome-S"].generate(0)
        Simulation(workflow, exogeni_site(), controller, 60.0, seed=0).run()

    def test_lazy_state_at_every_tick_of_genome_s(self):
        controller = _Recording()
        self._run(controller)
        assert len(controller.pairs) >= 5
        for fast, reference in controller.pairs:
            assert fast == reference
        assert any(fast.stage_predictions for fast, _ in controller.pairs)

    def test_lazy_state_with_setitem_override(self):
        controller = _Recording(override_at=2)
        self._run(controller)
        assert len(controller.overridden) == 1
        fast, reference = controller.pairs[2]
        assert fast == reference
        # the override reached the telemetry: some stage mean moved to it
        untouched = _Recording()
        self._run(untouched)
        assert fast != untouched.pairs[2][0]

    def test_plain_dict_run_state(self):
        controller = MapeController()
        estimates = {
            "a": TaskEstimate("a", "s1", TaskExecState.COMPLETED, 3.0,
                              PredictionPolicy.OBSERVED, 0.0),
            "b": TaskEstimate("b", "s1", TaskExecState.READY, 4.0,
                              PredictionPolicy.MATCHED_GROUP, 6.0),
            "c": TaskEstimate("c", "s1", TaskExecState.EXECUTING, 5.0,
                              PredictionPolicy.OGD, 2.5, 2.0, "i-1"),
            "d": TaskEstimate("d", "s2", TaskExecState.BLOCKED, 0.1,
                              PredictionPolicy.COMPLETED_UNREADY, 2.1),
        }
        controller._last_run_state = RunState(
            now=60.0, transfer_estimate=1.0, estimates=estimates
        )
        controller._last_upcoming = [6.0, 2.5, 2.1]
        controller._last_charging_unit = 60.0
        controller._last_slots = 4
        telemetry = controller.tick_telemetry()
        assert telemetry == materialized_tick_telemetry(controller)
        assert [p.n_tasks for p in telemetry.stage_predictions] == [2, 1]
