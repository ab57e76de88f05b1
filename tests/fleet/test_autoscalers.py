"""Tests for the fleet-level (global) autoscalers."""

from __future__ import annotations

import pytest

from repro.autoscalers import PureReactiveAutoscaler, StaticAutoscaler
from repro.cloud import exogeni_site
from repro.cloud.faults import parse_chaos_spec
from repro.fleet import (
    GlobalWireAutoscaler,
    TraceArrivals,
    fleet_autoscaler,
    fleet_autoscaler_factories,
    run_fleet,
)
from repro.workloads import linear_stage_workflow, single_stage_workflow

#: three simultaneous wide tenants: 72 task-slots of demand at t=0
BIG_CATALOG = {"big": lambda seed: single_stage_workflow(24, 600.0)}
BIG_BURST = TraceArrivals((0.0, 0.0, 0.0), ("big",))


def _run(autoscaler, **kwargs):
    return run_fleet(
        arrivals=BIG_BURST,
        workload_catalog=dict(BIG_CATALOG),
        autoscaler=autoscaler,
        charging_unit=900.0,
        seed=0,
        **kwargs,
    )


class TestGlobalWire:
    def test_grows_beyond_one_instance_under_load(self):
        result = _run("global-wire")
        assert result.completed
        assert result.peak_instances > 1

    def test_cheaper_than_static_full_site(self):
        wire = _run("global-wire")
        static = _run("global-static")
        assert wire.total_units <= static.total_units


class _RecordingGlobalWire(GlobalWireAutoscaler):
    """Global WIRE that keeps each tick's blackout flag and decision."""

    def __init__(self) -> None:
        super().__init__()
        self.ticks = []

    def plan(self, obs):
        decision = super().plan(obs)
        self.ticks.append((obs.monitor_blackout, decision))
        return decision


class TestGlobalWireBlackout:
    """Monitor blackouts on a fleet: the shared pool holds its last-known
    model and never shrinks off stale estimates, as a single run does."""

    def _run(self, chaos):
        autoscaler = _RecordingGlobalWire()
        result = run_fleet(
            arrivals=TraceArrivals((0.0, 0.0), ("tail",)),
            workload_catalog={
                "tail": lambda seed: linear_stage_workflow(
                    [(16, 600.0), (1, 1800.0)]
                )
            },
            autoscaler=autoscaler,
            charging_unit=60.0,
            seed=1,
            chaos=parse_chaos_spec(chaos) if chaos else None,
        )
        return result, autoscaler

    def test_clear_run_shrinks(self):
        result, autoscaler = self._run("")
        assert result.completed
        assert autoscaler.blackout_ticks == 0
        assert any(d.terminations for _, d in autoscaler.ticks)

    def test_blackout_ticks_counted_and_shrinks_held(self):
        result, autoscaler = self._run("blackouts=0.5")
        assert result.completed
        dark = [d for blackout, d in autoscaler.ticks if blackout]
        assert autoscaler.blackout_ticks == len(dark)
        assert autoscaler.blackout_ticks == result.cloud_faults["blackouts"]
        assert autoscaler.blackout_ticks > 0
        assert autoscaler.blackout_holds > 0
        assert not any(d.terminations for d in dark)


class TestGlobalStatic:
    def test_holds_the_full_site(self):
        result = _run("global-static")
        assert result.completed
        assert result.peak_instances == exogeni_site().max_instances


class TestGlobalReactive:
    def test_tracks_runnable_load(self):
        result = _run("global-reactive")
        assert result.completed
        assert result.peak_instances > 1


class TestFactories:
    def test_factory_names(self):
        names = set(fleet_autoscaler_factories())
        assert names == {"global-wire", "global-static", "global-reactive"}

    def test_baselines_are_the_single_run_classes(self):
        site = exogeni_site(max_instances=5)
        static = fleet_autoscaler("global-static", site)
        reactive = fleet_autoscaler("global-reactive", site)
        assert type(static) is StaticAutoscaler
        assert static.name == "global-static"
        assert static.initial_pool_size(site) == 5
        assert type(reactive) is PureReactiveAutoscaler
        assert reactive.name == "global-reactive"

    def test_factory_builds_fresh_instances(self):
        a = fleet_autoscaler("global-wire")
        b = fleet_autoscaler("global-wire")
        assert a is not b

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown fleet autoscaler"):
            fleet_autoscaler("global-oracle")
