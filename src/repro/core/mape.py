"""The WIRE MAPE controller.

Wires the paper's three components — task predictor, workflow simulator,
and resource-steering policy (§III-B, Figure 1) — into a single
:class:`~repro.engine.control.Autoscaler` executed once per control
interval:

- **Monitor**: harvest the previous interval's measurements
  (:meth:`TaskPredictor.observe_interval`).
- **Analyze**: rebuild the run state — conservative minimum remaining
  occupancy for every task on the wavefront.
- **Plan**: project one interval ahead with the lookahead simulator to get
  the upcoming load ``Q_task`` and per-instance restart costs.
- **Execute**: apply Algorithms 2/3 to grow or shrink the pool.

The Execute step lives in :class:`SteeringAutoscaler`, which the fleet's
:class:`~repro.fleet.autoscalers.GlobalWireAutoscaler` shares; only the
Monitor/Analyze/Plan steps differ between the two front-ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.cloud.instance import Instance
from repro.core.config import WireConfig
from repro.core.lookahead import LookaheadSimulator, VirtualInstance
from repro.core.predictor import TaskPredictor
from repro.core.runstate import PredictionPolicy, RunState, TaskEstimate
from repro.core.steering import SteeringPolicy, resize_pool, steer_inputs_for
from repro.dag.workflow import Workflow
from repro.engine.control import (
    NO_CHANGE,
    Autoscaler,
    Observation,
    PoolObservation,
    ScalingDecision,
)
from repro.engine.master import TaskExecState
from repro.telemetry.records import StagePrediction, TickTelemetry

__all__ = ["MapeController", "SteeringAutoscaler", "TickDiagnostics"]


@dataclass(frozen=True)
class TickDiagnostics:
    """What one MAPE iteration saw and decided (experiment telemetry)."""

    now: float
    upcoming_tasks: int
    target_pool: int
    pool_before: int
    launched: int
    terminated: int
    transfer_estimate: float
    policy_counts: dict[PredictionPolicy, int] = field(default_factory=dict)


class SteeringAutoscaler(Autoscaler):
    """WIRE's Execute step: Algorithms 2/3 over a projected load.

    Subclasses run the Monitor/Analyze/Plan steps in :meth:`plan` and hand
    the projected ``Q_task`` to :meth:`_execute`, which steers the pool,
    holds shrinks on monitoring-blackout ticks and keeps what
    :meth:`_tick_telemetry` needs to report the planned target.
    """

    def __init__(self, config: WireConfig | None = None) -> None:
        self.config = config or WireConfig()
        self._steering = SteeringPolicy(self.config.restart_threshold_fraction)
        # inputs of the most recent Algorithm 3 evaluation, kept so
        # tick_telemetry() can reconstruct the planned target lazily
        self._last_upcoming: list[float] | None = None
        self._last_charging_unit = 0.0
        self._last_slots = 1
        #: graceful-degradation counters under cloud-fault injection:
        #: ticks whose kickstart records were blacked out, and shrink
        #: decisions suppressed on such ticks
        self.blackout_ticks = 0
        self.blackout_holds = 0

    def _execute(
        self,
        obs: PoolObservation,
        upcoming: "Sequence[float] | np.ndarray",
        steerable: Sequence[Instance],
        pending_count: int,
        estimate_of: Callable[[str], TaskEstimate],
    ) -> ScalingDecision:
        """Grow or shrink the pool toward Algorithm 3's target for
        ``upcoming``; ``estimate_of`` resolves an occupant task id to its
        estimate for the restart cost c_j."""
        # Restart cost c_j, evaluated at the moment a release would actually
        # happen: the instance's charge boundary (Algorithm 2 frames c_j "at
        # the interval's start", but releasing at the interval start would
        # already incur the recharge Algorithm 2 exists to avoid — see
        # DESIGN.md).
        steer_inputs = steer_inputs_for(steerable, obs.billing, obs.now, estimate_of)
        self._last_upcoming = (
            upcoming.tolist() if isinstance(upcoming, np.ndarray) else list(upcoming)
        )
        self._last_charging_unit = obs.charging_unit
        self._last_slots = obs.site.itype.slots
        decision = self._steering.decide(
            now=obs.now,
            upcoming_remaining=upcoming,
            instances=steer_inputs,
            pending_count=pending_count,
            charging_unit=obs.charging_unit,
            lag=obs.lag,
            slots_per_instance=obs.site.itype.slots,
            min_instances=max(1, obs.site.min_instances),
            max_instances=obs.site.max_instances,
        )
        # Never shrink on a stale model: a blackout tick's estimates may
        # under-state remaining load, and releasing capacity it would
        # immediately re-order thrashes through the provisioning lag.
        # Growing (or holding) on last-known data is safe by comparison.
        if obs.monitor_blackout:
            self.blackout_ticks += 1
            if decision.terminations:
                self.blackout_holds += 1
                decision = NO_CHANGE
        return decision

    def _tick_telemetry(
        self,
        transfer_estimate: float,
        stage_predictions: tuple[StagePrediction, ...] = (),
    ) -> TickTelemetry | None:
        """The last tick's Algorithm 3 target and ``Q_task`` summary.

        Only reached when a trace sink is attached, so re-evaluating
        Algorithm 3 here adds nothing to untraced runs.
        """
        upcoming = self._last_upcoming
        if upcoming is None:
            return None
        return TickTelemetry(
            target_pool=resize_pool(
                upcoming,
                self._last_charging_unit,
                self._last_slots,
                tail_threshold_fraction=self._steering.restart_threshold_fraction,
            ),
            q_task=len(upcoming),
            q_remaining=sum(upcoming),
            transfer_estimate=transfer_estimate,
            stage_predictions=stage_predictions,
        )


class MapeController(SteeringAutoscaler):
    """WIRE: online-prediction-driven elastic pool control.

    One controller instance manages one workflow run; it lazily binds to
    the workflow on the first tick and refuses to be reused for another.
    """

    name = "wire"

    def __init__(self, config: WireConfig | None = None) -> None:
        super().__init__(config)
        self._predictor: TaskPredictor | None = None
        self._lookahead: LookaheadSimulator | None = None
        self._workflow: Workflow | None = None
        self._last_run_state: RunState | None = None
        #: per-tick telemetry, appended in tick order
        self.diagnostics: list[TickDiagnostics] = []

    # ------------------------------------------------------------------
    def _make_predictor(self, workflow: Workflow) -> TaskPredictor:
        """Factory hook; the oracle baseline substitutes a clairvoyant
        predictor here while reusing the whole MAPE pipeline."""
        return TaskPredictor(workflow, self.config)

    def _bind(self, workflow: Workflow) -> None:
        if self._workflow is None:
            self._workflow = workflow
            self._predictor = self._make_predictor(workflow)
            self._lookahead = LookaheadSimulator(workflow)
        elif self._workflow is not workflow:
            raise RuntimeError(
                "a MapeController instance manages a single run; create a "
                "fresh controller per workflow"
            )

    @property
    def predictor(self) -> TaskPredictor:
        """The bound task predictor (after the first tick)."""
        if self._predictor is None:
            raise RuntimeError("controller has not observed a run yet")
        return self._predictor

    # ------------------------------------------------------------------
    def plan(self, obs: Observation) -> ScalingDecision:
        self._bind(obs.workflow)
        assert self._predictor is not None and self._lookahead is not None

        # Monitor + Analyze. Under a monitoring blackout (cloud-fault
        # injection) this tick's kickstart records are missing: skip the
        # learning pass so the per-stage models and transfer estimate
        # stay at their last-known values instead of training on a
        # partial window. The engine re-offers the starved window at the
        # next clear tick (delayed-records mode) or never (dropped).
        # The run state is still rebuilt — task lifecycle state is the
        # framework master's own knowledge, not kickstart data — and
        # revoked capacity needs no special casing here: a revoked
        # instance is TERMINATED, so it has already left the steerable
        # set and its requeued tasks are back on the wavefront.
        if not obs.monitor_blackout:
            self._predictor.observe_interval(
                obs.monitor, obs.window_start, obs.now
            )
        run_state = self._predictor.build_run_state(obs.master, obs.monitor, obs.now)
        self._last_run_state = run_state

        steerable = obs.steerable_instances()
        pending = obs.pool.pending()

        # Plan: project the next interval
        if self.config.lookahead:
            virtual = [
                VirtualInstance(
                    instance_id=i.instance_id,
                    slots=i.itype.slots,
                    available_at=obs.now,
                    occupants=tuple(sorted(i.occupants)),
                )
                for i in steerable
            ]
            virtual.extend(
                VirtualInstance(
                    instance_id=i.instance_id,
                    slots=i.itype.slots,
                    available_at=i.requested_at + obs.lag,
                )
                for i in pending
            )
            load = self._lookahead.project(
                run_state, virtual, obs.queued_task_ids, horizon=obs.lag
            )
            # flat float64 Q_task column, consumed by the vectorized
            # Algorithm 3 without per-task object hops
            upcoming = load.remaining
        else:
            # Ablation: steer from the instantaneous load with no DAG
            # projection — ready/in-flight tasks only.
            load = None
            upcoming = [
                e.remaining_occupancy
                for e in run_state.wavefront()
                if e.phase is not TaskExecState.BLOCKED
            ]

        # Execute
        decision = self._execute(
            obs, upcoming, steerable, len(pending), run_state.estimates.__getitem__
        )

        self.diagnostics.append(
            TickDiagnostics(
                now=obs.now,
                upcoming_tasks=len(upcoming),
                target_pool=len(steerable)
                + len(pending)
                + decision.launch
                - len(decision.terminations),
                pool_before=len(steerable) + len(pending),
                launched=decision.launch,
                terminated=len(decision.terminations),
                transfer_estimate=run_state.transfer_estimate,
                policy_counts=run_state.policy_counts(),
            )
        )
        return decision

    # ------------------------------------------------------------------
    def tick_telemetry(self) -> TickTelemetry | None:
        """Controller detail of the last tick, for the trace layer."""
        run_state = self._last_run_state
        if run_state is None:
            return None
        by_stage = self._stage_estimates(run_state.estimates)
        predictions = []
        for stage_id in sorted(by_stage):
            estimates = by_stage[stage_id]
            counts: dict[PredictionPolicy, int] = {}
            for _, policy in estimates:
                counts[policy] = counts.get(policy, 0) + 1
            # most frequent policy wins; ties break toward the lower
            # policy number (the paper's rule order)
            dominant = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
            predictions.append(
                StagePrediction(
                    stage_id=stage_id,
                    model=dominant.name.lower(),
                    n_tasks=len(estimates),
                    mean_estimate=sum(e for e, _ in estimates) / len(estimates),
                )
            )
        return self._tick_telemetry(run_state.transfer_estimate, tuple(predictions))

    def _stage_estimates(
        self, estimates
    ) -> dict[str, list[tuple[float, PredictionPolicy]]]:
        """``(exec_estimate, policy)`` of every incomplete task, grouped by
        stage, each list in the mapping's (topological) order.

        The predictor's lazy mapping is read through its phase snapshot
        and :meth:`exec_of`, so completed tasks are skipped and no
        :class:`TaskEstimate` is built; a plain-dict run state (tests,
        custom predictors) takes the materialized loop.
        """
        by_stage: dict[str, list[tuple[float, PredictionPolicy]]] = {}
        completed = TaskExecState.COMPLETED
        phases = getattr(estimates, "phases_map", None)
        if phases is not None:
            assert self._workflow is not None
            stage_of = self._workflow.stage_of
            exec_of = estimates.exec_of
            for task_id in estimates:
                if phases[task_id] is not completed:
                    by_stage.setdefault(stage_of[task_id], []).append(
                        exec_of(task_id)
                    )
            return by_stage
        for estimate in estimates.values():
            if estimate.phase is not completed:
                by_stage.setdefault(estimate.stage_id, []).append(
                    (estimate.exec_estimate, estimate.policy)
                )
        return by_stage

    # ------------------------------------------------------------------
    def state_size_bytes(self) -> int | None:
        """Persistent controller state for the §IV-F overhead report.

        Counts what WIRE must keep *between* MAPE iterations: the
        per-stage learning models and the transfer-estimate window. The
        run-state annotations are a transient per-iteration working
        buffer rebuilt from monitoring data each tick (tracked separately
        in :meth:`working_set_bytes`); the paper's <= 16 KB claim can only
        refer to the persistent state — Genome L alone has 4005 tasks,
        whose per-task annotations would exceed 16 KB under any encoding.
        """
        if self._predictor is None:
            return 0
        return self._predictor.state_size_bytes()

    def working_set_bytes(self) -> int:
        """Transient per-iteration working buffer (run-state annotations)."""
        if self._last_run_state is None:
            return 0
        return self._last_run_state.state_size_bytes()
