"""Global pool-sizing policies for the shared-site fleet.

A fleet tick hands the policy a :class:`FleetObservation` over *all*
active tenants; every policy is an :class:`~repro.engine.control.
Autoscaler`, the contract single runs use too. The headline policy is
:class:`GlobalWireAutoscaler`: every tenant keeps its own per-stage
predictors and lookahead (the paper's §III-B components, unchanged), and
the global steering step concatenates the per-tenant ``Q_task`` forecasts
into one summed load before running Algorithms 2/3 once for the whole
site. The shared-site baselines are the single-run classes themselves:
``global-static`` is full-site and ``global-reactive`` is pure-reactive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.autoscalers.reactive import PureReactiveAutoscaler
from repro.autoscalers.static import full_site
from repro.cloud.site import CloudSite, exogeni_site
from repro.core.config import WireConfig
from repro.core.lookahead import LookaheadSimulator, VirtualInstance
from repro.core.mape import SteeringAutoscaler
from repro.core.predictor import SharedEvalCache, TaskPredictor
from repro.core.runstate import RunState
from repro.engine.control import Autoscaler, PoolObservation, ScalingDecision
from repro.engine.master import FrameworkMaster
from repro.engine.tenant import TenantRun
from repro.telemetry.records import TickTelemetry

__all__ = [
    "FleetObservation",
    "GlobalWireAutoscaler",
    "fleet_autoscaler",
    "fleet_autoscaler_factories",
]


@dataclass(kw_only=True)
class FleetObservation(PoolObservation):
    """Snapshot handed to a fleet autoscaler at a control tick.

    ``tenants`` are the *active* tenants (admitted, not finished) in
    arrival order; ``owner`` maps every scoped task id on the shared pool
    back to its ``(tenant, local_task_id)`` pair so a policy can reason
    about an instance's occupants across tenant boundaries.
    """

    tenants: tuple[TenantRun, ...]
    waiting_count: int
    owner: Mapping[str, tuple[TenantRun, str]]

    def masters(self) -> tuple[FrameworkMaster, ...]:
        return tuple(tenant.master for tenant in self.tenants)


class GlobalWireAutoscaler(SteeringAutoscaler):
    """WIRE generalized to summed predicted load over N tenants.

    Per tenant: the unmodified §III-B pipeline — observe the interval,
    rebuild the run state, project one control interval ahead. The
    projection sees (a) the real steerable instances *as this tenant
    experiences them* (one virtual host per real instance carrying its
    tasks, sized to exactly those slots) and (b) a synthetic host holding
    the tenant's fair share of the site's free capacity, so concurrent
    tenants don't all claim the same free slots in their private
    projections. The per-tenant ``Q_task`` lists are then concatenated in
    arrival order and Algorithms 2/3 run once on the summed load.
    """

    name = "global-wire"

    def __init__(self, config: WireConfig | None = None) -> None:
        super().__init__(config)
        #: tenant_id -> (predictor, lookahead); tenants bind lazily on
        #: their first observed tick and keep their models run-long
        self._states: dict[str, tuple[TaskPredictor, LookaheadSimulator]] = {}
        #: one content-addressed OGD evaluation cache for the whole
        #: fleet: tenants running the same genome at the same model state
        #: reuse each other's Policy 5 predictions across ticks
        self._shared_cache = SharedEvalCache()
        self._last_transfer = 0.0

    def _bind(self, tenant: TenantRun) -> tuple[TaskPredictor, LookaheadSimulator]:
        state = self._states.get(tenant.tenant_id)
        if state is None:
            state = (
                TaskPredictor(
                    tenant.workflow, self.config, shared_cache=self._shared_cache
                ),
                LookaheadSimulator(tenant.workflow),
            )
            self._states[tenant.tenant_id] = state
        return state

    def plan(self, obs: FleetObservation) -> ScalingDecision:
        steerable = obs.steerable_instances()
        pending = obs.pool.pending()
        slots_per_instance = obs.site.itype.slots

        # Fair split of the site's currently-free capacity across the
        # active tenants, so each private projection plans against its
        # share rather than the whole headroom. Earlier arrivals take the
        # remainder slots (deterministic).
        free_capacity = sum(i.free_slots for i in steerable) + (
            len(pending) * slots_per_instance
        )
        n = len(obs.tenants)
        shares: dict[str, int] = {}
        if n:
            base, rem = divmod(free_capacity, n)
            for pos, tenant in enumerate(obs.tenants):
                shares[tenant.tenant_id] = base + (1 if pos < rem else 0)

        upcoming_parts: list[np.ndarray] = []
        run_states: dict[str, RunState] = {}
        transfer_estimates: list[float] = []
        for tenant in obs.tenants:
            predictor, lookahead = self._bind(tenant)
            # A tenant that arrived mid-window has no data before its
            # submission; clamp the observation window to it.
            window_start = max(obs.window_start, tenant.submitted_at)
            if not obs.monitor_blackout:
                predictor.observe_interval(tenant.monitor, window_start, obs.now)
            run_state = predictor.build_run_state(
                tenant.master, tenant.monitor, obs.now
            )
            run_states[tenant.tenant_id] = run_state
            transfer_estimates.append(run_state.transfer_estimate)

            # The tenant's private view of the shared pool: each real
            # instance appears only as the slots its own tasks hold, plus
            # one synthetic host for its share of the free capacity.
            virtual: list[VirtualInstance] = []
            for instance in steerable:
                locals_here = sorted(
                    local
                    for scoped in instance.occupants
                    for owner, local in (obs.owner[scoped],)
                    if owner is tenant
                )
                if locals_here:
                    virtual.append(
                        VirtualInstance(
                            instance_id=instance.instance_id,
                            slots=len(locals_here),
                            available_at=obs.now,
                            occupants=tuple(locals_here),
                        )
                    )
            share = shares.get(tenant.tenant_id, 0)
            if share > 0:
                virtual.append(
                    VirtualInstance(
                        instance_id=f"~{tenant.tenant_id}",
                        slots=share,
                        available_at=obs.now,
                    )
                )
            load = lookahead.project(
                run_state,
                virtual,
                tenant.scheduler.snapshot(),
                horizon=obs.lag,
            )
            upcoming_parts.append(load.remaining)

        # per-tenant Q_task columns concatenated in arrival order — the
        # summed fleet load as one flat float64 vector
        upcoming = (
            np.concatenate(upcoming_parts)
            if upcoming_parts
            else np.empty(0, dtype=np.float64)
        )

        # Restart cost c_j at the charge boundary, maxed over *all*
        # occupants regardless of owning tenant: releasing an instance
        # kills every tenant's tasks on it alike.
        def estimate_of(scoped: str):
            tenant, local = obs.owner[scoped]
            return run_states[tenant.tenant_id].estimates[local]

        self._last_transfer = (
            sum(transfer_estimates) / len(transfer_estimates)
            if transfer_estimates
            else 0.0
        )
        return self._execute(obs, upcoming, steerable, len(pending), estimate_of)

    def tick_telemetry(self) -> TickTelemetry | None:
        return self._tick_telemetry(self._last_transfer)


def fleet_autoscaler_factories(
    site: CloudSite | None = None,
) -> dict[str, Callable[[], Autoscaler]]:
    """Name -> zero-arg factory for every shared-site policy on ``site``
    (default: the ExoGENI site)."""
    the_site = site or exogeni_site()

    def named(autoscaler: Autoscaler, name: str) -> Autoscaler:
        autoscaler.name = name
        return autoscaler

    return {
        GlobalWireAutoscaler.name: GlobalWireAutoscaler,
        "global-static": lambda: named(full_site(the_site), "global-static"),
        "global-reactive": lambda: named(PureReactiveAutoscaler(), "global-reactive"),
    }


def fleet_autoscaler(name: str, site: CloudSite | None = None) -> Autoscaler:
    """Instantiate a fleet policy by CLI name for ``site``."""
    factories = fleet_autoscaler_factories(site)
    try:
        return factories[name]()
    except KeyError:
        options = ", ".join(sorted(factories))
        raise ValueError(f"unknown fleet autoscaler {name!r} (options: {options})")
