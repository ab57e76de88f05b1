"""Differential test: a one-tenant fleet is a single run.

With deterministic transfers (:class:`NoTransferModel`) the two front-ends
draw no random numbers, so their differing RNG stream labels cannot
matter: a fleet of one tenant, FIFO allocation, must reproduce the
single run of the same workflow exactly. The fleet counts one event the
single run does not — the tenant's ``WORKFLOW_ARRIVAL``.
"""

from __future__ import annotations

import pytest

from repro.autoscalers import PureReactiveAutoscaler, WireAutoscaler, full_site
from repro.cloud import exogeni_site
from repro.engine.simulator import Simulation
from repro.engine.transfer import NoTransferModel
from repro.fleet import (
    FifoPolicy,
    FleetSimulation,
    Submission,
    fleet_autoscaler,
)
from repro.workloads import table1_specs

#: (single-run policy, fleet autoscaler) pairs that size the pool alike;
#: the fleet side is built from the fleet name table
PAIRS = {
    "wire": (lambda site: WireAutoscaler(), "global-wire"),
    "full-site": (lambda site: full_site(site), "global-static"),
    "pure-reactive": (lambda site: PureReactiveAutoscaler(), "global-reactive"),
}


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("unit", [60.0, 900.0])
@pytest.mark.parametrize("workload", ["tpch1-S", "genome-S", "pagerank-S"])
def test_one_tenant_fleet_equals_single_run(workload, unit, pair):
    site = exogeni_site()
    workflow = table1_specs()[workload].generate(0)
    single_policy, fleet_policy = PAIRS[pair]
    single = Simulation(
        workflow, site, single_policy(site), unit, transfer_model=NoTransferModel()
    ).run()
    fleet = FleetSimulation(
        [Submission(tenant_id="t00", workload=workload, submit_time=0.0,
                    workflow_seed=0)],
        {workload: workflow},
        site,
        fleet_autoscaler(fleet_policy, site),
        FifoPolicy(),
        unit,
        transfer_model=NoTransferModel(),
    ).run()
    assert single.completed and fleet.completed
    assert fleet.makespan == single.makespan
    assert fleet.total_units == single.total_units
    assert fleet.total_cost == single.total_cost
    assert fleet.events_processed - 1 == single.events_processed
