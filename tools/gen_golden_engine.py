#!/usr/bin/env python3
"""Regenerate or verify the engine's golden fingerprint files.

Two files pin exact run measurements so that engine changes can be
verified *bit-identical* (same event ordering, same FIFO/packing
tie-breaks, same float arithmetic):

- ``tests/engine/golden_engine_results.json`` — 69 single-workflow runs;
- ``tests/fleet/golden_fleet_results.json`` — 36 fleet runs: allocation
  policy x fleet autoscaler x arrival process x chaos on/off, each
  pinned by the SHA-256 of its ``to_summary_json()`` bytes (every
  per-tenant field and ``events_processed`` included).

Rewrite them only when a semantic engine change is intended and
reviewed:

    PYTHONPATH=src python tools/gen_golden_engine.py            # rewrite
    PYTHONPATH=src python tools/gen_golden_engine.py --check    # verify
    PYTHONPATH=src python tools/gen_golden_engine.py --check --traced
    PYTHONPATH=src python tools/gen_golden_engine.py --check --no-chaos
    PYTHONPATH=src python tools/gen_golden_engine.py --check --validate

``--check`` re-runs every scenario of both matrices and exits nonzero on
any fingerprint drift (the CI gate over the full matrices; the unit
suite samples a fast subset). ``--traced`` attaches a telemetry tracer to every run, proving
tracing is pure observation — fingerprints must not move. ``--no-chaos``
passes an all-disabled :class:`~repro.cloud.faults.ChaosSpec` to every
run without chaos (cells with chaos on keep their spec), proving the disabled chaos path is zero-cost — fingerprints must
not move either. ``--validate`` attaches a collect-mode runtime
invariant checker (:mod:`repro.validate`) to every run: fingerprints
must not move AND every run must report zero violations. ``--diff-out
FILE`` writes an expected-vs-actual JSON report on drift so CI can
upload it as an artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.autoscalers import (
    PureReactiveAutoscaler,
    ReactiveConservingAutoscaler,
    WireAutoscaler,
    full_site,
)
from repro.cloud import CloudSite, exogeni_site
from repro.cloud.faults import parse_chaos_spec
from repro.engine.faults import RandomFaults
from repro.engine.simulator import Simulation
from repro.experiments.harness import default_transfer_model
from repro.fleet import (
    FleetSimulation,
    allocation_policy,
    fleet_autoscaler,
    fleet_autoscaler_factories,
    fleet_workload_catalog,
    make_arrivals,
)
from repro.workloads import table1_specs

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "engine" / "golden_engine_results.json"
FLEET_OUT = ROOT / "tests" / "fleet" / "golden_fleet_results.json"

#: the single-run chaos cells: failed and timed-out provisioning
SINGLE_CHAOS = "pfail=0.4,ptimeout=0.5"
#: the chaos-on column of the fleet matrix: every fault class at once
FLEET_CHAOS = "revocations=0.5,stragglers=0.3,pfail=0.2,blackouts=0.2"


def scenarios(tracer_factory=None, chaos=None, validate_factory=None):
    """Scenario name -> Simulation factory. Covers dispatch packing,
    terminations with occupants (restarts), faults, launch jitter,
    provisioning chaos and a site without an instance floor.

    ``tracer_factory`` attaches a fresh tracer to every simulation (used
    by ``--traced`` to prove telemetry never perturbs results).
    ``chaos`` passes a ChaosSpec to every simulation (used by
    ``--no-chaos`` with a disabled spec to prove the disabled path is
    zero-cost; a chaos-on cell keeps its spec). ``validate_factory``
    attaches a fresh invariant checker to every simulation (used by
    ``--validate`` to prove checking is pure observation)."""
    site = exogeni_site()
    specs = table1_specs()
    policies = {
        "wire": lambda: WireAutoscaler(),
        "pure-reactive": lambda: PureReactiveAutoscaler(),
        "reactive-conserving": lambda: ReactiveConservingAutoscaler(),
        "full-site": lambda: full_site(site),
    }
    cases = []
    for wf_name in ("genome-S", "tpch6-S", "pagerank-S", "tpch1-S"):
        for policy_name, factory in policies.items():
            for u in (60.0, 900.0):
                for seed in (0, 1):
                    cases.append(
                        (
                            f"{wf_name}/{policy_name}/u{u:.0f}/s{seed}",
                            wf_name,
                            factory,
                            dict(charging_unit=u, seed=seed),
                        )
                    )
    # Fault-injection and launch-jitter variants exercise the kill /
    # requeue / cancellation paths.
    cases.append(
        (
            "genome-S/wire/faults",
            "genome-S",
            policies["wire"],
            dict(
                charging_unit=60.0,
                seed=3,
                fault_model=RandomFaults(probability=0.1, max_attempt=5),
            ),
        )
    )
    cases.append(
        (
            "tpch6-S/wire/jitter",
            "tpch6-S",
            policies["wire"],
            dict(charging_unit=60.0, seed=4, launch_jitter=0.5),
        )
    )
    # Provisioning chaos leaves instances PENDING at tick time, so WIRE's
    # lookahead must place them at requested_at + lag, not at now.
    provisioning = parse_chaos_spec(SINGLE_CHAOS)
    for suffix, jitter in (("chaos", 0.0), ("chaos+jitter", 0.5)):
        cases.append(
            (
                f"genome-S/wire/u60/s1/{suffix}",
                "genome-S",
                policies["wire"],
                dict(
                    charging_unit=60.0,
                    seed=1,
                    launch_jitter=jitter,
                    chaos=provisioning,
                ),
            )
        )
    # A site without a floor: pure-reactive may plan zero instances.
    cases.append(
        (
            "tpch6-S/pure-reactive/u60/s0/min0",
            "tpch6-S",
            policies["pure-reactive"],
            dict(
                charging_unit=60.0,
                seed=0,
                site=CloudSite(
                    name="exogeni-min0",
                    itype=site.itype,
                    max_instances=site.max_instances,
                    lag=site.lag,
                    min_instances=0,
                ),
            ),
        )
    )

    for name, wf_name, factory, kwargs in cases:
        seed = kwargs.get("seed", 0)
        workflow = specs[wf_name].generate(seed)
        kwargs = dict(kwargs)
        u = kwargs.pop("charging_unit")
        yield name, Simulation(
            workflow,
            kwargs.pop("site", site),
            factory(),
            u,
            transfer_model=default_transfer_model(),
            tracer=tracer_factory() if tracer_factory is not None else None,
            # a chaos-on cell keeps its spec under --no-chaos
            chaos=kwargs.pop("chaos", chaos),
            validate=validate_factory() if validate_factory is not None else None,
            **kwargs,
        )


def fleet_scenarios(tracer_factory=None, chaos=None, validate_factory=None):
    """Fleet scenario name -> FleetSimulation factory: allocation policy x
    fleet autoscaler x arrival process x chaos on/off, six tenants of the
    default workload mix on the ExoGENI site.

    The factories mean what they mean for :func:`scenarios`; ``chaos``
    replaces only the chaos-off column (a chaos-on cell keeps its spec,
    or it would no longer be the cell it names)."""
    site = exogeni_site()
    catalog = fleet_workload_catalog()
    faults = parse_chaos_spec(FLEET_CHAOS)
    for policy in ("fifo", "fair-share", "priority"):
        for autoscaler in fleet_autoscaler_factories(site):
            for arrival in ("poisson", "bursty"):
                for chaos_on in (False, True):
                    arrivals = make_arrivals(arrival, n=6, rate=12.0, burst_size=3)
                    name = (
                        f"{policy}/{autoscaler}/{arrival}/"
                        f"{'chaos' if chaos_on else 'calm'}"
                    )
                    yield name, FleetSimulation(
                        arrivals.generate(7),
                        catalog,
                        site,
                        fleet_autoscaler(autoscaler, site),
                        allocation_policy(policy),
                        900.0,
                        transfer_model=default_transfer_model(),
                        seed=7,
                        tracer=tracer_factory() if tracer_factory is not None else None,
                        chaos=faults if chaos_on else chaos,
                        validate=(
                            validate_factory() if validate_factory is not None else None
                        ),
                    )


def fleet_fingerprint(result) -> dict:
    """Exact fingerprint of one fleet run: the SHA-256 of its summary
    bytes, plus a few readable fields to make drift reports legible."""
    summary = result.to_summary_json().encode("utf-8")
    return {
        "summary_sha256": hashlib.sha256(summary).hexdigest(),
        "events_processed": result.events_processed,
        "makespan": result.makespan.hex(),
        "total_cost": result.total_cost.hex(),
    }


def fingerprint(result) -> dict:
    """Exact (repr-level) measurements of one run."""
    return {
        "makespan": result.makespan.hex(),
        "completed": result.completed,
        "total_units": result.total_units,
        "total_cost": result.total_cost.hex(),
        "wasted_seconds": result.wasted_seconds.hex(),
        "utilization": result.utilization.hex(),
        "peak_instances": result.peak_instances,
        "instances_launched": result.instances_launched,
        "restarts": result.restarts,
        "ticks": result.ticks,
        "pool_timeline_len": len(result.pool_timeline),
        "pool_timeline_tail": [
            [t.hex(), c] for t, c in result.pool_timeline[-5:]
        ],
        "attempts": sum(1 for _ in result.monitor.all_attempts()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify every scenario against the committed golden file "
        "instead of rewriting it",
    )
    parser.add_argument(
        "--traced",
        action="store_true",
        help="attach a telemetry tracer to every run (tracing must not "
        "change a single fingerprint)",
    )
    parser.add_argument(
        "--no-chaos",
        action="store_true",
        help="pass a disabled ChaosSpec to every run (the disabled chaos "
        "path must not change a single fingerprint)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="attach a collect-mode invariant checker to every run "
        "(checking must not change a single fingerprint, and every run "
        "must report zero violations)",
    )
    parser.add_argument(
        "--diff-out",
        metavar="FILE",
        help="on --check failure, write an expected-vs-actual JSON report "
        "of the drifted scenarios here (for CI artifact upload)",
    )
    args = parser.parse_args(argv)

    tracer_factory = None
    if args.traced:
        from repro.telemetry import MemorySink, Tracer

        tracer_factory = lambda: Tracer(MemorySink(maxlen=4096))  # noqa: E731

    chaos = None
    if args.no_chaos:
        from repro.cloud.faults import NO_CHAOS

        chaos = NO_CHAOS

    validate_factory = None
    if args.validate:
        from repro.validate import InvariantChecker

        validate_factory = lambda: InvariantChecker(mode="collect")  # noqa: E731

    matrices = (
        (OUT, scenarios, fingerprint),
        (FLEET_OUT, fleet_scenarios, fleet_fingerprint),
    )
    payloads = {}
    violations = {}
    for out, make, fingerprint_of in matrices:
        payload = payloads[out] = {}
        for name, sim in make(tracer_factory, chaos, validate_factory):
            payload[name] = fingerprint_of(sim.run())
            if args.validate and sim.validator.violations:
                violations[name] = sim.validator.violations
            if not args.check:
                print(f"  {name}")

    if violations:
        print(f"FAIL: {len(violations)} scenario(s) reported violations:")
        for name, found in violations.items():
            print(f"  {name}:")
            for v in found[:5]:
                print(f"    [{v.invariant}] t={v.time:.3f} {v.message}")
        return 1

    if args.check:
        payload = {}
        committed = {}
        for out, matrix in payloads.items():
            payload.update(matrix)
            committed.update(json.loads(out.read_text(encoding="utf-8")))
        drifted = [
            name
            for name in sorted(set(payload) | set(committed))
            if payload.get(name) != committed.get(name)
        ]
        mode = "untraced"
        if args.traced:
            mode = "traced"
        if args.no_chaos:
            mode += "+no-chaos"
        if args.validate:
            mode += "+validated"
        if drifted:
            print(f"FAIL: {len(drifted)} golden scenario(s) drifted ({mode}):")
            for name in drifted:
                print(f"  {name}")
            if args.diff_out:
                report = {
                    "mode": mode,
                    "drifted": {
                        name: {
                            "expected": committed.get(name),
                            "actual": payload.get(name),
                        }
                        for name in drifted
                    },
                }
                Path(args.diff_out).write_text(
                    json.dumps(report, indent=2, sort_keys=True) + "\n", "utf-8"
                )
                print(f"wrote drift report to {args.diff_out}")
            return 1
        print(f"ok: {len(payload)} golden scenarios bit-identical ({mode})")
        return 0

    for out, payload in payloads.items():
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", "utf-8")
        print(f"wrote {len(payload)} scenarios to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
