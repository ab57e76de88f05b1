"""Differential-replay fuzz harness.

Sweeps a seeded grid of scenarios — all five single-workflow prediction
policies x chaos specs, and fleet runs across arrival processes x global
autoscalers x chaos — running each scenario twice: once bare and once
with a collect-mode :class:`~repro.validate.checker.InvariantChecker`
attached. Every pair must satisfy two properties:

1. **differential**: the validated run's result fingerprint is
   byte-identical to the unvalidated run's (validation is pure
   observation, like telemetry and disabled chaos);
2. **invariants**: the validated run reports zero violations.

A failing scenario dumps a minimal JSON repro — the scenario parameters
(enough to reconstruct the run from a fresh checkout), every violation,
and the two fingerprints — so a bug report is one file.

Entry points: ``python tools/invariant_fuzz.py`` and ``repro validate``
(both call :func:`main`). This module imports the experiment harnesses,
so it must never be imported from ``repro.validate.__init__`` — the
engines lazily import the checker, and pulling the harnesses in from
there would cycle.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.cloud.faults import parse_chaos_spec
from repro.experiments.harness import policy_factories, run_setting
from repro.fleet.autoscalers import fleet_autoscaler_factories
from repro.fleet.harness import make_arrivals, run_fleet
from repro.validate.checker import InvariantChecker
from repro.workloads import table1_specs

__all__ = ["Scenario", "fleet_grid", "main", "run_differential", "single_grid"]

#: chaos specs the grids cross with every policy/autoscaler: none, the
#: revocation/straggler mix, and the provisioning-fault mix (the same
#: profiles the chaos CI tier exercises)
CHAOS_SPECS: tuple[str | None, ...] = (
    None,
    "revocations=2,stragglers=0.2",
    "pfail=0.3,ptimeout=0.2,blackouts=0.1",
)

#: fixed submit times for the deterministic trace arrival process
_TRACE_TIMES: tuple[float, ...] = (0.0, 600.0, 1800.0)


@dataclass(frozen=True)
class Scenario:
    """One fuzz cell: everything needed to reconstruct the run."""

    kind: str  # "single" | "fleet"
    label: str
    seed: int = 0
    charging_unit: float = 60.0
    chaos: str | None = None
    # single-workflow parameters
    workload: str = "tpch6-S"
    policy: str = "wire"
    # fleet parameters
    arrival: str = "poisson"
    n_tenants: int = 3
    fleet_policy: str = "fair-share"
    fleet_autoscaler: str = "global-wire"

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class Outcome:
    """Result of one differential scenario run."""

    scenario: Scenario
    identical: bool
    violations: list = field(default_factory=list)
    expected: object = None
    actual: object = None

    @property
    def ok(self) -> bool:
        return self.identical and not self.violations


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------
def single_grid(
    seeds: Sequence[int], *, quick: bool = False
) -> Iterable[Scenario]:
    """All five prediction policies x chaos specs x seeds."""
    policies = list(policy_factories(include_oracle=True))
    chaos_specs = CHAOS_SPECS[:2] if quick else CHAOS_SPECS
    workloads = ("tpch6-S",) if quick else ("tpch6-S", "genome-S")
    for workload in workloads:
        for policy in policies:
            for chaos in chaos_specs:
                for seed in seeds:
                    yield Scenario(
                        kind="single",
                        label=(
                            f"single/{workload}/{policy}/"
                            f"{chaos or 'clean'}/s{seed}"
                        ),
                        workload=workload,
                        policy=policy,
                        chaos=chaos,
                        seed=seed,
                    )


def fleet_grid(
    seeds: Sequence[int], *, quick: bool = False
) -> Iterable[Scenario]:
    """Arrival processes x global autoscalers x chaos specs x seeds."""
    arrivals = ("poisson",) if quick else ("poisson", "bursty", "trace")
    autoscalers = ("global-wire",) if quick else tuple(fleet_autoscaler_factories())
    chaos_specs = CHAOS_SPECS[:2] if quick else CHAOS_SPECS
    for arrival in arrivals:
        for autoscaler in autoscalers:
            for chaos in chaos_specs:
                for seed in seeds:
                    yield Scenario(
                        kind="fleet",
                        label=(
                            f"fleet/{arrival}/{autoscaler}/"
                            f"{chaos or 'clean'}/s{seed}"
                        ),
                        arrival=arrival,
                        fleet_autoscaler=autoscaler,
                        chaos=chaos,
                        seed=seed,
                        charging_unit=900.0,
                    )


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _fingerprint_run(result) -> dict:
    """Exact (repr-level) single-run measurements, matching the golden
    engine suite's fingerprint fields."""
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
        "attempts": sum(1 for _ in result.monitor.all_attempts()),
    }


def run_scenario(scenario: Scenario, validate: object = None):
    """Execute one scenario; returns its byte-exact fingerprint."""
    chaos = (
        parse_chaos_spec(scenario.chaos)
        if scenario.chaos is not None
        else None
    )
    if scenario.kind == "single":
        specs = table1_specs()
        factory = policy_factories(include_oracle=True)[scenario.policy]
        result = run_setting(
            specs[scenario.workload],
            factory,
            scenario.charging_unit,
            seed=scenario.seed,
            chaos=chaos,
            validate=validate,
        )
        return _fingerprint_run(result)
    if scenario.kind == "fleet":
        arrivals = make_arrivals(
            scenario.arrival,
            n=scenario.n_tenants,
            times=_TRACE_TIMES if scenario.arrival == "trace" else None,
        )
        result = run_fleet(
            arrivals=arrivals,
            policy=scenario.fleet_policy,
            autoscaler=scenario.fleet_autoscaler,
            charging_unit=scenario.charging_unit,
            seed=scenario.seed,
            chaos=chaos,
            validate=validate,
        )
        # the canonical byte-deterministic rendering of a fleet run
        return result.to_summary_json()
    raise ValueError(f"unknown scenario kind {scenario.kind!r}")


def run_differential(
    scenario: Scenario, *, deep: bool = True
) -> Outcome:
    """Run one scenario bare and validated; compare byte-for-byte."""
    expected = run_scenario(scenario)
    checker = InvariantChecker(mode="collect", deep=deep)
    actual = run_scenario(scenario, validate=checker)
    return Outcome(
        scenario=scenario,
        identical=expected == actual,
        violations=list(checker.violations),
        expected=expected,
        actual=actual,
    )


def dump_repro(outcome: Outcome, repro_dir: Path) -> Path:
    """Write a minimal JSON repro for one failing scenario."""
    repro_dir.mkdir(parents=True, exist_ok=True)
    safe = outcome.scenario.label.replace("/", "_").replace("=", "-")
    path = repro_dir / f"repro_{safe}.json"
    payload = {
        "scenario": outcome.scenario.to_json(),
        "identical": outcome.identical,
        "violations": [v.to_json() for v in outcome.violations],
        "expected": outcome.expected,
        "actual": outcome.actual,
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8"
    )
    return path


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="invariant-fuzz",
        description=(
            "Differential-replay fuzzing: run seeded scenario grids "
            "validated and unvalidated, asserting byte-identical results "
            "and zero invariant violations."
        ),
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=2,
        metavar="N",
        help="number of seeds per grid cell (default 2)",
    )
    parser.add_argument(
        "--kind",
        choices=("single", "fleet", "all"),
        default="all",
        help="which grid to sweep (default all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="trim the grid (fewer workloads/arrivals/chaos specs) for "
        "fast CI gating",
    )
    parser.add_argument(
        "--shallow",
        action="store_true",
        help="check pool indexes only at controller ticks instead of "
        "after every event (faster, coarser localization)",
    )
    parser.add_argument(
        "--repro-dir",
        metavar="DIR",
        help="write a minimal JSON repro per failing scenario here",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write a JSON summary of every scenario outcome here",
    )
    args = parser.parse_args(argv)

    seeds = list(range(args.seeds))
    grid: list[Scenario] = []
    if args.kind in ("single", "all"):
        grid += list(single_grid(seeds, quick=args.quick))
    if args.kind in ("fleet", "all"):
        grid += list(fleet_grid(seeds, quick=args.quick))

    failures = 0
    summary = []
    for scenario in grid:
        outcome = run_differential(scenario, deep=not args.shallow)
        status = "ok"
        if not outcome.ok:
            failures += 1
            status = "FAIL"
            detail = []
            if not outcome.identical:
                detail.append("fingerprint drift")
            if outcome.violations:
                detail.append(f"{len(outcome.violations)} violation(s)")
            print(f"FAIL {scenario.label}: {', '.join(detail)}")
            for v in outcome.violations[:5]:
                print(f"     [{v.invariant}] t={v.time:.3f} {v.message}")
            if args.repro_dir:
                path = dump_repro(outcome, Path(args.repro_dir))
                print(f"     repro: {path}")
        summary.append(
            {
                "scenario": scenario.to_json(),
                "status": status,
                "identical": outcome.identical,
                "violations": [v.to_json() for v in outcome.violations],
            }
        )
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {
                    "scenarios": len(grid),
                    "failures": failures,
                    "results": summary,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            "utf-8",
        )
    if failures:
        print(f"FAIL: {failures}/{len(grid)} scenario(s) failed")
        return 1
    print(
        f"ok: {len(grid)} scenarios bit-identical under validation, "
        "zero violations"
    )
    return 0
