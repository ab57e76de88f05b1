"""The benchmark's four workloads and the checks on their outputs.

Each workload turns ``--seed`` into its inputs, builds what it needs in
:meth:`Workload.setup` (imports, catalog, warm-up), and then runs whole
*passes*: a fixed list of runs, one after another, in this process
(closed loop, one client). A run is one simulation — a single run, a
campaign cell or a fleet run — and yields a :class:`Run` carrying its
host seconds and a digest of its simulated summary. ``run_pass(rec)``
with a :class:`~spans.SpanRecorder` opens one ``bench.run`` root span per
run, so spans of one run share its run id.

The digests are checked against ``reference.json`` (regenerate it with
``make_reference.py``) at the committed seeds, and every workload adds
its own cross-checks (:meth:`Workload.check`).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import repro.checkpoint
from repro.autoscalers import WireAutoscaler
from repro.cloud.faults import parse_chaos_spec
from repro.cloud.site import exogeni_site
from repro.engine.simulator import Simulation
from repro.experiments.campaign import CampaignStore, missing_cells, record_from_result
from repro.experiments.executors import ProcessBackend
from repro.experiments.harness import (
    CHARGING_UNITS,
    default_transfer_model,
    policy_factories,
    run_setting,
)
from repro.experiments.parallel import run_campaign_parallel
from repro.fleet.harness import fleet_workload_catalog, make_arrivals, run_fleet
from repro.telemetry import JsonlSink, Tracer
from repro.validate.checker import InvariantChecker
from repro.workloads import table1_specs

from spans import SpanRecorder

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class Run:
    """One finished (or failed) run of a pass."""

    run_id: str
    seconds: float
    digest: str = ""
    #: engine events; None where the pass cannot see them (pool workers)
    events: int | None = 0
    units: float = 0.0
    makespan: float = 0.0
    error: str | None = None
    #: per-run counters the runner adds to the per-layer metrics
    counters: dict | None = None

    def fail(self, why: str) -> None:
        if self.error is None:
            self.error = why


def digest(*fields: object) -> str:
    """Short stable hash of a simulated summary."""
    text = "|".join(str(f) for f in fields)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def result_digest(r) -> str:
    """Digest of a single run's :class:`~repro.engine.simulator.RunResult`."""
    return digest(
        r.makespan.hex(), r.total_units, r.total_cost.hex(),
        r.utilization.hex(), r.restarts, r.events_processed, r.completed,
    )


def record_digest(r) -> str:
    """Digest of one campaign :class:`~repro.experiments.campaign.CellRecord`."""
    return digest(
        r.makespan.hex(), r.total_units, r.total_cost.hex(),
        r.utilization.hex(), r.restarts, r.peak_instances, r.completed,
    )


def _timed(
    rec: SpanRecorder | None,
    run_id: str,
    fn: Callable[[], object],
    summarize: Callable[[object], Run],
) -> Run:
    """One run: ``fn`` host-timed (spanned when traced), then its result
    summarized outside the timing. A raised exception fails the run."""
    if rec is not None:
        rec.run_id += 1
    t0 = time.perf_counter()
    try:
        out = rec.timed("bench.run", fn) if rec is not None else fn()
        seconds = time.perf_counter() - t0
        run = summarize(out)
    except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
        return Run(run_id, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    run.run_id = run_id
    run.seconds = seconds
    return run


def _single(r) -> Run:
    """Summary of one :class:`~repro.engine.simulator.RunResult`."""
    run = Run("", 0.0, result_digest(r), r.events_processed, r.total_units, r.makespan)
    if not r.completed:
        run.fail("run did not complete")
    return run


class Workload:
    """Base: seed, scratch directory and the reference digests."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.site = exogeni_site()
        self.workers = 1

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, rec: SpanRecorder | None = None) -> list[Run]:
        """The pass the timed window repeats."""
        raise NotImplementedError

    def profile_pass(self, rec: SpanRecorder | None = None) -> list[Run]:
        """The pass the traced run profiles (and its untraced twin)."""
        return self.run_pass(rec)

    def check(self, passes: list[list[Run]]) -> list[str]:
        """Cross-checks after the window; marks failing runs, returns notes."""
        return []

    def events_per_pass(self) -> int | None:
        """Engine events in one pass, where runs cannot report them."""
        return None

    def reference(self) -> dict | None:
        """The committed digests for this workload at this seed, if any."""
        table = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
        return table.get(self.name, {}).get(str(self.seed))


def check_reference(workload: Workload, runs: list[Run]) -> bool:
    """Mark runs whose digest differs from the committed one.

    Returns whether a reference exists for this seed.
    """
    ref = workload.reference()
    if ref is None:
        return False
    ids = digest(*(r.run_id for r in runs))
    if ids != ref["run_ids"]:
        for run in runs:
            run.fail("run list differs from the reference")
        return True
    for run, expected in zip(runs, ref["digests"].split()):
        if run.digest != expected:
            run.fail(f"summary {run.digest} != reference {expected}")
    return True


# ----------------------------------------------------------------------
# single-genome
# ----------------------------------------------------------------------
class SingleGenome(Workload):
    """genome-L × {wire, full-site} × u ∈ {60, 3600} s, in-process."""

    name = "single-genome"
    SETTINGS = tuple((p, u) for p in ("wire", "full-site") for u in (60.0, 3600.0))

    def setup(self) -> None:
        specs = table1_specs()
        self.spec = specs["genome-L"]
        self.factories = policy_factories(self.site)
        warm = specs["genome-S"].generate(self.seed)
        run_setting(warm, self.factories["wire"], 60.0, seed=self.seed, site=self.site)

    def _one(self, policy: str, u: float):
        workflow = self.spec.generate(self.seed)
        return run_setting(workflow, self.factories[policy], u, seed=self.seed, site=self.site)

    def run_pass(self, rec=None) -> list[Run]:
        return [
            _timed(rec, f"genome-L/{p}/u{u:g}", lambda p=p, u=u: self._one(p, u), _single)
            for p, u in self.SETTINGS
        ]


# ----------------------------------------------------------------------
# paper-matrix
# ----------------------------------------------------------------------
def _timed_call(pair, task):
    """Pool-side worker: the campaign's worker plus its host seconds."""
    worker, context = pair
    t0 = time.perf_counter()
    value = worker(context, task)
    return value, time.perf_counter() - t0


class TimedProcessBackend(ProcessBackend):
    """The process backend, reporting each cell's worker seconds and the
    pool's retry and failure counts to the parent."""

    def __init__(self, jobs: int) -> None:
        super().__init__(jobs)
        self.cell_seconds: dict[int, float] = {}
        self.cells = self.retries = self.failed = 0

    def run(self, worker, tasks, *, context=None, max_attempts=1, on_result=None):
        def unwrap(outcome):
            self.cells += 1
            self.retries += max(outcome.attempts - 1, 0) + outcome.crashes
            if outcome.ok:
                outcome.value, self.cell_seconds[outcome.index] = outcome.value
            else:
                self.failed += 1
            if on_result is not None:
                on_result(outcome)

        return super().run(
            _timed_call,
            tasks,
            context=(worker, context),
            max_attempts=max_attempts,
            on_result=unwrap,
        )


class PaperMatrix(Workload):
    """The Fig 5 matrix through ``run_campaign_parallel`` on the process
    backend; checked cell by cell against a serial store."""

    name = "paper-matrix"
    WORKFLOWS = ("tpch1", "tpch6", "pagerank")

    def setup(self) -> None:
        self.specs = {
            name: spec
            for name, spec in table1_specs().items()
            if name.split("-")[0] in self.WORKFLOWS
        }
        self.factories = policy_factories(self.site)
        self.seeds = tuple(3 * self.seed + k for k in range(3))
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.keys = missing_cells(
            CampaignStore(self.workdir / "absent.json"),
            self.specs, self.factories, CHARGING_UNITS, self.seeds,
        )
        self._stores = 0
        #: serialized stores of every pass, by backend
        self.store_bytes: dict[str, set[bytes]] = {"process": set(), "serial": set()}
        self._serial_runs: list[Run] | None = None
        self.last_backend: TimedProcessBackend | None = None
        # warm-up: start a pool and run two small cells through it
        store = CampaignStore(self.workdir / "warmup.json")
        run_campaign_parallel(
            store, {"tpch6-S": self.specs["tpch6-S"]},
            {"wire": self.factories["wire"]}, (60.0,), self.seeds[:2],
            site=self.site, backend=TimedProcessBackend(self.workers),
        )

    def _fresh_store(self) -> CampaignStore:
        self._stores += 1
        return CampaignStore(self.workdir / f"store-{self._stores}.json")

    def _take(self, store: CampaignStore, backend: str) -> None:
        self.store_bytes[backend].add(store.path.read_bytes())
        store.path.unlink()

    def run_pass(self, rec=None) -> list[Run]:
        """One process-backend campaign; a run is a cell."""
        store = self._fresh_store()
        backend = TimedProcessBackend(self.workers)
        _, _, failed = run_campaign_parallel(
            store, self.specs, self.factories, CHARGING_UNITS, self.seeds,
            site=self.site, backend=backend,
        )
        self.last_backend = backend
        errors = {f.key: f.error for f in failed}
        runs = []
        for i, key in enumerate(self.keys):
            run = Run(self._cell_id(key), backend.cell_seconds.get(i, 0.0), events=None)
            if key in errors:
                run.fail(errors[key])
            else:
                self._fill(run, store.get(key))
            runs.append(run)
        self._take(store, "process")
        return runs

    def profile_pass(self, rec=None) -> list[Run]:
        """The same cells run serially in this process, so spans stay
        here: ``run_setting`` per cell into a store saved once at the end."""
        store = self._fresh_store()
        runs = []
        for key in self.keys:
            def cell(key=key):
                result = run_setting(
                    self.specs[key.workflow], self.factories[key.policy],
                    key.charging_unit, seed=key.seed, site=self.site,
                )
                record = record_from_result(key, result)
                store.put(record)
                return record, result.events_processed

            runs.append(_timed(rec, self._cell_id(key), cell, self._summarize))
        store.save()
        self._take(store, "serial")
        if self._serial_runs is None:
            self._serial_runs = runs
        return runs

    @staticmethod
    def _cell_id(key) -> str:
        return f"{key.workflow}/{key.policy}/u{key.charging_unit:g}/s{key.seed}"

    @classmethod
    def _summarize(cls, out) -> Run:
        record, events = out
        run = Run("", 0.0, events=events)
        cls._fill(run, record)
        return run

    @staticmethod
    def _fill(run: Run, record) -> None:
        run.digest = record_digest(record)
        run.units = record.total_units
        run.makespan = record.makespan
        if not record.completed:
            run.fail("cell did not complete")

    def events_per_pass(self) -> int | None:
        if self._serial_runs is None:
            return None
        return sum(r.events or 0 for r in self._serial_runs)

    def check(self, passes: list[list[Run]]) -> list[str]:
        """Every process-backend store must be byte-equal to the serial
        one, and every cell equal to its serial twin."""
        if self._serial_runs is None:
            self.profile_pass()
        by_id = {r.run_id: r for r in self._serial_runs}
        for runs in passes:
            for run in runs:
                ref = by_id.get(run.run_id)
                if ref is None or ref.error is not None or ref.digest != run.digest:
                    run.fail("cell differs from the serial run")
        notes = []
        if len(self.store_bytes["serial"]) != 1:
            notes.append("serial stores differ between passes")
        if self.store_bytes["process"] != self.store_bytes["serial"]:
            notes.append("process-backend store is not byte-equal to the serial store")
        for note in notes:
            for runs in passes:
                for run in runs:
                    run.fail(note)
        return notes


# ----------------------------------------------------------------------
# fleet-bursty
# ----------------------------------------------------------------------
class FleetBursty(Workload):
    """48 tenants in bursts of 3 every 1200 s, fair-share, u = 900 s."""

    name = "fleet-bursty"
    AUTOSCALERS = ("global-wire", "global-static")

    def setup(self) -> None:
        self.catalog = fleet_workload_catalog()
        self.arrivals = make_arrivals("bursty", n=48, burst_size=3, gap=1200.0)
        warm = make_arrivals("bursty", n=6, burst_size=3, gap=1200.0)
        run_fleet(arrivals=warm, seed=self.seed, workload_catalog=self.catalog)

    def _one(self, autoscaler: str):
        return run_fleet(
            arrivals=self.arrivals, policy="fair-share", autoscaler=autoscaler,
            charging_unit=900.0, seed=self.seed, workload_catalog=self.catalog,
        )

    @staticmethod
    def _summarize(r) -> Run:
        run = Run("", 0.0, digest(r.to_summary_json()), r.events_processed,
                  r.total_units, r.makespan)
        if not r.completed:
            run.fail("fleet did not complete")
        return run

    def run_pass(self, rec=None) -> list[Run]:
        return [
            _timed(rec, f"fleet48/{a}", lambda a=a: self._one(a), self._summarize)
            for a in self.AUTOSCALERS
        ]


# ----------------------------------------------------------------------
# observed-genome
# ----------------------------------------------------------------------
class ObservedGenome(Workload):
    """genome-L/wire/u60 with a JSONL trace, the invariant checker, chaos
    and checkpoints: one straight run, and one run cut at a mid-run
    checkpoint and resumed from it."""

    name = "observed-genome"
    CHAOS = "revocations=2,stragglers=0.2"
    CHECKPOINT_EVERY = 5
    #: the interrupted run stops at the checkpoint of this tick
    CUT_TICK = 10

    def setup(self) -> None:
        specs = table1_specs()
        self.spec = specs["genome-L"]
        self.chaos = parse_chaos_spec(self.CHAOS)
        # warm-up: the same path on genome-S, checkpoint and resume
        sim = self._sim(specs["genome-S"], "warmup.jsonl")
        sim.run(checkpoint_every=1, checkpoint_path=self.workdir / "warmup.ckpt",
                stop_after_checkpoint=True)
        sim.tracer.close()
        resumed = repro.checkpoint.load_checkpoint(self.workdir / "warmup.ckpt")
        resumed.run()
        resumed.tracer.close()

    def _sim(self, spec, trace_name: str) -> Simulation:
        return Simulation(
            spec.generate(self.seed), self.site, WireAutoscaler(), 60.0,
            transfer_model=default_transfer_model(), seed=self.seed,
            tracer=Tracer(JsonlSink(self.workdir / trace_name)),
            chaos=self.chaos, validate=InvariantChecker(mode="collect"),
        )

    @staticmethod
    def _summarize(out) -> Run:
        sim, result, trace = out
        run = _single(result)
        found = len(sim.validator.violations)
        run.counters = {
            "telemetry.bytes": trace.stat().st_size,
            "validate.violations": found,
        }
        if found:
            run.fail(f"{found} invariant violations")
        return run

    def _straight(self, trace: Path):
        sim = self._sim(self.spec, trace.name)
        result = sim.run(checkpoint_every=self.CHECKPOINT_EVERY,
                         checkpoint_path=self.workdir / "straight.ckpt")
        sim.tracer.close()
        return sim, result, trace

    def _resumed(self, trace: Path):
        cut = self.workdir / "cut.ckpt"
        sim = self._sim(self.spec, trace.name)
        if sim.run(checkpoint_every=self.CUT_TICK, checkpoint_path=cut,
                   stop_after_checkpoint=True) is not None:
            raise RuntimeError(f"run finished before tick {self.CUT_TICK}; nothing to resume")
        sim.tracer.close()
        sim = repro.checkpoint.load_checkpoint(cut)
        result = sim.run(checkpoint_every=self.CHECKPOINT_EVERY,
                         checkpoint_path=self.workdir / "resumed.ckpt")
        sim.tracer.close()
        return sim, result, trace

    def run_pass(self, rec=None) -> list[Run]:
        straight = self.workdir / "straight.jsonl"
        resumed = self.workdir / "resumed.jsonl"
        runs = [
            _timed(rec, "genome-L/wire/u60/observed",
                   lambda: self._straight(straight), self._summarize),
            _timed(rec, "genome-L/wire/u60/observed-resumed",
                   lambda: self._resumed(resumed), self._summarize),
        ]
        # the resumed run must equal the straight-through run, trace included
        if runs[1].digest != runs[0].digest:
            runs[1].fail("resumed run differs from the straight-through run")
        elif straight.exists() and resumed.exists():
            if straight.read_bytes() != resumed.read_bytes():
                runs[1].fail("resumed trace differs from the straight-through trace")
        for path in (straight, resumed):
            path.unlink(missing_ok=True)
        return runs


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SingleGenome, PaperMatrix, FleetBursty, ObservedGenome)
}
