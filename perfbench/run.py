"""Run one workload of the benchmark and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload single-genome --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats whole passes of the workload for ``--seconds`` and
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes for ``--seconds`` and reports the per-layer metrics and the
layer-share view. Either way every run's output is checked (see
``README.md``), a host record is printed and saved under ``.perfbench/``,
and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the benchmark exits with code 2 and prints no
result.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from spans import LAYERS  # noqa: E402

#: set-ups measured per timed run: this process plus fresh child processes
SETUP_SAMPLES = 3
#: the seed a run uses when none is given; at seeds without committed
#: digests a pass at this seed is checked against the reference instead
DEFAULT_SEED = 0

END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "runs/s",
    "sim_events_per_s": "events/s",
    "run_s.p50": "s",
    "run_s.p90": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "sim.units": "units",
    "sim.makespan_s": "sim_s",
}

PER_LAYER = {
    "workloads.generate.calls": "count",
    "workloads.generate.self_s": "s",
    "engine.init.self_s": "s",
    "engine.run.self_s": "s",
    "engine.events": "count",
    "engine.us_per_event": "us",
    "engine.events.push.calls": "count",
    "engine.events.push.self_s": "s",
    "engine.events.pop.calls": "count",
    "engine.events.pop.self_s": "s",
    "engine.scheduler.self_s": "s",
    "cloud.pool.best_dispatchable.self_s": "s",
    "engine.monitor.self_s": "s",
    "engine.transfer.calls": "count",
    "engine.transfer.self_s": "s",
    "engine.restarts": "count",
    "engine.useful_attempt_frac": "ratio",
    "cloud.instances_launched": "count",
    "cloud.wasted_s": "sim_s",
    "cloud.faults": "count",
    "core.mape.plan.calls": "count",
    "core.mape.plan.busy_s": "s",
    "core.mape.us_per_tick": "us",
    "core.predictor.observe_interval.self_s": "s",
    "core.predictor.build_run_state.self_s": "s",
    "core.lookahead.project.self_s": "s",
    "core.lookahead.project.tasks": "count",
    "core.steering.decide.self_s": "s",
    "core.steering.launches": "count",
    "core.steering.terminations": "count",
    "fleet.run.self_s": "s",
    "fleet.events": "count",
    "fleet.autoscaler.plan.calls": "count",
    "fleet.autoscaler.plan.busy_s": "s",
    "fleet.policy.choose.calls": "count",
    "fleet.policy.choose.self_s": "s",
    "telemetry.emit.calls": "count",
    "telemetry.emit.self_s": "s",
    "telemetry.bytes": "bytes",
    "validate.after_event.calls": "count",
    "validate.after_event.self_s": "s",
    "validate.violations": "count",
    "checkpoint.save.calls": "count",
    "checkpoint.save.self_s": "s",
    "checkpoint.save.bytes": "bytes",
    "checkpoint.load.self_s": "s",
    "executors.run.busy_s": "s",
    "executors.cells": "count",
    "executors.retries": "count",
    "executors.failed": "count",
    "executors.worker_busy_frac": "ratio",
    "campaign.store.save.calls": "count",
    "campaign.store.save.self_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_frac": "ratio",
    # the layer-share view: each layer's self time over the traced wall
    **{f"share.{layer}": "ratio" for layer in LAYERS},
}
#: (metric, span name, field) read straight from a pass's span aggregate
SPAN_METRICS = (
    ("workloads.generate.calls", "workloads.generate", "calls"),
    ("workloads.generate.self_s", "workloads.generate", "self"),
    ("engine.init.self_s", "engine.init", "self"),
    ("engine.run.self_s", "engine.run", "self"),
    ("engine.events.push.calls", "engine.events.push", "calls"),
    ("engine.events.push.self_s", "engine.events.push", "self"),
    ("engine.events.pop.calls", "engine.events.pop", "calls"),
    ("engine.events.pop.self_s", "engine.events.pop", "self"),
    ("engine.scheduler.self_s", "engine.scheduler", "self"),
    ("cloud.pool.best_dispatchable.self_s", "cloud.pool.best_dispatchable", "self"),
    ("engine.monitor.self_s", "engine.monitor", "self"),
    ("engine.transfer.calls", "engine.transfer", "calls"),
    ("engine.transfer.self_s", "engine.transfer", "self"),
    ("core.mape.plan.calls", "core.mape.plan", "calls"),
    ("core.mape.plan.busy_s", "core.mape.plan", "total"),
    ("core.predictor.observe_interval.self_s", "core.predictor.observe_interval", "self"),
    ("core.predictor.build_run_state.self_s", "core.predictor.build_run_state", "self"),
    ("core.lookahead.project.self_s", "core.lookahead.project", "self"),
    ("core.steering.decide.self_s", "core.steering.decide", "self"),
    ("fleet.run.self_s", "fleet.run", "self"),
    ("fleet.autoscaler.plan.calls", "fleet.autoscaler.plan", "calls"),
    ("fleet.autoscaler.plan.busy_s", "fleet.autoscaler.plan", "total"),
    ("fleet.policy.choose.calls", "fleet.policy.choose", "calls"),
    ("fleet.policy.choose.self_s", "fleet.policy.choose", "self"),
    ("telemetry.emit.calls", "telemetry.emit", "calls"),
    ("telemetry.emit.self_s", "telemetry.emit", "self"),
    ("validate.after_event.calls", "validate.after_event", "calls"),
    ("validate.after_event.self_s", "validate.after_event", "self"),
    ("checkpoint.save.calls", "checkpoint.save", "calls"),
    ("checkpoint.save.self_s", "checkpoint.save", "self"),
    ("checkpoint.load.self_s", "checkpoint.load", "self"),
)
#: counters copied from the wrappers' return-value observers and runs
COUNTER_METRICS = (
    "engine.events", "engine.restarts", "cloud.instances_launched",
    "cloud.wasted_s", "cloud.faults", "core.lookahead.project.tasks",
    "core.steering.launches", "core.steering.terminations", "fleet.events",
    "telemetry.bytes", "validate.violations", "checkpoint.save.bytes",
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="only set the workload up and print the seconds it took "
        "(the timed run starts this in fresh processes to sample set-up)",
    )
    return parser.parse_args(argv)


def _fatal(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fatal(f"no program sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import numpy
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        return _fatal(f"imported repro from {repro.__file__}, not from {SRC}")
    import suite

    if args.workload not in suite.WORKLOADS:
        return _fatal(
            f"unknown workload {args.workload!r} "
            f"(options: {', '.join(suite.WORKLOADS)})"
        )
    if args.seconds <= 0:
        return _fatal("--seconds must be positive")
    workdir = OUT / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = suite.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_here = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_here}))
            return 0
        host = _host_record(workload, args, numpy.__version__)
        if args.trace:
            correct, runs, metrics = _profile(workload, args, suite)
        else:
            correct, runs, metrics = _measure(workload, args, suite, setup_here)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _reap_children()
    failed = sum(r.error is not None for r in runs)
    for run in runs:
        if run.error is not None:
            print(f"FAILED {run.run_id}: {run.error}")
    result = {
        "correct": bool(correct and failed == 0 and runs),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in (PER_LAYER if args.trace else END_TO_END).items()
        },
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    record.write_text(json.dumps({"host": host, **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# timed run (--trace 0)
# ----------------------------------------------------------------------
def _measure(workload, args, suite, setup_here: float):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        if time.perf_counter() - start >= args.seconds:
            break
    window = time.perf_counter() - start
    notes = workload.check(passes)
    checked = _check_reference(suite, workload, passes)
    setups = [setup_here] + [_setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    runs = [r for runs in passes + checked for r in runs]
    seconds = sorted(r.seconds for p in passes for r in p)
    if any(r.events is None for r in passes[0]):
        events = workload.events_per_pass() * len(passes)
    else:
        events = sum(r.events for p in passes for r in p)
    first = passes[0]
    metrics = {
        "setup_s": statistics.median(setups),
        "runs_per_s": len(seconds) / window,
        "sim_events_per_s": events / window,
        "run_s.p50": statistics.median(seconds),
        "run_s.p90": _p90(seconds),
        "ok_frac": sum(r.error is None for r in runs) / len(runs),
        "sim.units": float(sum(r.units for r in first)),
        "sim.makespan_s": sum(r.makespan for r in first) / len(first),
    }
    _reap_children()  # peak RSS once every child has been waited for
    metrics["peak_rss_mb"] = _peak_rss_mb()
    print(
        f"# {args.workload} seed={args.seed}: {len(passes)} passes, "
        f"{len(seconds)} runs in {window:.2f} s; set-up samples "
        + ", ".join(f"{s:.3f}" for s in setups)
    )
    for note in notes:
        print(f"# check: {note}")
    _print_end_to_end(metrics, len(seconds))
    return not notes, runs, metrics


def _check_reference(suite, workload, passes: list[list]) -> list[list]:
    """Check every pass against the committed digests of its seed.

    At a seed with no committed digests, one extra pass at the default
    seed is run and checked instead, so a change to simulated results
    fails at any seed; that pass is returned to be counted as attempted.
    """
    if all([suite.check_reference(workload, runs) for runs in passes]):
        print(f"# reference digests checked at seed {workload.seed}")
        return []
    workdir = workload.workdir / "default-seed"
    workdir.mkdir()
    default = type(workload)(DEFAULT_SEED, workdir)
    default.setup()
    runs = default.run_pass()
    suite.check_reference(default, runs)
    print(
        f"# no digests committed for seed {workload.seed}: "
        f"checked a pass at seed {DEFAULT_SEED} instead"
    )
    return [runs]


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _setup_probe(args) -> float:
    """Set the workload up in a fresh interpreter; its seconds."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _print_end_to_end(metrics: dict, n: int) -> None:
    for name, unit in END_TO_END.items():
        extra = ""
        if name.startswith("run_s."):
            extra = f"  n={n} runs"
            if name == "run_s.p90" and n < 100:
                extra += ", fewer than 10 beyond the p90"
        print(f"{name:<22} {metrics[name]:>16.6g} {unit}{extra}")
    print(f"{'failed_frac':<22} {1.0 - metrics['ok_frac']:>16.6g} ratio")


# ----------------------------------------------------------------------
# traced run (--trace 1)
# ----------------------------------------------------------------------
def _profile(workload, args, suite):
    from spans import SpanRecorder, aggregate, layer_shares

    rec = SpanRecorder()
    untraced, traced, rows, overheads = [], [], [], []
    correct = True
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter_ns()
        plain = workload.profile_pass()
        wall_plain = time.perf_counter_ns() - t0
        lo = len(rec)
        rec.counters.clear()
        rec.install({"program"})
        try:
            t0 = time.perf_counter_ns()
            runs = workload.profile_pass(rec)
            wall = time.perf_counter_ns() - t0
        finally:
            rec.uninstall()
        for a, b in zip(plain, runs):
            if a.digest != b.digest:
                b.fail("traced run differs from the untraced run")
        agg = aggregate(rec, lo, len(rec))
        shares, ok = layer_shares(agg, wall)
        correct &= ok
        rows.append(_layer_metrics(agg, dict(rec.counters), runs, wall, shares))
        overheads.append(wall / wall_plain - 1.0)
        untraced.append(plain)
        traced.append(runs)
        if time.perf_counter() - start >= args.seconds:
            break
    extra_passes, executor = _executor_pass(workload, rec, suite)
    notes = workload.check(extra_passes)
    checked = _check_reference(suite, workload, untraced + traced)
    metrics = {
        name: statistics.fmean(row[name] for row in rows) for name in rows[0]
    }
    metrics.update(executor)
    metrics["bench.trace_overhead_frac"] = statistics.median(overheads)
    _print_layer_shares(args, rows, len(traced), len(rec))
    rec.write(OUT / f"spans-{args.workload}-s{args.seed}.npz")
    for note in notes:
        print(f"# check: {note}")
    runs = [r for p in untraced + traced + extra_passes + checked for r in p]
    return correct and not notes, runs, metrics


def _layer_metrics(agg, counters, runs, wall_ns, shares) -> dict:
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}
    out = {}
    for metric, span, field in SPAN_METRICS:
        row = agg.get(span, empty)
        out[metric] = row["calls"] if field == "calls" else row[f"{field}_ns"] / 1e9
    for run in runs:
        for key, value in (run.counters or {}).items():
            counters[key] = counters.get(key, 0) + value
    for name in COUNTER_METRICS:
        out[name] = float(counters.get(name, 0))
    run_total = agg.get("engine.run", empty)["total_ns"] / 1e9
    out["engine.us_per_event"] = (
        run_total / out["engine.events"] * 1e6 if out["engine.events"] else 0.0
    )
    ticks = out["core.mape.plan.calls"]
    out["core.mape.us_per_tick"] = (
        out["core.mape.plan.busy_s"] / ticks * 1e6 if ticks else 0.0
    )
    attempts = counters.get("engine.attempts", 0)
    out["engine.useful_attempt_frac"] = (
        counters.get("engine.completed_attempts", 0) / attempts if attempts else 0.0
    )
    out["bench.traced_wall_s"] = wall_ns / 1e9
    for layer, ns in shares.items():
        out[f"share.{layer}"] = ns / wall_ns
    return out


def _executor_pass(workload, rec, suite) -> tuple[list, dict]:
    """Executor metrics, from the parent side of a process-pool pass.

    Only workloads whose profiled pass differs from the timed pass (the
    process-backend campaign) have one: the timed pass runs once plainly
    and once with only the parent-side executor hooks installed, so the
    pool's workers run unwrapped code.
    """
    metrics = dict.fromkeys(
        ("executors.run.busy_s", "executors.cells", "executors.retries",
         "executors.failed", "executors.worker_busy_frac",
         "campaign.store.save.calls", "campaign.store.save.self_s"),
        0.0,
    )
    if type(workload).profile_pass is suite.Workload.profile_pass:
        return [], metrics
    plain = workload.run_pass()
    lo = len(rec)
    rec.install({"executor"})
    try:
        runs = workload.run_pass(rec)
    finally:
        rec.uninstall()
    from spans import aggregate

    agg = aggregate(rec, lo, len(rec))
    backend = workload.last_backend
    busy = agg["executors.run"]["total_ns"] / 1e9
    save = agg.get("campaign.store.save", {"calls": 0, "self_ns": 0})
    metrics.update({
        "executors.run.busy_s": busy,
        "executors.cells": float(backend.cells),
        "executors.retries": float(backend.retries),
        "executors.failed": float(backend.failed),
        "executors.worker_busy_frac": (
            sum(backend.cell_seconds.values()) / (backend.jobs * busy)
        ),
        "campaign.store.save.calls": float(save["calls"]),
        "campaign.store.save.self_s": save["self_ns"] / 1e9,
    })
    return [plain, runs], metrics


def _print_layer_shares(args, rows, passes: int, spans: int) -> None:
    wall = statistics.fmean(row["bench.traced_wall_s"] for row in rows)
    print(
        f"# {args.workload} seed={args.seed}: layer shares of the traced wall "
        f"({passes} traced passes, {spans} spans, mean wall {wall:.3f} s)"
    )
    for layer in LAYERS:
        share = statistics.fmean(row[f"share.{layer}"] for row in rows)
        print(f"{layer:<12} {share * wall:>10.4f} s {share:>8.2%}")
    total = statistics.fmean(
        sum(row[f"share.{layer}"] for layer in LAYERS) for row in rows
    )
    print(f"{'total':<12} {total * wall:>10.4f} s {total:>8.2%}")
    for name, unit in PER_LAYER.items():
        value = statistics.fmean(row[name] for row in rows) if name in rows[0] else None
        if value is not None:
            print(f"{name:<40} {value:>16.6g} {unit}")


# ----------------------------------------------------------------------
# host record and process hygiene
# ----------------------------------------------------------------------
def _host_record(workload, args, numpy_version: str) -> dict:
    cpus = len(os.sched_getaffinity(0))
    host = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "visible_cpus": cpus,
        "workers": workload.workers,
        "oversubscribed": workload.workers > cpus,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }
    print("# host " + json.dumps(host, sort_keys=True))
    if host["oversubscribed"]:
        print(f"# WARNING: {workload.workers} workers on {cpus} visible CPUs")
    return host


def _peak_rss_mb() -> float:
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def _reap_children() -> None:
    """Wait for every pool worker this process started."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join(timeout=5)


if __name__ == "__main__":
    sys.exit(main())
