"""In-memory span recorder for the benchmark's traced run.

The benchmark measures ``repro`` from the outside: for the traced run it
replaces a fixed list of public methods (:data:`HOOKS`) with thin timing
wrappers, and removes them again when the run ends, so untraced runs
execute the unmodified program. Each call becomes one span: name, start,
end, parent span and run id. Spans live in flat ``array`` columns (about
30 bytes a span) and are written to one ``.npz`` file at the end.

A span's self time is its duration minus the durations of its direct
children; summed over every span this equals the summed durations of the
root spans exactly (all arithmetic is in integer nanoseconds), which is
what lets :func:`layer_shares` split a traced wall into layer shares that
add up to the wall.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

_clock = time.perf_counter_ns

#: span-name prefix -> layer, for the layer-share view
LAYER_OF_PREFIX = {
    "workloads": "workloads",
    "engine": "engine",
    "cloud": "cloud",
    "core": "core",
    "fleet": "fleet",
    "telemetry": "telemetry",
    "validate": "validate",
    "checkpoint": "checkpoint",
    "executors": "experiments",
    "campaign": "experiments",
    "bench": "bench",
}
#: the layers in report order; ``unspanned`` is the traced wall outside
#: every root span
LAYERS = (
    "workloads", "engine", "cloud", "core", "fleet", "telemetry",
    "validate", "checkpoint", "experiments", "bench", "unspanned",
)


def _layer(name: str) -> str:
    return LAYER_OF_PREFIX[name.split(".", 1)[0]]


class SpanRecorder:
    """Span columns plus the per-pass counters wrappers feed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self._stack: list[int] = []
        #: id stamped on every span opened from now on
        self.run_id = -1
        #: counters fed by return-value observers (events, bytes, ...)
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._installed: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.name)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, nid: int) -> int:
        idx = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        stack.append(idx)
        self.start.append(_clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (bench-side roots)."""
        idx = self._open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``observe(recorder, args, result)`` runs after the span closes,
        to turn a return value into counters.
        """
        original = owner.__dict__[attr]
        nid = self.name_id(name)
        names, parents, runs, starts, ends = (
            self.name, self.parent, self.run, self.start, self.end
        )
        stack = self._stack
        rec = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(rec.run_id)
            ends.append(0)
            stack.append(idx)
            starts.append(_clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                stack.pop()
            if observe is not None:
                observe(rec, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def install(self, groups: set[str]) -> None:
        """Install every hook whose group is in ``groups``."""
        for group, module, owner, attrs, name, observe in HOOKS:
            if group not in groups:
                continue
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            for attr in attrs:
                self.wrap(target, attr, name, observe)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def columns(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        """Span columns ``[lo, hi)`` as numpy arrays (parents re-based)."""
        hi = len(self) if hi is None else hi
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32)[lo:hi],
            "start": np.frombuffer(self.start, dtype=np.int64)[lo:hi],
            "end": np.frombuffer(self.end, dtype=np.int64)[lo:hi],
            "parent": np.where(parent >= 0, parent - lo, -1),
            "run": np.frombuffer(self.run, dtype=np.int32)[lo:hi],
        }

    def write(self, path: Path) -> None:
        """Write every span (times relative to the first span) and names."""
        cols = self.columns()
        origin = int(cols["start"][0]) if len(self) else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=cols["name"],
            start_ns=cols["start"] - origin,
            end_ns=cols["end"] - origin,
            parent=cols["parent"],
            run=cols["run"],
        )


def aggregate(rec: SpanRecorder, lo: int, hi: int) -> dict[str, dict]:
    """Per span name: ``calls``, ``total_ns`` and ``self_ns`` over spans
    ``[lo, hi)``, plus a ``__roots__`` row: the roots' summed duration, the
    summed self time of every span, and whether every child lay inside
    its parent (no negative self time)."""
    cols = rec.columns(lo, hi)
    n = hi - lo
    dur = cols["end"] - cols["start"]
    child = cols["parent"] >= 0
    child_ns = np.bincount(
        cols["parent"][child], weights=dur[child], minlength=n
    ).astype(np.int64)
    self_ns = dur - child_ns
    k = len(rec.names)
    calls = np.bincount(cols["name"], minlength=k)
    total = np.bincount(cols["name"], weights=dur, minlength=k)
    self_t = np.bincount(cols["name"], weights=self_ns, minlength=k)
    out: dict[str, dict] = {
        name: {
            "calls": int(calls[nid]),
            "total_ns": int(total[nid]),
            "self_ns": int(self_t[nid]),
        }
        for nid, name in enumerate(rec.names)
    }
    out["__roots__"] = {
        "total_ns": int(dur[~child].sum()),
        "self_ns": int(self_ns.sum()),
        "nested": bool(n == 0 or (dur.min() >= 0 and self_ns.min() >= 0)),
    }
    return out


def layer_shares(agg: dict, wall_ns: int) -> tuple[dict[str, int], bool]:
    """Self nanoseconds per layer plus ``unspanned``, and whether they sum
    to ``wall_ns`` with every span nested inside the wall."""
    shares = dict.fromkeys(LAYERS, 0)
    for name, row in agg.items():
        if name != "__roots__":
            shares[_layer(name)] += row["self_ns"]
    roots = agg["__roots__"]
    shares["unspanned"] = wall_ns - roots["total_ns"]
    ok = (
        roots["nested"]
        and roots["self_ns"] == roots["total_ns"]
        and 0 <= shares["unspanned"] <= wall_ns
        and sum(shares.values()) == wall_ns
    )
    return shares, ok


# ----------------------------------------------------------------------
# return-value observers (run after the span closes)
# ----------------------------------------------------------------------
def _sim_result(rec: SpanRecorder, args, result) -> None:
    if result is None:  # stopped at a checkpoint; the resume reports
        return
    c = rec.counters
    c["engine.events"] += result.events_processed
    c["engine.restarts"] += result.restarts
    attempts = completed = 0
    for attempt in result.monitor.all_attempts():
        attempts += 1
        completed += attempt.is_completed
    c["engine.attempts"] += attempts
    c["engine.completed_attempts"] += completed
    _cloud(c, result)


def _fleet_result(rec: SpanRecorder, args, result) -> None:
    if result is None:
        return
    c = rec.counters
    c["fleet.events"] += result.events_processed
    tasks = sum(t.tasks for t in result.tenants)
    c["engine.restarts"] += result.restarts
    c["engine.attempts"] += tasks + result.restarts
    c["engine.completed_attempts"] += tasks
    _cloud(c, result)


def _cloud(c, result) -> None:
    """Cloud counters shared by single-run and fleet results; faults are
    the injected fault classes, not the task kills they cause."""
    c["cloud.instances_launched"] += result.instances_launched
    c["cloud.wasted_s"] += result.wasted_seconds
    c["cloud.faults"] += sum(
        n for k, n in result.cloud_faults.items() if k != "revocation_task_kills"
    )


def _projected(rec: SpanRecorder, args, load) -> None:
    rec.counters["core.lookahead.project.tasks"] += len(load.task_ids)


def _decided(rec: SpanRecorder, args, decision) -> None:
    rec.counters["core.steering.launches"] += decision.launch
    rec.counters["core.steering.terminations"] += len(decision.terminations)


def _saved(rec: SpanRecorder, args, info) -> None:
    rec.counters["checkpoint.save.bytes"] += Path(args[1]).stat().st_size


#: (group, module, class or None, attributes, span name, observer)
HOOKS: tuple = (
    ("program", "repro.workloads.base", "StagedWorkflowSpec", ("generate",),
     "workloads.generate", None),
    ("program", "repro.engine.simulator", "Simulation", ("__init__",),
     "engine.init", None),
    ("program", "repro.engine.simulator", "Simulation", ("run",),
     "engine.run", _sim_result),
    ("program", "repro.engine.events", "EventQueue", ("push",),
     "engine.events.push", None),
    ("program", "repro.engine.events", "EventQueue", ("pop",),
     "engine.events.pop", None),
    ("program", "repro.engine.scheduler", "FifoScheduler", ("push", "pop"),
     "engine.scheduler", None),
    ("program", "repro.cloud.pool", "InstancePool", ("best_dispatchable",),
     "cloud.pool.best_dispatchable", None),
    ("program", "repro.engine.monitor", "Monitor",
     ("record_dispatch", "record_exec_start", "record_exec_end",
      "record_complete", "record_kill"),
     "engine.monitor", None),
    # the single runs' default transfer model, and the fleet's
    ("program", "repro.engine.transfer", "ExponentialTransferModel",
     ("stage_in_time", "stage_out_time"), "engine.transfer", None),
    ("program", "repro.engine.transfer", "NoTransferModel",
     ("stage_in_time", "stage_out_time"), "engine.transfer", None),
    ("program", "repro.core.mape", "MapeController", ("plan",),
     "core.mape.plan", None),
    ("program", "repro.core.predictor", "TaskPredictor", ("observe_interval",),
     "core.predictor.observe_interval", None),
    ("program", "repro.core.predictor", "TaskPredictor", ("build_run_state",),
     "core.predictor.build_run_state", None),
    ("program", "repro.core.lookahead", "LookaheadSimulator", ("project",),
     "core.lookahead.project", _projected),
    ("program", "repro.core.steering", "SteeringPolicy", ("decide",),
     "core.steering.decide", _decided),
    ("program", "repro.fleet.engine", "FleetSimulation", ("run",),
     "fleet.run", _fleet_result),
    ("program", "repro.fleet.autoscalers", "GlobalWireAutoscaler", ("plan",),
     "fleet.autoscaler.plan", None),
    ("program", "repro.fleet.policies", "FairSharePolicy", ("choose",),
     "fleet.policy.choose", None),
    ("program", "repro.telemetry.sinks", "JsonlSink", ("emit",),
     "telemetry.emit", None),
    ("program", "repro.validate.checker", "InvariantChecker", ("after_event",),
     "validate.after_event", None),
    ("program", "repro.checkpoint", None, ("save_checkpoint",),
     "checkpoint.save", _saved),
    ("program", "repro.checkpoint", None, ("load_checkpoint",),
     "checkpoint.load", None),
    ("program", "repro.experiments.campaign", "CampaignStore", ("save",),
     "campaign.store.save", None),
    # parent side of a process-pool campaign: safe to install while the
    # pool forks, because workers never call these
    ("executor", "repro.experiments.executors.process", "ProcessBackend",
     ("run",), "executors.run", None),
    ("executor", "repro.experiments.campaign", "CampaignStore", ("save",),
     "campaign.store.save", None),
)
