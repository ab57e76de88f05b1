"""Committed SHA-256 digests of JSONL trace files.

The determinism tests compare a trace only with another run of the same
code. These digests pin the bytes :class:`~repro.telemetry.JsonlSink`
writes — record building, key order, float formatting, separators and
line endings — so a change to the encoder that alters a single byte
fails here, even if it is self-consistent.

Each cell runs one traced simulation (the first also checkpoints, resumes
and runs the invariant checker) and hashes the file it wrote. Rewrite
``golden_trace_digests.json`` only for an intended trace change:

    PYTHONPATH=src python tests/telemetry/test_golden_trace_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.autoscalers import PureReactiveAutoscaler, WireAutoscaler
from repro.checkpoint import load_checkpoint
from repro.cloud import exogeni_site
from repro.cloud.faults import parse_chaos_spec
from repro.engine import Simulation
from repro.experiments.harness import default_transfer_model
from repro.fleet import (
    FleetSimulation,
    allocation_policy,
    fleet_autoscaler,
    fleet_workload_catalog,
    make_arrivals,
)
from repro.telemetry import JsonlSink, Tracer
from repro.validate import InvariantChecker
from repro.workloads import table1_specs

GOLDEN = Path(__file__).with_name("golden_trace_digests.json")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _single(spec: str, policy, u: float, trace: Path, **kwargs) -> Simulation:
    return Simulation(
        table1_specs()[spec].generate(0),
        exogeni_site(),
        policy(),
        u,
        transfer_model=default_transfer_model(),
        seed=0,
        tracer=Tracer(JsonlSink(trace)),
        **kwargs,
    )


def genome_chaos_resumed(workdir: Path) -> str:
    """genome-S/wire/u60 under chaos with a collect-mode checker, cut at a
    checkpoint and resumed; the resumed trace must equal a straight one."""

    def make(trace: Path) -> Simulation:
        return _single(
            "genome-S", WireAutoscaler, 60.0, trace,
            chaos=parse_chaos_spec("revocations=2,stragglers=0.2"),
            validate=InvariantChecker(mode="collect"),
        )

    straight = make(workdir / "straight.jsonl")
    straight.run()
    straight.tracer.close()
    assert straight.validator.violations == []

    cut = make(workdir / "resumed.jsonl")
    ckpt = workdir / "cut.ckpt"
    assert cut.run(
        checkpoint_every=3, checkpoint_path=ckpt, stop_after_checkpoint=True
    ) is None
    cut.tracer.close()
    resumed = load_checkpoint(ckpt)
    resumed.run()
    resumed.tracer.close()
    assert resumed.validator.violations == []

    digest = _sha256(workdir / "straight.jsonl")
    assert _sha256(workdir / "resumed.jsonl") == digest
    return digest


def tpch6_pure_reactive(workdir: Path) -> str:
    """tpch6-S/pure-reactive/u3600: a non-predictive policy's ticks."""
    sim = _single("tpch6-S", PureReactiveAutoscaler, 3600.0, workdir / "t.jsonl")
    sim.run()
    sim.tracer.close()
    return _sha256(workdir / "t.jsonl")


def fleet_fair_share_chaos(workdir: Path) -> str:
    """fair-share/global-wire/bursty/chaos from the golden fleet matrix."""
    trace = workdir / "fleet.jsonl"
    sim = FleetSimulation(
        make_arrivals("bursty", n=6, rate=12.0, burst_size=3).generate(7),
        fleet_workload_catalog(),
        exogeni_site(),
        fleet_autoscaler("global-wire"),
        allocation_policy("fair-share"),
        900.0,
        transfer_model=default_transfer_model(),
        seed=7,
        tracer=Tracer(JsonlSink(trace)),
        chaos=parse_chaos_spec(
            "revocations=0.5,stragglers=0.3,pfail=0.2,blackouts=0.2"
        ),
    )
    sim.run()
    sim.tracer.close()
    return _sha256(trace)


CELLS = {
    "genome-S/wire/u60/chaos/checked/resumed": genome_chaos_resumed,
    "tpch6-S/pure-reactive/u3600": tpch6_pure_reactive,
    "fleet/fair-share/global-wire/bursty/chaos": fleet_fair_share_chaos,
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_trace_bytes_match_committed_digest(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert CELLS[name](tmp_path) == golden[name]


def test_golden_file_covers_exactly_the_cells():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CELLS)


def main() -> int:
    digests = {}
    for name, cell in CELLS.items():
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = cell(Path(tmp))
        print(f"  {name}  {digests[name]}")
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
