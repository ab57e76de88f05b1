"""Bit-identical equivalence of fleet runs against committed fingerprints.

``golden_fleet_results.json`` pins the SHA-256 of every fleet cell's
``to_summary_json()`` bytes — makespans, costs, ``events_processed`` and
every per-tenant field — so a deterministic change in allocation, fleet
steering, admission or cost attribution shows up here, not only as a
run that disagrees with itself.

Regenerate (only for an *intended*, reviewed semantic change):

    PYTHONPATH=src python tools/gen_golden_engine.py
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden_fleet_results.json"


def load_generator():
    root = Path(__file__).resolve().parent.parent.parent
    spec = importlib.util.spec_from_file_location(
        "gen_golden_engine", root / "tools" / "gen_golden_engine.py"
    )
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


# A fast subset runs in the default suite: every policy, autoscaler,
# arrival process and chaos setting appears at least twice. The full
# 36-cell matrix is what tools/gen_golden_engine.py --check covers.
FAST_SCENARIOS = [
    "fifo/global-wire/poisson/calm",
    "fifo/global-static/bursty/chaos",
    "fifo/global-reactive/poisson/chaos",
    "fair-share/global-wire/bursty/chaos",
    "fair-share/global-static/poisson/calm",
    "fair-share/global-reactive/bursty/calm",
    "priority/global-wire/poisson/chaos",
    "priority/global-static/bursty/calm",
    "priority/global-reactive/bursty/chaos",
]


class TestGoldenFleet:
    @pytest.fixture(scope="class")
    def generator(self):
        return load_generator()

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text(encoding="utf-8"))

    @pytest.fixture(scope="class")
    def simulations(self, generator):
        return dict(generator.fleet_scenarios())

    @pytest.mark.parametrize("name", FAST_SCENARIOS)
    def test_run_matches_fingerprint(self, name, golden, simulations, generator):
        assert name in golden, f"golden file is missing fleet scenario {name}"
        result = simulations[name].run()
        assert generator.fleet_fingerprint(result) == golden[name]

    def test_golden_covers_full_matrix(self, golden):
        # 3 policies x 3 autoscalers x 2 arrival processes x chaos on/off
        assert len(golden) == 36
