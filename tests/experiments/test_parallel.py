"""Tests for the parallel campaign executor.

The load-bearing property: a parallel campaign's persisted store is
byte-identical to a serial one over the same matrix — cell results
depend only on their keys, never on scheduling — and an interrupted
campaign resumes without recomputing or losing any cell.
"""

from __future__ import annotations

import os
import signal
from collections import Counter
from pathlib import Path

import pytest

from repro.autoscalers import PureReactiveAutoscaler, WireAutoscaler
from repro.experiments.campaign import CampaignStore, run_campaign
from repro.experiments.harness import policy_factories, run_setting
from repro.experiments.parallel import (
    FailedCell,
    _factory_payload,
    run_campaign_parallel,
)
from repro.workloads import tpch1, tpch6


class _KillWorkerOnce:
    """Picklable factory: the first worker to build it SIGKILLs itself.

    A sentinel file makes the kill one-shot — the retried attempt (in a
    rebuilt pool) finds the sentinel and returns a real policy — so the
    test models a worker process dying mid-cell, not a poisoned cell.
    """

    def __init__(self, sentinel: str) -> None:
        self.sentinel = sentinel

    def __call__(self):
        try:
            with open(self.sentinel, "x"):
                pass
        except FileExistsError:
            return WireAutoscaler()
        os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("unreachable")  # pragma: no cover


class _BoomAutoscaler:
    """A picklable factory that always fails inside the worker."""

    def __call__(self):
        raise RuntimeError("boom")

    def __init__(self):
        pass

    def __reduce__(self):
        return (_BoomAutoscaler, ())


class _CountingSpec:
    """Picklable spec wrapper that logs every ``generate`` call as one
    ``"<workflow> <seed>"`` line in a per-process file under ``log_dir``,
    so realizations made in worker processes can be counted."""

    def __init__(self, name: str, spec, log_dir: Path) -> None:
        self.name = name
        self.spec = spec
        self.log_dir = log_dir

    def generate(self, seed: int):
        with open(self.log_dir / f"{os.getpid()}.log", "a") as fh:
            fh.write(f"{self.name} {seed}\n")
        return self.spec.generate(seed)


def _realizations(log_dir: Path) -> dict[str, Counter]:
    """Per-process counts of ``(workflow, seed)`` realizations."""
    return {
        path.stem: Counter(tuple(line.split()) for line in path.read_text().splitlines())
        for path in log_dir.glob("*.log")
    }


@pytest.fixture
def matrix():
    """The satellite's 2x2x2x2 determinism matrix."""
    return dict(
        specs={"tpch1-S": tpch1("S"), "tpch6-S": tpch6("S")},
        policies={
            "pure-reactive": PureReactiveAutoscaler,
            "wire": WireAutoscaler,
        },
        charging_units=[60.0, 900.0],
        seeds=[0, 1],
    )


class TestDeterminism:
    @pytest.mark.parametrize("save_every", [1, 5, 100])
    def test_jobs4_store_byte_identical_to_serial(
        self, tmp_path, matrix, save_every
    ):
        serial_path = tmp_path / "serial.json"
        run_campaign(CampaignStore(serial_path), **matrix)

        parallel_path = tmp_path / "parallel.json"
        records, executed, failed = run_campaign_parallel(
            CampaignStore(parallel_path),
            **matrix,
            jobs=4,
            save_every=save_every,
        )
        assert failed == []
        assert executed == 16  # 2 wf x 2 policies x 2 units x 2 seeds
        assert serial_path.read_bytes() == parallel_path.read_bytes()
        assert len(records) == 16

    def test_jobs1_inline_matches_serial(self, tmp_path, matrix):
        serial_path = tmp_path / "serial.json"
        run_campaign(CampaignStore(serial_path), **matrix)
        inline_path = tmp_path / "inline.json"
        _, executed, failed = run_campaign_parallel(
            CampaignStore(inline_path), **matrix, jobs=1
        )
        assert failed == []
        assert executed == 16
        assert serial_path.read_bytes() == inline_path.read_bytes()

    def test_chaos_campaign_jobs4_byte_identical_to_serial(
        self, tmp_path, matrix
    ):
        # ChaosSpec is frozen data: the fault draws a worker makes are
        # identical to an inline run's, so a chaotic campaign store is as
        # scheduling-independent as a clean one.
        from repro.cloud.faults import ChaosSpec

        chaos = ChaosSpec(
            revocation_rate=20.0,
            provision_failure=0.2,
            straggler_probability=0.2,
            blackout_probability=0.2,
        )
        serial_path = tmp_path / "serial.json"
        run_campaign(CampaignStore(serial_path), **matrix, chaos=chaos)
        parallel_path = tmp_path / "parallel.json"
        _, executed, failed = run_campaign_parallel(
            CampaignStore(parallel_path), **matrix, jobs=4, chaos=chaos
        )
        assert failed == []
        assert executed == 16
        assert serial_path.read_bytes() == parallel_path.read_bytes()
        # and chaos actually changed outcomes vs a clean campaign
        clean_path = tmp_path / "clean.json"
        run_campaign(CampaignStore(clean_path), **matrix)
        assert clean_path.read_bytes() != serial_path.read_bytes()


class TestRealizeOnce:
    """A campaign realizes each (workflow, seed) once per worker and
    shares the immutable DAG across that pair's cells."""

    @pytest.fixture
    def four_policy_matrix(self):
        return dict(
            specs={"tpch1-S": tpch1("S"), "tpch6-S": tpch6("S")},
            policies=policy_factories(),
            charging_units=[60.0, 900.0],
            seeds=[0, 1],
        )

    def counting(self, matrix, log_dir: Path) -> dict:
        log_dir.mkdir()
        specs = {
            name: _CountingSpec(name, spec, log_dir)
            for name, spec in matrix["specs"].items()
        }
        return dict(matrix, specs=specs)

    @pytest.mark.parametrize(
        "backend,jobs", [("serial", 1), ("process", 2), ("workqueue", 2)]
    )
    def test_each_pair_realized_at_most_once_per_worker(
        self, tmp_path, four_policy_matrix, backend, jobs
    ):
        serial_path = tmp_path / "serial.json"
        run_campaign(CampaignStore(serial_path), **four_policy_matrix)

        log_dir = tmp_path / "realized"
        path = tmp_path / f"campaign-{backend}.json"
        _, executed, failed = run_campaign_parallel(
            CampaignStore(path),
            **self.counting(four_policy_matrix, log_dir),
            jobs=jobs,
            backend=backend,
            workqueue_dir=tmp_path / "queue" if backend == "workqueue" else None,
        )
        assert failed == []
        assert executed == 32  # 2 wf x 4 policies x 2 units x 2 seeds
        assert path.read_bytes() == serial_path.read_bytes()

        per_worker = _realizations(log_dir)
        assert 1 <= len(per_worker) <= jobs
        pairs = {(wf, str(seed)) for wf in ("tpch1-S", "tpch6-S") for seed in (0, 1)}
        for counts in per_worker.values():
            assert set(counts) <= pairs
            assert max(counts.values()) == 1, counts
        assert set().union(*per_worker.values()) == pairs
        if backend == "serial":
            assert os.getpid() in map(int, per_worker)

    def test_realize_every_cell_reference_is_unchanged(
        self, tmp_path, four_policy_matrix
    ):
        # run_campaign stays the serial reference that realizes per cell
        log_dir = tmp_path / "realized"
        _, executed = run_campaign(
            CampaignStore(tmp_path / "c.json"),
            **self.counting(four_policy_matrix, log_dir),
        )
        assert executed == 32
        (counts,) = _realizations(log_dir).values()
        assert sum(counts.values()) == 32

    def test_shared_workflow_survives_every_policy(self):
        spec = tpch1("S")
        shared = spec.generate(3)

        def shape(wf) -> tuple:
            return (
                wf.tasks,
                {tid: wf.parents(tid) for tid in wf.tasks},
                {tid: wf.children(tid) for tid in wf.tasks},
                dict(wf.stage_of),
                wf.sorted_children,
            )

        for name, factory in policy_factories().items():
            result = run_setting(shared, factory, 60.0, seed=3)
            assert result.completed, name
            assert shape(shared) == shape(spec.generate(3)), name


class TestResume:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_interrupted_campaign_never_recomputes_or_loses_cells(
        self, tmp_path, matrix, jobs
    ):
        path = tmp_path / "c.json"
        # First pass over a partial matrix stands in for an interrupted
        # run: only seed-0 cells exist afterwards.
        partial = dict(matrix, seeds=[0])
        _, first_executed, _ = run_campaign_parallel(
            CampaignStore(path), **partial, jobs=jobs
        )
        assert first_executed == 8
        before = {
            r.key: r for r in CampaignStore(path).records()
        }

        _, executed, failed = run_campaign_parallel(
            CampaignStore(path), **matrix, jobs=jobs
        )
        assert failed == []
        assert executed == 8  # only the seed-1 half was recomputed
        after = {r.key: r for r in CampaignStore(path).records()}
        assert len(after) == 16
        # no cell lost, no finished cell recomputed to a different value
        for key, record in before.items():
            assert after[key] == record

    def test_full_store_executes_nothing(self, tmp_path, matrix):
        path = tmp_path / "c.json"
        run_campaign_parallel(CampaignStore(path), **matrix, jobs=4)
        _, executed, failed = run_campaign_parallel(
            CampaignStore(path), **matrix, jobs=4
        )
        assert executed == 0
        assert failed == []


class TestFailureIsolation:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_failing_policy_reported_not_fatal(self, tmp_path, jobs):
        store = CampaignStore(tmp_path / "c.json")
        records, executed, failed = run_campaign_parallel(
            store,
            {"tpch6-S": tpch6("S")},
            {"good": PureReactiveAutoscaler, "bad": _BoomAutoscaler()},
            [60.0],
            [0, 1],
            jobs=jobs,
        )
        assert executed == 2  # the good policy's cells completed
        assert sorted(r.policy for r in records) == ["good", "good"]
        assert len(failed) == 2  # bad cells failed after one retry each
        assert all(isinstance(f, FailedCell) for f in failed)
        assert all("boom" in f.error for f in failed)
        assert all(f.key.policy == "bad" for f in failed)
        # the store on disk holds exactly the successful cells
        assert len(CampaignStore(store.path)) == 2

    def test_killed_worker_cell_retried_to_serial_identical_store(
        self, tmp_path
    ):
        """A worker SIGKILLed mid-cell breaks the pool; the cell's retry
        (after the pool rebuild) must leave a store — and per-cell trace
        files — byte-identical to a serial campaign's."""
        specs = {"tpch6-S": tpch6("S")}
        serial_path = tmp_path / "serial.json"
        serial_traces = tmp_path / "serial-traces"
        run_campaign(
            CampaignStore(serial_path),
            specs,
            {"wire": WireAutoscaler},
            [60.0],
            [0, 1],
            trace_dir=serial_traces,
        )

        parallel_path = tmp_path / "parallel.json"
        parallel_traces = tmp_path / "parallel-traces"
        killer = _KillWorkerOnce(str(tmp_path / "killed-once"))
        records, executed, failed = run_campaign_parallel(
            CampaignStore(parallel_path),
            specs,
            {"wire": killer},
            [60.0],
            [0, 1],
            jobs=2,
            trace_dir=parallel_traces,
        )
        assert (tmp_path / "killed-once").exists()  # a worker really died
        assert failed == []
        assert executed == 2
        assert len(records) == 2
        assert serial_path.read_bytes() == parallel_path.read_bytes()
        for name in sorted(p.name for p in serial_traces.iterdir()):
            assert (
                (serial_traces / name).read_bytes()
                == (parallel_traces / name).read_bytes()
            ), name

    def test_unpicklable_unknown_policy_rejected(self):
        marker = object()
        with pytest.raises(ValueError, match="not picklable"):
            _factory_payload("custom", lambda: marker)

    def test_standard_policy_names_ship_by_name(self):
        kind, blob = _factory_payload("wire", lambda: None)
        assert (kind, blob) == ("name", "wire")


class TestStoreFlush:
    def test_save_every_batches_but_exception_flushes(self, tmp_path, matrix):
        path = tmp_path / "c.json"
        store = CampaignStore(path)
        calls = 0
        original = store.save

        def counting_save():
            nonlocal calls
            calls += 1
            original()

        store.save = counting_save  # type: ignore[method-assign]
        _, executed = run_campaign(store, **matrix, save_every=5)
        assert executed == 16
        # 3 periodic saves (after cells 5, 10, 15) + the final flush
        assert calls == 4
        assert len(CampaignStore(path)) == 16

    def test_exception_mid_campaign_flushes_completed_cells(self, tmp_path):
        path = tmp_path / "c.json"
        store = CampaignStore(path)

        class FlakyFactory:
            calls = 0

            def __call__(self):
                FlakyFactory.calls += 1
                if FlakyFactory.calls >= 2:
                    raise KeyboardInterrupt  # an interrupt mid-campaign
                return PureReactiveAutoscaler()

        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                store,
                # sorted workload order: the a-first cell completes, then
                # the factory interrupts the b-second cell
                {"a-first": tpch1("S"), "b-second": tpch6("S")},
                {"ok": FlakyFactory()},
                [60.0],
                [0],
                save_every=100,
            )
        # the cell finished before the interrupt was persisted even
        # though save_every was never reached
        assert len(CampaignStore(path)) == 1

    def test_dirty_counter(self, tmp_path):
        from repro.experiments.campaign import CellRecord

        store = CampaignStore(tmp_path / "c.json")
        assert store.dirty == 0
        store.put(
            CellRecord(
                workflow="w", policy="p", charging_unit=60.0, seed=0,
                makespan=1.0, total_units=1, total_cost=1.0, utilization=1.0,
                peak_instances=1, restarts=0, completed=True,
            )
        )
        assert store.dirty == 1
        store.flush()
        assert store.dirty == 0
        store.flush()  # no-op, file already current
        assert len(CampaignStore(store.path)) == 1
