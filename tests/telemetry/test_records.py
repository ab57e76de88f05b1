"""Tests for the typed trace records and their JSON round-trip."""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

from repro.telemetry import (
    CloudFaultRecord,
    ControlTickRecord,
    InstanceEventRecord,
    RunMetaRecord,
    RunSummaryRecord,
    StagePrediction,
    JsonlSink,
    TaskAttemptRecord,
    record_from_json,
)
from repro.telemetry.records import _RECORD_TYPES

META = RunMetaRecord(
    workflow="genome-S",
    policy="wire",
    charging_unit=900.0,
    seed=3,
    site="exogeni",
    max_instances=12,
    lag=180.0,
    period=10.0,
    n_tasks=40,
    n_stages=5,
    slots_per_instance=4,
    runtime_model="nominal",
)

TICK = ControlTickRecord(
    tick=2,
    now=30.0,
    pool_before=3,
    pool_after=4,
    launched=1,
    terminated=0,
    branch="grow",
    ready_tasks=7,
    in_flight_tasks=12,
    completed_tasks=5,
    target_pool=4,
    q_task=7,
    q_remaining=812.5,
    transfer_estimate=1.25,
    stage_predictions=(
        StagePrediction(
            stage_id="map", model="matched_group", n_tasks=7, mean_estimate=116.0
        ),
    ),
)

INSTANCE = InstanceEventRecord(
    now=600.0,
    instance_id="i-2",
    event="terminated",
    units_charged=2,
    paid_seconds=1800.0,
    busy_slot_seconds=4100.0,
    idle_fraction=0.43,
    wasted_seconds=1200.0,
)

ATTEMPT = TaskAttemptRecord(
    now=145.0,
    task_id="map#3",
    stage_id="map",
    attempt=1,
    instance_id="i-0",
    outcome="completed",
    queue_wait=5.0,
    stage_in=2.0,
    runtime=118.0,
    stage_out=0.0,
    occupancy=120.0,
    input_size=2e7,
)

CLOUD = CloudFaultRecord(
    now=120.0,
    fault="revocation",
    instance_id="i-3",
    tasks_killed=2,
    wasted_seconds=40.0,
    lost_occupancy=80.0,
)

SUMMARY = RunSummaryRecord(
    makespan=812.0,
    completed=True,
    total_units=6,
    total_cost=5400.0,
    wasted_seconds=900.0,
    utilization=0.77,
    peak_instances=4,
    instances_launched=5,
    restarts=1,
    ticks=80,
)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "record", [META, TICK, INSTANCE, ATTEMPT, CLOUD, SUMMARY], ids=lambda r: r.kind
    )
    def test_to_json_and_back_is_identity(self, record):
        payload = record.to_json()
        assert payload["kind"] == record.kind
        rebuilt = record_from_json(payload)
        assert rebuilt == record
        assert type(rebuilt) is type(record)

    def test_stage_predictions_rebuilt_as_typed_tuple(self):
        rebuilt = record_from_json(TICK.to_json())
        assert isinstance(rebuilt.stage_predictions, tuple)
        assert isinstance(rebuilt.stage_predictions[0], StagePrediction)

    def test_kind_tags_are_stable(self):
        # The JSONL schema contract: renames here break old traces.
        assert META.kind == "run_meta"
        assert TICK.kind == "control_tick"
        assert INSTANCE.kind == "instance_event"
        assert ATTEMPT.kind == "task_attempt"
        assert CLOUD.kind == "cloud_fault"
        assert SUMMARY.kind == "run_summary"

    def test_optional_fields_survive_as_none(self):
        tick = ControlTickRecord(
            tick=0,
            now=10.0,
            pool_before=1,
            pool_after=1,
            launched=0,
            terminated=0,
            branch="hold",
            ready_tasks=0,
            in_flight_tasks=2,
            completed_tasks=0,
        )
        rebuilt = record_from_json(tick.to_json())
        assert rebuilt.target_pool is None
        assert rebuilt.q_task is None
        assert rebuilt.stage_predictions == ()


class TestMalformedPayloads:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace record kind"):
            record_from_json({"kind": "bogus"})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace record kind"):
            record_from_json({"makespan": 1.0})

    def test_non_string_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace record kind"):
            record_from_json({"kind": 7})

    def test_unknown_field_rejected(self):
        payload = SUMMARY.to_json()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="unknown fields.*surprise"):
            record_from_json(payload)

    def test_records_are_immutable(self):
        with pytest.raises(AttributeError):
            SUMMARY.makespan = 0.0  # type: ignore[misc]


class TestEncodingDifferential:
    """``to_json`` and ``JsonlSink`` against the ``asdict`` + ``json.dump``
    encoding they replaced, for every record kind."""

    PREDICTIONS = (
        StagePrediction("map", "ogd", 3, 1.0000000000000002),
        StagePrediction("reduce", "observed", 1, 1e-320),
    )
    #: one value per annotated field type; floats chosen to stress repr
    SET = {
        "str": "i-1é",
        "str | None": "i-2",
        "int": 7,
        "int | None": 8,
        "float": 1e-320,
        "float | None": 1.0000000000000002,
        "bool": True,
        "tuple[StagePrediction, ...]": PREDICTIONS,
    }

    @classmethod
    def variants(cls, record_type):
        """Required fields only (optionals at their defaults), then every
        field set."""
        required = {
            f.name: cls.SET[f.type]
            for f in dataclasses.fields(record_type)
            if f.default is dataclasses.MISSING
        }
        full = {f.name: cls.SET[f.type] for f in dataclasses.fields(record_type)}
        return [record_type(**required), record_type(**full)]

    @staticmethod
    def old_line(record) -> str:
        buf = io.StringIO()
        payload = dataclasses.asdict(record) | {"kind": record.kind}
        json.dump(payload, buf, sort_keys=True, separators=(",", ":"))
        buf.write("\n")
        return buf.getvalue()

    @pytest.mark.parametrize("kind", sorted(_RECORD_TYPES))
    def test_to_json_equals_asdict(self, kind):
        for record in self.variants(_RECORD_TYPES[kind]):
            assert record.to_json() == dataclasses.asdict(record) | {
                "kind": record.kind
            }

    @pytest.mark.parametrize("kind", sorted(_RECORD_TYPES))
    def test_jsonl_line_equals_json_dump_bytes(self, kind, tmp_path):
        records = self.variants(_RECORD_TYPES[kind])
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            for record in records:
                sink.emit(record)
        expected = "".join(self.old_line(r) for r in records)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_variants_cover_none_and_predictions(self):
        empty, full = self.variants(ControlTickRecord)
        assert empty.q_remaining is None and empty.stage_predictions == ()
        assert full.stage_predictions == self.PREDICTIONS
        assert '"mean_estimate":1e-320' in self.old_line(full)
