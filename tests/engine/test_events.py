"""Tests for the discrete-event queue."""

from __future__ import annotations

import pytest

from repro.engine import Event, EventKind, EventQueue


class TestOrdering:
    def test_pops_by_time(self):
        q = EventQueue()
        q.push(5.0, EventKind.EXEC_DONE, "b")
        q.push(1.0, EventKind.EXEC_DONE, "a")
        assert q.pop().payload == "a"
        assert q.pop().payload == "b"

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        q.push(1.0, EventKind.EXEC_DONE, "first")
        q.push(1.0, EventKind.EXEC_DONE, "second")
        assert q.pop().payload == "first"
        assert q.pop().payload == "second"

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(3.0, EventKind.CONTROLLER_TICK)
        assert q.peek_time() == 3.0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(-1.0, EventKind.EXEC_DONE, "x")

    def test_unhashable_payload_queues(self):
        # the queue never hashes payloads, so any object can ride along
        q = EventQueue()
        q.push(1.0, EventKind.EXEC_DONE, ["not", "hashable"])
        assert q.pop().payload == ["not", "hashable"]

    def test_same_time_fires_by_kind_priority(self):
        # completions, then releases and revocations, then the tick
        q = EventQueue()
        q.push(1.0, EventKind.CONTROLLER_TICK, "tick")
        q.push(1.0, EventKind.INSTANCE_REVOKED, "revoke")
        q.push(1.0, EventKind.INSTANCE_TERMINATE, "release")
        q.push(1.0, EventKind.EXEC_DONE, "done")
        assert [q.pop().payload for _ in range(4)] == [
            "done", "revoke", "release", "tick"
        ]
        assert [k.priority for k in (
            EventKind.EXEC_DONE, EventKind.INSTANCE_TERMINATE, EventKind.CONTROLLER_TICK
        )] == [0, 1, 2]

    def test_pushed_event_equals_a_constructed_one(self):
        # push builds events past the dataclass __init__; they must be
        # the same value objects a direct construction gives
        q = EventQueue()
        q.push(0.0, EventKind.CONTROLLER_TICK)
        event = q.push(2.5, EventKind.EXEC_DONE, "t1")
        assert event == Event(2.5, 1, EventKind.EXEC_DONE, "t1")
        assert hash(event) == hash(Event(2.5, 1, EventKind.EXEC_DONE, "t1"))
        with pytest.raises(AttributeError):
            event.time = 3.0  # type: ignore[misc]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        q = EventQueue()
        keep = q.push(1.0, EventKind.EXEC_DONE, "keep")
        drop = q.push(0.5, EventKind.EXEC_DONE, "drop")
        q.cancel(drop)
        assert q.pop().payload == "keep"

    def test_len_accounts_for_cancellation(self):
        q = EventQueue()
        e = q.push(1.0, EventKind.EXEC_DONE)
        assert len(q) == 1
        q.cancel(e)
        assert len(q) == 0
        assert not q

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        e = q.push(1.0, EventKind.EXEC_DONE)
        q.push(2.0, EventKind.EXEC_DONE)
        q.cancel(e)
        assert q.peek_time() == 2.0

    def test_bool(self):
        q = EventQueue()
        assert not q
        q.push(1.0, EventKind.EXEC_DONE)
        assert q


class TestCancellationBookkeeping:
    """Regression: cancel() must be idempotent against popped and
    double-cancelled seqs — the historical implementation grew its
    cancelled set unboundedly and corrupted ``len()`` in those cases."""

    def test_cancel_after_pop_is_a_noop(self):
        q = EventQueue()
        e = q.push(1.0, EventKind.EXEC_DONE, "x")
        q.push(2.0, EventKind.EXEC_DONE, "y")
        assert q.pop() is e
        q.cancel(e)  # already popped: must not affect the live event
        assert len(q) == 1
        assert q.pop().payload == "y"
        assert len(q) == 0

    def test_double_cancel_counts_once(self):
        q = EventQueue()
        e = q.push(1.0, EventKind.EXEC_DONE)
        q.push(2.0, EventKind.EXEC_DONE)
        q.cancel(e)
        q.cancel(e)
        assert len(q) == 1
        assert q.pop().time == 2.0
        assert not q

    def test_cancel_then_pop_then_cancel_again(self):
        q = EventQueue()
        e = q.push(1.0, EventKind.EXEC_DONE)
        live = q.push(2.0, EventKind.EXEC_DONE)
        q.cancel(e)
        assert q.pop() is live
        q.cancel(e)  # seq long gone
        assert len(q) == 0
        with pytest.raises(IndexError):
            q.pop()

    def test_len_never_negative_under_mixed_ops(self):
        q = EventQueue()
        events = [q.push(float(i), EventKind.EXEC_DONE) for i in range(10)]
        for e in events[:5]:
            q.cancel(e)
            q.cancel(e)
        for e in events[:3]:
            q.cancel(e)
        assert len(q) == 5
        popped = [q.pop() for _ in range(5)]
        assert [e.time for e in popped] == [5.0, 6.0, 7.0, 8.0, 9.0]
        for e in popped:
            q.cancel(e)
        assert len(q) == 0
        assert not q
