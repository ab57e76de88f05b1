"""Discrete-event primitives.

The engine advances simulated time through a priority queue of events.
Ordering is ``(time, kind priority, seq)``: at equal timestamps, task
lifecycle progress and instance arrivals fire before instance
terminations, and controller ticks observe last. The kind ordering is
load-bearing — WIRE releases instances exactly at their charge boundary,
and a task predicted to finish "by the boundary" must complete before the
termination fires or it would be killed at 100% sunk cost. The ``seq``
insertion counter breaks remaining ties, keeping runs bit-reproducible.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.util.pickling import pickle_by_slots

__all__ = ["Event", "EventKind", "EventQueue"]


class EventKind(enum.Enum):
    """All event types the workflow engine understands."""

    INSTANCE_READY = "instance_ready"  # a PENDING instance becomes usable
    INSTANCE_TERMINATE = "instance_terminate"  # a scheduled release fires
    STAGE_IN_DONE = "stage_in_done"  # a task finished staging input data
    EXEC_DONE = "exec_done"  # a task finished computing
    STAGE_OUT_DONE = "stage_out_done"  # a task finished writing output
    TASK_FAILED = "task_failed"  # an attempt died mid-execution (fault)
    CONTROLLER_TICK = "controller_tick"  # a MAPE iteration begins
    INSTANCE_REVOKED = "instance_revoked"  # the provider preempts an instance
    PROVISION_FAILED = "provision_failed"  # an ordered launch came back failed
    PROVISION_RETRY = "provision_retry"  # backoff elapsed; re-issue a launch
    WORKFLOW_ARRIVAL = "workflow_arrival"  # a tenant submits a workflow (fleet)

    #: same-timestamp ordering class (lower fires first); a plain
    #: per-member attribute, so a push reads it without hashing the member
    _priority: int

    @property
    def priority(self) -> int:
        """Same-timestamp ordering class (lower fires first)."""
        return self._priority


for _kind in EventKind:
    _kind._priority = 0
EventKind.INSTANCE_TERMINATE._priority = 1
# A revocation at time t must not beat a completion at time t: the task
# legitimately finished before the provider pulled the plug. Same
# ordering class as a planned release.
EventKind.INSTANCE_REVOKED._priority = 1
EventKind.CONTROLLER_TICK._priority = 2


@pickle_by_slots
@dataclass(frozen=True, slots=True)
class Event:
    """One scheduled occurrence.

    ``payload`` identifies the subject (a task id, an instance id, ...).
    Events carry no behaviour; the simulator dispatches on ``kind``.
    """

    time: float
    seq: int
    kind: EventKind
    payload: Any = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")


#: ``push`` builds events through the slot descriptors, past the
#: frozen dataclass ``__init__`` and its per-field ``object.__setattr__``
_new_event = object.__new__
_set_time = Event.time.__set__  # type: ignore[attr-defined]
_set_seq = Event.seq.__set__  # type: ignore[attr-defined]
_set_kind = Event.kind.__set__  # type: ignore[attr-defined]
_set_payload = Event.payload.__set__  # type: ignore[attr-defined]


@dataclass
class EventQueue:
    """A deterministic min-heap of events.

    Cancellation is lazy (cancelled events stay heap-resident until
    popped) and idempotent: cancelling an event that was already popped,
    or cancelling twice, is a no-op, so ``__len__`` stays exact. The
    queue keeps no index by subject: whoever needs to retract an event
    keeps the handle :meth:`push` returned.
    """

    _heap: list[tuple[float, int, int, Event]] = field(default_factory=list)
    _counter: itertools.count = field(default_factory=itertools.count)
    _cancelled: set[int] = field(default_factory=set)
    #: seqs currently in the heap and not cancelled
    _live: set[int] = field(default_factory=set)

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event and return it (its ``seq`` allows cancellation)."""
        if time < 0:
            raise ValueError(f"event time must be >= 0, got {time}")
        seq = next(self._counter)
        event = _new_event(Event)
        _set_time(event, time)
        _set_seq(event, seq)
        _set_kind(event, kind)
        _set_payload(event, payload)
        heapq.heappush(self._heap, (time, kind._priority, seq, event))
        self._live.add(seq)
        return event

    def cancel(self, event: Event) -> None:
        """Mark ``event`` so it is skipped when popped (lazy deletion).

        Cancelling an event that was already popped (or already
        cancelled) is a no-op: only seqs still live in the heap enter the
        cancelled set, so the size bookkeeping cannot drift.
        """
        if event.seq in self._live:
            self._live.discard(event.seq)
            self._cancelled.add(event.seq)

    def pop(self) -> Event:
        """Remove and return the earliest pending event."""
        while self._heap:
            _, _, seq, event = heapq.heappop(self._heap)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self._live.discard(seq)
            return event
        raise IndexError("pop from empty EventQueue")

    def peek_time(self) -> float | None:
        """Time of the earliest pending event, or None when empty."""
        while self._heap:
            time, _, seq, _ = self._heap[0]
            if seq in self._cancelled:
                heapq.heappop(self._heap)
                self._cancelled.discard(seq)
                continue
            return time
        return None

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)
