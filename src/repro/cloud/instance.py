"""Worker instance model.

Paper §III-A: "Each worker instance is an IaaS VM or container instance
with *l* slots to run tasks. A task consumes a single slot of a worker
instance for some period of occupancy."

Instances here are passive state machines; the discrete-event engine
(:mod:`repro.engine.simulator`) drives their lifecycle transitions, and the
billing model (:mod:`repro.cloud.billing`) interprets their timestamps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.util.validation import check_non_negative, check_positive

__all__ = ["Instance", "InstanceState", "InstanceType"]


@dataclass(frozen=True)
class InstanceType:
    """A cloud instance flavor.

    The paper's experiments use ExoGENI ``XOXLarge`` VMs that "can host up
    to four concurrent tasks at a time", which corresponds to
    ``slots=4``. ``speed_factor`` scales task execution time on instances
    of this type (1.0 = nominal) and exists to model the cross-run
    heterogeneity of §II-B; the paper's main experiments use identical
    instances.
    """

    name: str
    slots: int
    price_per_unit: float = 1.0
    speed_factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("instance type name must be non-empty")
        if not isinstance(self.slots, int) or self.slots <= 0:
            raise ValueError(f"slots must be a positive int, got {self.slots!r}")
        check_positive("price_per_unit", self.price_per_unit)
        check_positive("speed_factor", self.speed_factor)


# The paper's worker flavor: XOXLarge with 4 task slots.
XO_XLARGE = InstanceType(name="XOXLarge", slots=4)


class InstanceState(enum.Enum):
    """Lifecycle of a worker instance."""

    PENDING = "pending"  # launch requested, not yet usable (within lag)
    RUNNING = "running"  # usable; accruing charges
    TERMINATED = "terminated"  # released; final cost fixed


@dataclass
class Instance:
    """One worker instance and its slot occupancy.

    Timestamps are simulation seconds. ``requested_at`` is when the launch
    was ordered; ``started_at`` is when it became usable (billing starts
    here); ``terminated_at`` is when it was released.
    """

    instance_id: str
    itype: InstanceType
    requested_at: float
    started_at: float | None = None
    terminated_at: float | None = None
    state: InstanceState = InstanceState.PENDING
    # task ids currently occupying slots (length <= itype.slots)
    occupants: set[str] = field(default_factory=set)
    #: accumulated slot-seconds consumed by attempts on this instance;
    #: maintained only when assign/release are called with timestamps
    #: (the engine passes them; standalone unit tests may omit them)
    busy_slot_seconds: float = 0.0
    #: execution-time multiplier for attempts on this instance (>= 1);
    #: stays 1.0 unless cloud-fault injection marks it a straggler
    #: (:mod:`repro.cloud.faults`)
    slowdown: float = 1.0
    #: set when the provider revoked (preempted) this instance, as
    #: opposed to a planned release; billing still stops at
    #: ``terminated_at``, which is the revocation boundary
    revoked: bool = False
    # owning pool, if any; notified on state/slot changes so it can keep
    # its free-slot and task-placement indexes current (set by
    # InstancePool.create, None for standalone instances)
    _pool: object = field(default=None, repr=False, compare=False)
    # per-occupant slot-assignment times backing busy_slot_seconds
    _assign_times: dict[str, float] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_non_negative("requested_at", self.requested_at)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def mark_running(self, now: float) -> None:
        """Transition PENDING -> RUNNING at time ``now``."""
        if self.state is not InstanceState.PENDING:
            raise RuntimeError(
                f"instance {self.instance_id} cannot start from {self.state}"
            )
        if now < self.requested_at:
            raise ValueError("instance cannot start before it was requested")
        self.state = InstanceState.RUNNING
        self.started_at = now
        if self._pool is not None:
            self._pool._on_instance_state(self)  # type: ignore[attr-defined]

    def mark_terminated(self, now: float) -> None:
        """Transition to TERMINATED at time ``now``.

        Callers must have already vacated or requeued occupant tasks;
        terminating with occupants is a programming error.
        """
        if self.state is InstanceState.TERMINATED:
            raise RuntimeError(f"instance {self.instance_id} already terminated")
        if self.occupants:
            raise RuntimeError(
                f"instance {self.instance_id} terminated with occupants "
                f"{sorted(self.occupants)}"
            )
        if self.started_at is not None and now < self.started_at:
            raise ValueError("instance cannot terminate before it started")
        self.state = InstanceState.TERMINATED
        self.terminated_at = now
        if self._pool is not None:
            self._pool._on_instance_state(self)  # type: ignore[attr-defined]

    def cancel_pending(self) -> None:
        """PENDING -> TERMINATED for an instance that never became usable.

        The instance is never billed; ``terminated_at`` collapses onto
        ``requested_at`` so billing sees zero uptime.
        """
        if self.state is not InstanceState.PENDING:
            raise RuntimeError(
                f"instance {self.instance_id} cannot cancel from {self.state}"
            )
        self.state = InstanceState.TERMINATED
        self.terminated_at = self.requested_at
        if self._pool is not None:
            self._pool._on_instance_state(self)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # slots
    # ------------------------------------------------------------------
    @property
    def free_slots(self) -> int:
        """Number of currently unoccupied slots (0 unless RUNNING)."""
        if self.state is not InstanceState.RUNNING:
            return 0
        return self.itype.slots - len(self.occupants)

    def assign(self, task_id: str, now: float | None = None) -> None:
        """Occupy one slot with ``task_id``.

        ``now`` opts into busy-time accounting: a matched pair of timed
        ``assign``/``release`` calls adds the slot-occupancy interval to
        :attr:`busy_slot_seconds` (the telemetry idle-fraction basis).
        """
        if self.state is not InstanceState.RUNNING:
            raise RuntimeError(
                f"cannot assign task to {self.state.value} instance "
                f"{self.instance_id}"
            )
        if task_id in self.occupants:
            raise RuntimeError(f"task {task_id} already on {self.instance_id}")
        if self.free_slots <= 0:
            raise RuntimeError(f"instance {self.instance_id} has no free slot")
        self.occupants.add(task_id)
        if now is not None:
            self._assign_times[task_id] = now
        if self._pool is not None:
            self._pool._on_assign(self, task_id)  # type: ignore[attr-defined]

    def release(self, task_id: str, now: float | None = None) -> float:
        """Vacate the slot held by ``task_id``.

        Returns the slot-seconds the occupancy added to
        :attr:`busy_slot_seconds` (0.0 for an untimed pair).
        """
        try:
            self.occupants.remove(task_id)
        except KeyError:
            raise RuntimeError(
                f"task {task_id} does not occupy instance {self.instance_id}"
            ) from None
        assigned_at = self._assign_times.pop(task_id, None)
        busy = 0.0
        if now is not None and assigned_at is not None:
            busy = max(0.0, now - assigned_at)
            self.busy_slot_seconds += busy
        if self._pool is not None:
            self._pool._on_release(self, task_id)  # type: ignore[attr-defined]
        return busy

    def uptime(self, now: float) -> float:
        """Seconds of billable uptime as of ``now`` (0 if never started)."""
        if self.started_at is None:
            return 0.0
        end = self.terminated_at if self.terminated_at is not None else now
        return max(0.0, end - self.started_at)
