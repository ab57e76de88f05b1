"""Per-tenant and aggregate results of a fleet run."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

__all__ = ["FleetResult", "TenantResult"]


@dataclass(frozen=True)
class TenantResult:
    """Final per-tenant metrics of a fleet run.

    ``slowdown`` is the workflow's response time (finish − submit,
    including any admission wait) normalized by its zero-contention
    critical path length — the standard workload-of-workflows fairness
    metric. ``attributed_*`` split the shared bill proportionally to
    each tenant's busy slot-seconds on every instance.
    """

    tenant_id: str
    workload: str
    priority: int
    submitted_at: float
    finished_at: float
    makespan: float
    critical_path: float
    slowdown: float
    queue_wait_mean: float
    tasks: int
    restarts: int
    attributed_cost: float
    attributed_units: float
    attributed_wasted_seconds: float
    completed: bool


@dataclass(frozen=True)
class FleetResult:
    """Everything a fleet simulation produced.

    ``to_summary_json`` is the canonical byte-deterministic rendering
    used by the CLI ``--summary-json`` flag and the CI determinism
    check; it deliberately excludes ``controller_cpu_seconds`` (a
    wall-clock measurement) so identical seeds yield identical bytes.
    """

    autoscaler_name: str
    allocation_policy: str
    charging_unit: float
    seed: int
    n_tenants: int
    makespan: float
    completed: bool
    total_units: float
    total_cost: float
    wasted_seconds: float
    #: cost of instances that never ran any task — billed to the fleet
    #: operator, not to a tenant (no busy share to key attribution on)
    unattributed_cost: float
    utilization: float
    peak_instances: int
    instances_launched: int
    restarts: int
    ticks: int
    events_processed: int
    cloud_faults: int
    tenants: tuple[TenantResult, ...]
    controller_cpu_seconds: float = field(default=0.0, compare=False)

    @property
    def mean_slowdown(self) -> float:
        if not self.tenants:
            return 0.0
        return sum(t.slowdown for t in self.tenants) / len(self.tenants)

    @property
    def mean_queue_wait(self) -> float:
        if not self.tenants:
            return 0.0
        return sum(t.queue_wait_mean for t in self.tenants) / len(self.tenants)

    def to_summary_json(self) -> str:
        """Deterministic JSON summary (same seed ⇒ identical bytes)."""
        payload = asdict(self)
        del payload["controller_cpu_seconds"]
        payload["mean_slowdown"] = self.mean_slowdown
        payload["mean_queue_wait"] = self.mean_queue_wait
        return json.dumps(payload, sort_keys=True, indent=2)
