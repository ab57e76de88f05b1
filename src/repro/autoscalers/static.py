"""Static provisioning (the paper's *full-site* setting).

Paper §IV-C: "Static settings with 12 VM instances ... these settings host
workflows with the maximum number of worker instances. We call the sample
runs on these settings *full-site runs*." Full-site is the performance
reference of Fig 6 (fastest, since it always has peak capacity) and the
cost ceiling of Fig 5.
"""

from __future__ import annotations

from repro.cloud.site import CloudSite
from repro.engine.control import Autoscaler, PoolObservation, ScalingDecision

__all__ = ["StaticAutoscaler", "full_site"]


class StaticAutoscaler(Autoscaler):
    """Provision a fixed pool up front and never change it."""

    def __init__(self, size: int, *, name: str | None = None) -> None:
        if not isinstance(size, int) or size <= 0:
            raise ValueError(f"size must be a positive int, got {size!r}")
        self.size = size
        self.name = name if name is not None else f"static-{size}"

    def initial_pool_size(self, site: CloudSite) -> int:
        return min(self.size, site.max_instances)

    def plan(self, obs: PoolObservation) -> ScalingDecision:
        return ScalingDecision()


def full_site(site: CloudSite) -> StaticAutoscaler:
    """The paper's full-site setting: the whole site, statically."""
    return StaticAutoscaler(site.max_instances, name="full-site")
