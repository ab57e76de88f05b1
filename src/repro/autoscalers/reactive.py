"""Pure-reactive autoscaling (paper §IV-C setting 3).

"Elastic settings ruled by the active tasks. At run time, the capacities
of these settings are determined by the number of idle/running tasks."

The pool is sized to the instantaneous runnable load — one slot per
ready-or-running task — with no prediction, no charging-unit awareness,
and immediate releases. Its weakness is exactly what WIRE fixes: it
releases instances mid-charging-unit (forfeiting paid time) and re-launches
them one lag later when the next stage fires.
"""

from __future__ import annotations

import math

from repro.engine.control import (
    Autoscaler,
    PoolObservation,
    ScalingDecision,
    TerminationOrder,
)

__all__ = ["PureReactiveAutoscaler"]


class PureReactiveAutoscaler(Autoscaler):
    """Track the instantaneous task load, one slot per runnable task.

    The load is summed over every observed workflow, so the same policy
    sizes a fleet's shared pool (``global-reactive``). The floor is
    ``max(1, site.min_instances)``, as for every elastic policy here: a
    fleet between arrivals keeps one instance, and a single run has no
    runnable task only once it is done.
    """

    name = "pure-reactive"

    def plan(self, obs: PoolObservation) -> ScalingDecision:
        slots = obs.site.itype.slots
        load = obs.runnable_task_count()
        target = max(
            max(1, obs.site.min_instances),
            min(math.ceil(load / slots), obs.site.max_instances),
        )
        current = obs.effective_pool_size()
        if target > current:
            return ScalingDecision(launch=target - current)
        if target == current:
            return ScalingDecision()
        # Shrink immediately: prefer the emptiest instances so the fewest
        # running tasks get killed. No charge-boundary awareness — that is
        # this baseline's defining waste.
        candidates = sorted(
            obs.steerable_instances(),
            key=lambda i: (len(i.occupants), i.instance_id),
        )
        orders = tuple(
            TerminationOrder(instance_id=i.instance_id, at=obs.now)
            for i in candidates[: current - target]
        )
        return ScalingDecision(terminations=orders)
