"""Fluent construction of workflow DAGs.

:class:`WorkflowBuilder` accumulates tasks and edges, offering convenience
methods for the patterns workload generators need most: fan-out stages,
all-to-all stage barriers, and chains.
"""

from __future__ import annotations

from itertools import repeat

from repro.dag.task import Task
from repro.dag.workflow import Workflow

__all__ = ["WorkflowBuilder"]


class WorkflowBuilder:
    """Incrementally build a :class:`~repro.dag.workflow.Workflow`.

    Example
    -------
    >>> b = WorkflowBuilder("demo")
    >>> _ = b.add_task(Task("split", "split", runtime=5.0))
    >>> maps = b.add_stage("map", count=3, runtime=10.0, parents=["split"])
    >>> _ = b.add_task(Task("merge", "merge", runtime=2.0), parents=maps)
    >>> wf = b.build()
    >>> len(wf), len(wf.stages)
    (5, 3)
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._tasks: list[Task] = []
        self._task_ids: set[str] = set()
        self._edges: list[tuple[str, str]] = []

    def add_task(
        self, task: Task, parents: list[str] | tuple[str, ...] = ()
    ) -> str:
        """Add one task, optionally depending on ``parents``.

        Returns the task id for chaining.
        """
        if task.task_id in self._task_ids:
            raise ValueError(f"duplicate task id {task.task_id!r}")
        if not self._task_ids.issuperset(parents):
            for parent in parents:
                if parent not in self._task_ids:
                    raise ValueError(f"unknown parent task {parent!r}")
        self._tasks.append(task)
        self._task_ids.add(task.task_id)
        self._edges.extend(zip(parents, repeat(task.task_id)))
        return task.task_id

    def add_edge(self, parent: str, child: str) -> None:
        """Add a dependency edge between two existing tasks."""
        for endpoint in (parent, child):
            if endpoint not in self._task_ids:
                raise ValueError(f"unknown task {endpoint!r}")
        self._edges.append((parent, child))

    def add_stage(
        self,
        executable: str,
        count: int,
        runtime: float | list[float],
        *,
        parents: list[str] | tuple[str, ...] = (),
        input_sizes: float | list[float] = 0.0,
        output_sizes: float | list[float] = 0.0,
        prefix: str | None = None,
    ) -> list[str]:
        """Add ``count`` tasks sharing an executable, all-to-all after ``parents``.

        ``runtime``, ``input_sizes`` and ``output_sizes`` may be scalars
        (applied to every task) or per-task lists of length ``count``.
        Returns the new task ids in creation order.
        """
        if count <= 0:
            raise ValueError(f"count must be > 0, got {count}")

        def per_task(value: float | list[float], what: str) -> list[float]:
            if isinstance(value, (int, float)):
                return [float(value)] * count
            if len(value) != count:
                raise ValueError(
                    f"{what} has {len(value)} entries for {count} tasks"
                )
            return [float(v) for v in value]

        runtimes = per_task(runtime, "runtime")
        inputs = per_task(input_sizes, "input_sizes")
        outputs = per_task(output_sizes, "output_sizes")
        base = prefix if prefix is not None else executable
        ids: list[str] = []
        for i in range(count):
            # Zero-padding keeps lexicographic order == creation order, which
            # makes topological tie-breaking intuitive in tests and traces.
            width = max(4, len(str(count - 1)))
            tid = f"{base}-{i:0{width}d}"
            self.add_task(
                Task(
                    task_id=tid,
                    executable=executable,
                    runtime=runtimes[i],
                    input_size=inputs[i],
                    output_size=outputs[i],
                ),
                parents=parents,
            )
            ids.append(tid)
        return ids

    def build(self) -> Workflow:
        """Validate and return the immutable workflow."""
        return Workflow(self.name, self._tasks, self._edges)
