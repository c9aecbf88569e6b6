"""Shared vocabulary types for nodes and tasks.

A node's profile is its hardware, its dynamic status and the task
typologies it runs; a task names its typology, work, memory, inputs and
deadline.

Everything here is an immutable value object, so these types are safe to
share between per-node state machines: a profile gossiped in a registry entry
is the same object in every agent that holds the entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Final, Union

from . import wire

NodeId = int
TaskId = int
DataSourceId = int

#: Sentinel battery level for nodes without a battery constraint.
MAINS: Final[str] = "MAINS"

BatteryLevel = Union[float, str]


def is_mains(battery: BatteryLevel) -> bool:
    return isinstance(battery, str) and battery == MAINS


@dataclass(frozen=True)
class Position:
    """A point on the 2-D plane, in meters."""

    x: float
    y: float


def distance(a: Position, b: Position) -> float:
    """Euclidean distance in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class StaticHardwareProfile:
    cpu_perf_index: float  # work-units per second
    memory: int  # MiB
    link_bandwidth: float  # MiB per second
    drain_rate: float  # battery fraction per second, while on battery


@dataclass(frozen=True)
class DynamicStatus:
    """What a node publishes about its current state. Its owner republishes
    it when a field changes and also when the set of runs it holds changes
    (`AntiEntropy.publish_profile`); that set is not part of the status."""

    utilization: float  # [0, 1]
    battery: BatteryLevel  # [0, 1] or MAINS
    position: Position

    @classmethod
    def from_dict(cls, d: list) -> "DynamicStatus":
        """The status `[utilization, battery, x, y]` stands for."""
        utilization, battery, x, y = d
        return cls(
            utilization=float(utilization),
            battery=battery if is_mains(battery) else float(battery),
            position=Position(float(x), float(y)),
        )


@dataclass(frozen=True)
class DataInput:
    """Reference to one task input: a data source and its size in MiB."""

    source: DataSourceId
    size: float


@dataclass(frozen=True)
class TaskSpec:
    task_id: TaskId
    typology: str
    work: float  # work-units
    memory_demand: int  # MiB
    input_data: tuple = ()  # tuple of DataInput
    deadline: float = 60.0  # seconds from submission
    origin_node: NodeId = 0

    def to_dict(self) -> wire.ListRecord:
        """The positional wire form (see `wire`), built once per task and
        shared by its OFFERs: read-only."""
        return self._record

    @cached_property
    def _record(self) -> wire.ListRecord:
        return wire.ListRecord([
            self.task_id, self.typology, self.work, self.memory_demand, self.deadline,
            self.origin_node, [[i.source, i.size] for i in self.input_data],
        ], self)

    @classmethod
    def from_dict(cls, d: list) -> "TaskSpec":
        task_id, typology, work, memory_demand, deadline, origin_node, inputs = d
        return cls(
            int(task_id), str(typology), float(work), int(memory_demand),
            tuple(DataInput(int(s), float(size)) for s, size in inputs),
            float(deadline), int(origin_node),
        )


@dataclass(frozen=True)
class NodeProfile:
    node: NodeId
    hw: StaticHardwareProfile
    dyn: DynamicStatus
    typologies: frozenset  # task typologies this node runs

    def with_dyn(self, **changes) -> "NodeProfile":
        return replace(self, dyn=replace(self.dyn, **changes))

    def to_dict(self) -> list:
        """The positional wire form: `[node, cpu_perf_index, memory,
        link_bandwidth, drain_rate, utilization, battery, x, y,
        [typologies...]]`, with the typologies sorted."""
        hw, dyn = self.hw, self.dyn
        return [
            self.node, hw.cpu_perf_index, hw.memory, hw.link_bandwidth, hw.drain_rate,
            dyn.utilization, dyn.battery, dyn.position.x, dyn.position.y,
            sorted(self.typologies),
        ]

    @classmethod
    def from_dict(cls, d: list) -> "NodeProfile":
        node, cpu_perf_index, memory, link_bandwidth, drain_rate, *dyn, typologies = d
        return cls(
            node=int(node),
            hw=StaticHardwareProfile(
                cpu_perf_index=float(cpu_perf_index),
                memory=int(memory),
                link_bandwidth=float(link_bandwidth),
                drain_rate=float(drain_rate),
            ),
            dyn=DynamicStatus.from_dict(dyn),
            typologies=frozenset(typologies),
        )


def capability_match(task: TaskSpec, profile: NodeProfile) -> bool:
    """Can this node run this task at all?

    Checks the node's typologies, memory capacity and that the node is not
    battery-dead. Total function: never raises on validated inputs.
    """
    if task.typology not in profile.typologies:
        return False
    if task.memory_demand > profile.hw.memory:
        return False
    battery = profile.dyn.battery
    if not is_mains(battery) and battery <= 0.0:
        return False
    return True


def validate_profile(profile: NodeProfile) -> list:
    """Collect every violated invariant as a 'field.path: message' string.

    An empty list means the profile is valid.
    """
    violations: list = []

    hw = profile.hw
    if not (hw.cpu_perf_index > 0):
        violations.append("hw.cpu_perf_index not positive")
    elif hw.cpu_perf_index == math.inf:
        violations.append("hw.cpu_perf_index not finite")
    if not (hw.memory > 0):
        violations.append("hw.memory not positive")
    if not (hw.link_bandwidth > 0):
        violations.append("hw.link_bandwidth not positive")
    elif hw.link_bandwidth == math.inf:
        violations.append("hw.link_bandwidth not finite")
    if not (0 <= hw.drain_rate < math.inf):
        violations.append("hw.drain_rate not finite or negative")

    dyn = profile.dyn
    if not (0.0 <= dyn.utilization <= 1.0):
        violations.append("dyn.utilization out of [0,1]")
    if not is_mains(dyn.battery):
        if not isinstance(dyn.battery, (int, float)) or not (0.0 <= dyn.battery <= 1.0):
            violations.append("dyn.battery out of [0,1]")
    if not (math.isfinite(dyn.position.x) and math.isfinite(dyn.position.y)):
        violations.append("dyn.position not finite")

    if not all(profile.typologies):
        violations.append("typologies contains empty label")

    return violations


def validate_task(task: TaskSpec) -> list:
    """Invariant check for TaskSpec, same contract as validate_profile."""
    violations: list = []
    if not (task.work > 0):
        violations.append("work not positive")
    elif task.work == math.inf:
        violations.append("work not finite")
    if task.memory_demand < 0:
        violations.append("memory_demand negative")
    if not task.typology:
        violations.append("typology empty")
    if not (task.deadline > 0):
        violations.append("deadline not positive")
    if not all(inp.size > 0 for inp in task.input_data):
        violations.append("input_data size not positive")
    elif any(inp.size == math.inf for inp in task.input_data):
        violations.append("input_data size not finite")
    return violations
