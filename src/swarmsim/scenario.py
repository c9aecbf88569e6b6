"""Scenario files: YAML description of a swarm run, loader, builder, runner.

A scenario names the nodes (hardware, task typologies, energy, position), the
network model, optional churn/mobility/partition events, data sources and a
workload (explicit task list and/or a generated arrival stream). The builder
turns it into a wired Simulator plus one NodeAgent per node; the runner
drives it in sampling steps so the metrics collector can observe global
state at a fixed cadence.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import ClassVar

import yaml

from . import sim as simlib
from .agent import NodeAgent
from .dataplane import DataSourceDescriptor
from .metrics import MetricsCollector, MetricsReport
from .model import (
    MAINS,
    DataInput,
    DynamicStatus,
    NodeProfile,
    Position,
    StaticHardwareProfile,
    TaskSpec,
    is_mains,
    validate_profile,
    validate_task,
)
from .scheduler import SchedulerParams
from .sim import NetModel, Simulator


@dataclass
class NodeSpec:
    """A node of the scenario: its profile as it starts, and when it joins."""

    profile: NodeProfile
    start_time: float


@dataclass
class Scenario:
    name: str
    duration: float  # None when unreadable, a problem found by the parse
    seed: int = 0
    net: NetModel = field(default_factory=NetModel)
    scheduler: SchedulerParams = field(default_factory=SchedulerParams)
    nodes: list = field(default_factory=list)  # NodeSpec
    data_sources: list = field(default_factory=list)  # DataSourceDescriptor
    tasks: list = field(default_factory=list)  # (at, TaskSpec)
    events: list = field(default_factory=list)  # raw event dicts
    partitions: list = field(default_factory=list)  # (a, b, start, end)
    sample_period: ClassVar[float] = 1.0  # seconds between metrics samples
    parse_problems: list = field(default_factory=list)  # from parse_scenario

    def check(self) -> None:
        """Raise ValueError naming every problem `validate` finds."""
        problems = self.validate()
        if problems:
            raise ValueError("invalid scenario: " + "; ".join(problems))

    def validate(self) -> list:
        """Collect every problem as a human-readable string; [] means ok."""
        problems = list(self.parse_problems)
        ids = [n.profile.node for n in self.nodes]
        known = set(ids)
        if len(ids) != len(set(ids)):
            problems.append("nodes: duplicate node ids")
        # The run samples up to the duration, so it must be finite. Windows
        # are checked against a usable duration only: a bad one is one
        # problem, not one per node, task and event.
        horizon = math.inf
        if self.duration is not None:
            if 0 < self.duration < math.inf:
                horizon = self.duration
            else:
                problems.append("duration: must be positive and finite")
        for spec in self.nodes:
            for issue in validate_profile(spec.profile):
                problems.append(f"node {spec.profile.node}: {issue}")
            if not 0 <= spec.start_time < horizon:
                problems.append(f"node {spec.profile.node}: start_time outside run window")
        owners = {}
        for desc in self.data_sources:
            if desc.owner not in known:
                problems.append(f"data source {desc.id}: unknown owner {desc.owner}")
            if not desc.replicas <= known:
                problems.append(
                    f"data source {desc.id}: unknown replica nodes "
                    f"{sorted(desc.replicas - known)}"
                )
            if desc.id in owners:
                problems.append(f"data source {desc.id}: duplicate id")
            owners[desc.id] = desc.owner
        seen_tasks = set()
        for at, task in self.tasks:
            label = f"task {task.task_id}"
            if task.task_id in seen_tasks:
                problems.append(f"{label}: duplicate task id")
            seen_tasks.add(task.task_id)
            if task.origin_node not in known:
                problems.append(f"{label}: unknown origin {task.origin_node}")
            if not 0 <= at <= horizon:
                problems.append(f"{label}: arrival {at} outside run window")
            for issue in validate_task(task):
                problems.append(f"{label}: {issue}")
            for inp in task.input_data:
                if inp.source not in owners:
                    problems.append(f"{label}: unknown data source {inp.source}")
        for ev in self.events:
            label = f"event {ev['type']}"
            if ev["type"] not in _EVENT_TYPES:
                problems.append(
                    f"{label}: unknown event type (expected one of "
                    f"{', '.join(_EVENT_TYPES)})"
                )
            elif ev["type"] == "move":
                to = _move_target(ev.get("to"))
                if to is None:
                    problems.append(f"{label}: needs `to` as [x, y] or {{x: .., y: ..}}")
                elif not (math.isfinite(to.x) and math.isfinite(to.y)):
                    problems.append(f"{label}: to: not finite")
            if ev["node"] not in known:
                problems.append(f"{label}: unknown node {ev['node']}")
            if not 0 <= ev["at"] <= horizon:
                problems.append(f"{label}: time outside run window")
        for a, b, start, end in self.partitions:
            if not set(a) <= known or not set(b) <= known:
                problems.append("partition: unknown node ids")
            if set(a) & set(b):
                problems.append("partition: groups overlap")
            if not 0 <= start <= horizon:
                problems.append("partition: start outside run window")
            if not start < end:
                problems.append("partition: start must precede end")
        return problems


def _position(raw) -> Position:
    """A list of two numbers, or a mapping with exactly the keys x and y."""
    if isinstance(raw, dict) and raw.keys() == {"x", "y"}:
        x, y = raw["x"], raw["y"]
    elif isinstance(raw, list):
        x, y = raw
    else:
        raise TypeError(f"not a position: {raw!r}")
    return Position(_float(x), _float(y))


def _move_target(raw):
    """A move event's `to` as a Position; None when it is malformed."""
    try:
        return _position(raw)
    except (TypeError, ValueError, KeyError):
        return None


def _battery(raw):
    if is_mains(raw):
        return MAINS
    return _float(raw)


def _float(raw) -> float:
    """A number: what `float` reads (an int, a float, a numeric string),
    except a bool, which would read as 1.0 or 0.0."""
    if isinstance(raw, bool):
        raise TypeError(f"not a number: {raw!r}")
    return float(raw)


def _int(raw) -> int:
    """An integer: an int, a float with an integral value (512.0) or a
    numeric string. A bool, a fraction and a non-finite value raise, rather
    than reading as 1, a truncation or an overflow."""
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise TypeError(f"not an integer: {raw!r}")
    return int(raw)


def _str(raw) -> str:
    """A string as it is; anything else raises rather than reading as its
    text (a typology 5 would never match a node that lists 5)."""
    if not isinstance(raw, str):
        raise TypeError(f"not a string: {raw!r}")
    return raw


def _sequence(raw) -> list:
    """A list (or tuple) as it is; anything else raises, so a string or a
    mapping is not read item by item."""
    if not isinstance(raw, (list, tuple)):
        raise TypeError(f"not a list: {raw!r}")
    return raw


def _ints(raw) -> list:
    return [_int(n) for n in _sequence(raw)]


def _strs(raw) -> tuple:
    return tuple(_str(s) for s in _sequence(raw))


_EXPECTED = {
    _float: "a number",
    _int: "an integer",
    _str: "a string",
    dict: "a mapping",
    _position: "[x, y] or {x: .., y: ..}",
    _battery: "a number or MAINS",
    _ints: "a list of integers",
    _strs: "a list of strings",
}
_REQUIRED = object()


class _Fields:
    """Typed reads from one mapping of a scenario file.

    A missing required field, or a value its cast rejects, becomes a problem
    naming the item and the field and reads as the cast default (None when
    required), so parsing goes on and `Scenario.validate` lists every
    problem at once. `finish`, called after the last read, makes every key
    no read asked for a problem too.
    """

    def __init__(self, raw, label: str, problems: list):
        self.label = label
        self.problems = problems
        self.raw = raw if isinstance(raw, dict) else {}
        self.read = set()
        if not isinstance(raw, dict):
            problems.append(f"{label}: expected a mapping, got {raw!r}")

    def _problem(self, key: str, issue: str) -> None:
        self.problems.append(f"{self.label}: {key}: {issue}" if self.label else f"{key}: {issue}")

    def take(self, key: str, default=None):
        """An optional field's raw value, left for a later reader to check."""
        self.read.add(key)
        return self.raw.get(key, default)

    def __call__(self, key: str, cast, default=_REQUIRED):
        value = self.take(key, default)
        if value is _REQUIRED:
            self._problem(key, "required")
            return None
        try:
            return cast(value)
        except (TypeError, ValueError, KeyError):
            self._problem(key, f"expected {_EXPECTED[cast]}, got {value!r}")
            return None if default is _REQUIRED else cast(default)

    def list(self, key: str) -> list:
        """An optional list field; anything else is a problem and reads []."""
        value = self.take(key, [])
        if isinstance(value, list):
            return value
        self._problem(key, f"expected a list, got {value!r}")
        return []

    def finish(self) -> None:
        """Report each key of the mapping that no read asked for."""
        prefix = f"{self.label}: " if self.label else ""
        for key in self.raw:
            if key not in self.read:
                self.problems.append(f"{prefix}unknown field {key}")


def _node_spec(raw, index: int, problems: list):
    """The node's spec, or None when it has no usable id."""
    get = _Fields(raw, f"nodes[{index}]", problems)
    node = get("id", _int)
    if node is not None:
        get.label = f"node {node}"
    profile = NodeProfile(
        node=node,
        hw=StaticHardwareProfile(
            cpu_perf_index=get("cpu_perf_index", _float, 1.0),
            memory=get("memory", _int, 1024),
            link_bandwidth=get("link_bandwidth", _float, 10.0),
            drain_rate=get("drain_rate", _float, 0.0),
        ),
        dyn=DynamicStatus(
            utilization=get("utilization", _float, 0.0),
            battery=get("battery", _battery, MAINS),
            position=get("position", _position, [0.0, 0.0]),
        ),
        typologies=frozenset(get("typologies", _strs, ())),
    )
    spec = NodeSpec(profile, get("start_time", _float, 0.0))
    get.finish()
    return None if node is None else spec


def _task_spec(raw, source_sizes: dict, label: str, problems: list):
    """(arrival, task), or None when a required field is unusable."""
    get = _Fields(raw, label, problems)
    inputs = []
    for k, inp in enumerate(get.list("inputs")):
        get_input = _Fields(inp, f"{label}: inputs[{k}]", problems)
        source = get_input("source", _int)
        size = get_input("size", _float, source_sizes.get(source, 0.0))
        get_input.finish()
        if source is not None:
            inputs.append(DataInput(source=source, size=size))
    required = (
        get("id", _int), get("typology", _str), get("work", _float),
        get("origin", _int), get("at", _float),
    )
    memory, deadline = get("memory", _int, 0), get("deadline", _float, 60.0)
    get.finish()
    if None in required:
        return None
    task_id, typology, work, origin, at = required
    task = TaskSpec(
        task_id=task_id,
        typology=typology,
        work=work,
        memory_demand=memory,
        input_data=tuple(inputs),
        deadline=deadline,
        origin_node=origin,
    )
    return at, task


def _generate_tasks(raw, scenario_seed: int, source_sizes: dict, problems: list) -> list:
    """Deterministic arrival stream: fixed interval plus seeded jitter."""
    get = _Fields(raw, "workload", problems)
    count = get("count", _int)
    start = get("start", _float, 0.0)
    interval = get("interval", _float, 1.0)
    jitter = get("jitter", _float, 0.0)
    origins = get("origins", _ints)
    first_id = get("first_id", _int, 1000)
    template = get("template", dict, {})
    for key in ("id", "origin", "at"):  # set per task below
        if key in template:
            problems.append(f"workload: template: unknown field {key}")
    # Task fields set on the workload itself; the template's win. Each task
    # checks them.
    defaults = {
        key: get.take(key, default)
        for key, default in (
            ("typology", "generic"), ("work", 1.0), ("memory", 0),
            ("deadline", 60.0), ("inputs", []),
        )
    }
    get.finish()
    if origins == []:
        problems.append("workload: origins: empty")
    if count is not None and count < 0:
        problems.append("workload: count: must be >= 0")
    if count is None or count < 0 or not origins:
        return []
    rng = simlib.substream(scenario_seed, "workload")
    out = []
    for i in range(count):
        at = start + i * interval + (jitter * rng.random() if jitter else 0.0)
        spec = {**defaults, **template}
        spec["id"] = first_id + i
        spec["origin"] = origins[i % len(origins)]
        spec["at"] = at
        pair = _task_spec(spec, source_sizes, "workload", problems)
        if pair is None:
            break  # the same template fails for every task
        out.append(pair)
    return out


def _settings(cls, raw, label: str, problems: list) -> dict:
    """Keyword arguments for the dataclass `cls` from a mapping: an unknown
    key, or a non-number (a bool included) for a numeric field, is a problem
    and dropped."""
    get = _Fields({} if raw is None else raw, label, problems)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    out = {}
    for key, value in get.raw.items():
        if key not in defaults:
            problems.append(f"{label}: unknown field {key}")
        elif isinstance(defaults[key], (int, float)) and (
            isinstance(value, bool) or not isinstance(value, (int, float))
        ):
            problems.append(f"{label}: {key}: expected a number, got {value!r}")
        else:
            out[key] = value
    return out


def _build_checked(base, kwargs: dict, label: str, problems: list):
    """`base` with `kwargs` replaced, or `base` with a problem when the
    dataclass's own checks fail."""
    try:
        return dataclasses.replace(base, **kwargs)
    except ValueError as exc:
        problems.append(f"{label}: {exc}")
        return base


def scheduler_params(base: SchedulerParams, raw, label: str, problems: list) -> SchedulerParams:
    """`base` with the fields a scheduler mapping sets: a scenario's
    `scheduler:` block, or a compare variant. A problem with the mapping
    goes to `problems`, like any settings block's."""
    kwargs = _settings(SchedulerParams, raw, label, problems)
    return _build_checked(base, kwargs, label, problems)


def parse_scenario(raw: dict) -> Scenario:
    """The scenario a raw mapping describes.

    Problems with fields (missing, or of the wrong type) are collected in
    `Scenario.parse_problems` and reported by `validate`; only a missing
    `duration` raises here.
    """
    if "duration" not in raw:
        raise ValueError("duration: required")
    problems = []
    get = _Fields(raw, "", problems)
    sources = []
    for i, d in enumerate(get.list("data_sources")):
        get_source = _Fields(d, f"data_sources[{i}]", problems)
        source_id = get_source("id", _int)
        if source_id is not None:
            get_source.label = f"data source {source_id}"
        owner, size = get_source("owner", _int), get_source("size", _float)
        replicas = get_source("replicas", _ints, [])
        get_source.finish()
        if None in (source_id, owner, size):
            continue
        try:
            sources.append(
                DataSourceDescriptor(
                    id=source_id,
                    owner=owner,
                    size=size,
                    replicas=frozenset({owner, *replicas}),
                )
            )
        except ValueError as exc:
            problems.append(f"{get_source.label}: {exc}")
    source_sizes = {d.id: d.size for d in sources}
    seed = get("seed", _int, 0)
    tasks = []
    for i, t in enumerate(get.list("tasks")):
        pair = _task_spec(t, source_sizes, f"tasks[{i}]", problems)
        if pair is not None:
            tasks.append(pair)
    workload = get.take("workload")
    if workload is not None:
        tasks.extend(_generate_tasks(workload, seed, source_sizes, problems))
    tasks.sort(key=lambda pair: (pair[0], pair[1].task_id))
    events = []
    for i, e in enumerate(get.list("events")):
        get_event = _Fields(e, f"events[{i}]", problems)
        event = {
            "type": get_event("type", _str),
            "node": get_event("node", _int),
            "at": get_event("at", _float),
        }
        to = get_event.take("to") if event["type"] == "move" else None
        get_event.finish()
        if None not in event.values():
            if to is not None:
                event["to"] = to
            events.append(event)
    partitions = []
    for i, p in enumerate(get.list("partitions")):
        get_part = _Fields(p, f"partitions[{i}]", problems)
        part = (
            get_part("a", _ints), get_part("b", _ints),
            get_part("start", _float), get_part("end", _float),
        )
        get_part.finish()
        if None not in part:
            partitions.append(part)
    net = _settings(NetModel, get.take("net"), "net", problems)
    nodes = [_node_spec(n, i, problems) for i, n in enumerate(get.list("nodes"))]
    scenario = Scenario(
        name=get("name", _str, "scenario"),
        duration=get("duration", _float),
        seed=seed,
        net=_build_checked(NetModel(), net, "net", problems),
        scheduler=scheduler_params(
            SchedulerParams(), get.take("scheduler"), "scheduler", problems
        ),
        nodes=[n for n in nodes if n is not None],
        data_sources=sources,
        tasks=tasks,
        events=events,
        partitions=partitions,
    )
    get.finish()
    scenario.parse_problems = list(dict.fromkeys(problems))
    return scenario


# libyaml's safe loader where PyYAML was built with it: scanning YAML in
# Python is most of a scenario's set-up time.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        raw = yaml.load(fh, Loader=_YAML_LOADER)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: scenario file must be a mapping")
    return parse_scenario(raw)


# Each event type names the `Simulator` method that applies it.
_EVENT_TYPES = ("join", "leave", "crash", "move")


def build(scenario: Scenario, seed: int = None):
    """Wire up a Simulator and its agents; returns (sim, agents, collector)."""
    seed = scenario.seed if seed is None else seed
    sim = Simulator(seed=seed, net=scenario.net)
    collector = MetricsCollector(sim.sent)
    sim.listeners.append(collector.on_record)
    sources_by_owner = {}
    for desc in scenario.data_sources:
        sources_by_owner.setdefault(desc.owner, []).append(desc)
    agents = {}
    for spec in sorted(scenario.nodes, key=lambda n: n.profile.node):
        node = spec.profile.node
        sim.add_node(node, spec.profile.dyn.position)
        agent = NodeAgent(
            sim, scenario.scheduler, spec.profile, owned_sources=sources_by_owner.get(node, [])
        )
        sim.register_agent(node, agent)
        agents[node] = agent
        sim.schedule(spec.start_time, sim.join, node)
    for at, task in scenario.tasks:
        sim.schedule(at, sim.fire_timer, task.origin_node, "task_arrival", {"task": task})
    for ev in scenario.events:
        args = (_position(ev["to"]),) if ev["type"] == "move" else ()
        sim.schedule(ev["at"], getattr(sim, ev["type"]), ev["node"], *args)
    for a, b, start, end in scenario.partitions:
        sim.inject_partition(a, b, start, end)
    return sim, agents, collector


@dataclass
class RunResult:
    sim: Simulator
    agents: dict
    report: MetricsReport

    @property
    def trace(self) -> simlib.TraceLog:
        return self.sim.trace


def run(scenario: Scenario, seed: int = None) -> RunResult:
    scenario.check()
    sim, agents, collector = build(scenario, seed=seed)
    t = 0.0
    while t < scenario.duration:
        t = min(scenario.duration, t + scenario.sample_period)
        sim.run_until(t)
        collector.sample(t, sim, agents)
    return RunResult(sim=sim, agents=agents, report=collector.report())


def write_trace_jsonl(trace: simlib.TraceLog, path) -> None:
    """One `json.dumps(rec, sort_keys=True, default=str)` line per record,
    as the trace already holds them."""
    with open(path, "wb") as fh:
        for chunk in trace.chunks():
            fh.write(chunk)
