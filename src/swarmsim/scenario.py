"""Scenario files: YAML description of a swarm run, loader, builder, runner.

A scenario names the nodes (hardware, task typologies, energy, position), the
network model, optional churn/mobility/partition events, data sources and a
workload (explicit task list and/or a generated arrival stream). The loader
reads and checks a file in one walk, in the order the checks need: the
duration first, which bounds every time, then the nodes, which data sources,
tasks, events and partitions name, then the data sources, which task inputs
name. Each item is checked where it is read, against what was read before
it, so the walk's list of problems is the scenario's. The builder turns it
into a wired Simulator plus one NodeAgent per node; the runner drives it in
sampling steps so the metrics collector can observe global state at a fixed
cadence.
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
    events: list = field(default_factory=list)  # (at, type, node, args), as `build` schedules them
    partitions: list = field(default_factory=list)  # (a, b, start, end)
    sample_period: ClassVar[float] = 1.0  # seconds between metrics samples
    problems: list = field(default_factory=list)  # found by parse_scenario

    def check(self) -> None:
        """Raise ValueError naming every problem `validate` finds."""
        problems = self.validate()
        if problems:
            raise ValueError("invalid scenario: " + "; ".join(problems))

    def validate(self) -> list:
        """Every problem as a human-readable string, in the order
        `parse_scenario` met them; [] means ok."""
        return list(self.problems)


def _position(raw) -> Position:
    """A list of two numbers, or a mapping with exactly the keys x and y."""
    if isinstance(raw, dict) and raw.keys() == {"x", "y"}:
        x, y = raw["x"], raw["y"]
    elif isinstance(raw, list):
        x, y = raw
    else:
        raise TypeError(f"not a position: {raw!r}")
    return Position(_float(x), _float(y))


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
    required), so the walk goes on and lists every problem at once; this is
    the one place a cast error becomes a problem. `finish`, called after the
    last read, makes every key no read asked for a problem too.
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
        except (TypeError, ValueError, KeyError, OverflowError):
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


def _node_spec(raw, index: int, horizon: float, problems: list):
    """The node's spec, checked, or None when it has no usable id."""
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
    start_time = get("start_time", _float, 0.0)
    get.finish()
    if node is None:
        return None
    problems.extend(f"{get.label}: {issue}" for issue in validate_profile(profile))
    if not 0 <= start_time < horizon:
        problems.append(f"{get.label}: start_time outside run window")
    return NodeSpec(profile, start_time)


def _data_source(raw, index: int, known: set, sizes: dict, problems: list):
    """The source's descriptor, checked against the nodes, or None when it
    cannot be made."""
    get = _Fields(raw, f"data_sources[{index}]", problems)
    source_id = get("id", _int)
    if source_id is not None:
        get.label = f"data source {source_id}"
    owner, size = get("owner", _int), get("size", _float)
    replicas = get("replicas", _ints, [])
    get.finish()
    if None in (source_id, owner, size):
        return None
    try:
        desc = DataSourceDescriptor(
            id=source_id, owner=owner, size=size, replicas=frozenset({owner, *replicas})
        )
    except ValueError as exc:
        problems.append(f"{get.label}: {exc}")
        return None
    if owner not in known:
        problems.append(f"{get.label}: unknown owner {owner}")
    if not desc.replicas <= known:
        problems.append(
            f"{get.label}: unknown replica nodes {sorted(desc.replicas - known)}"
        )
    if source_id in sizes:
        problems.append(f"{get.label}: duplicate id")
    return desc


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


def override(base, raw, label: str, problems: list):
    """`base`, a settings dataclass of numbers, with the fields a mapping
    sets: a scenario's `net:` or `scheduler:` block, or a compare variant.
    A field the mapping cannot set keeps `base`'s value, and the whole
    mapping is dropped when the dataclass's own checks refuse the result;
    each is a problem in `problems`."""
    get = _Fields({} if raw is None else raw, label, problems)
    values = {
        f.name: get(f.name, _float, getattr(base, f.name)) for f in dataclasses.fields(base)
    }
    get.finish()
    try:
        return dataclasses.replace(base, **values)
    except ValueError as exc:
        problems.append(f"{label}: {exc}")
        return base


def parse_scenario(raw: dict) -> Scenario:
    """The scenario a raw mapping describes, read and checked in one walk.

    Problems (a missing field, a value of the wrong type, an item that
    breaks a check against the run window or the items read before it) are
    collected in `Scenario.problems` and reported by `validate`; nothing
    raises here.
    """
    problems = []
    get = _Fields(raw, "", problems)
    name, duration = get("name", _str, "scenario"), get("duration", _float)
    # The run samples up to the duration, so it must be finite. Windows are
    # checked against a usable duration only: a bad one is one problem, not
    # one per node, task and event.
    horizon = math.inf
    if duration is not None:
        if 0 < duration < math.inf:
            horizon = duration
        else:
            problems.append("duration: must be positive and finite")
    nodes, known = [], set()
    for i, n in enumerate(get.list("nodes")):
        spec = _node_spec(n, i, horizon, problems)
        if spec is not None:
            if spec.profile.node in known:
                problems.append("nodes: duplicate node ids")
            known.add(spec.profile.node)
            nodes.append(spec)
    sources, sizes = [], {}
    for i, d in enumerate(get.list("data_sources")):
        desc = _data_source(d, i, known, sizes, problems)
        if desc is not None:
            sources.append(desc)
            sizes[desc.id] = desc.size
    seed = get("seed", _int, 0)
    tasks = []
    for i, t in enumerate(get.list("tasks")):
        pair = _task_spec(t, sizes, f"tasks[{i}]", problems)
        if pair is not None:
            tasks.append(pair)
    workload = get.take("workload")
    if workload is not None:
        tasks.extend(_generate_tasks(workload, seed, sizes, problems))
    task_ids = set()
    for at, task in tasks:
        label = f"task {task.task_id}"
        if task.task_id in task_ids:
            problems.append(f"{label}: duplicate task id")
        task_ids.add(task.task_id)
        if task.origin_node not in known:
            problems.append(f"{label}: unknown origin {task.origin_node}")
        if not 0 <= at <= horizon:
            problems.append(f"{label}: arrival {at} outside run window")
        problems.extend(f"{label}: {issue}" for issue in validate_task(task))
        problems.extend(
            f"{label}: unknown data source {inp.source}"
            for inp in task.input_data if inp.source not in sizes
        )
    tasks.sort(key=lambda pair: (pair[0], pair[1].task_id))
    events = []
    for i, e in enumerate(get.list("events")):
        get_event = _Fields(e, f"events[{i}]", problems)
        kind, node, at = get_event("type", _str), get_event("node", _int), get_event("at", _float)
        to = get_event("to", _position) if kind == "move" else None
        get_event.finish()
        if None in (kind, node, at):
            continue
        label = f"event {kind}"
        if kind not in _EVENT_TYPES:
            problems.append(
                f"{label}: unknown event type (expected one of {', '.join(_EVENT_TYPES)})"
            )
        elif to is not None and not (math.isfinite(to.x) and math.isfinite(to.y)):
            problems.append(f"{label}: to: not finite")
        if node not in known:
            problems.append(f"{label}: unknown node {node}")
        if not 0 <= at <= horizon:
            problems.append(f"{label}: time outside run window")
        events.append((at, kind, node, () if to is None else (to,)))
    partitions = []
    for i, p in enumerate(get.list("partitions")):
        get_part = _Fields(p, f"partitions[{i}]", problems)
        a, b = get_part("a", _ints), get_part("b", _ints)
        start, end = get_part("start", _float), get_part("end", _float)
        get_part.finish()
        if None in (a, b, start, end):
            continue
        if not set(a) | set(b) <= known:
            problems.append("partition: unknown node ids")
        if set(a) & set(b):
            problems.append("partition: groups overlap")
        if not 0 <= start <= horizon:
            problems.append("partition: start outside run window")
        if not start < end:
            problems.append("partition: start must precede end")
        partitions.append((a, b, start, end))
    net = override(NetModel(), get.take("net"), "net", problems)
    scheduler = override(SchedulerParams(), get.take("scheduler"), "scheduler", problems)
    get.finish()
    return Scenario(
        name=name,
        duration=duration,
        seed=seed,
        net=net,
        scheduler=scheduler,
        nodes=nodes,
        data_sources=sources,
        tasks=tasks,
        events=events,
        partitions=partitions,
        problems=list(dict.fromkeys(problems)),
    )


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
    for at, kind, node, args in scenario.events:
        sim.schedule(at, getattr(sim, kind), node, *args)
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
