"""Scenario files: YAML description of a swarm run, loader, builder, runner.

A scenario names the nodes (hardware, software, energy, position), the
network model, optional churn/mobility/partition events, data sources and a
workload (explicit task list and/or a generated arrival stream). The builder
turns it into a wired Simulator plus one NodeAgent per node; the runner
drives it in sampling steps so the metrics collector can observe global
state at a fixed cadence.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import yaml

from . import sim as simlib
from .agent import AgentConfig, NodeAgent
from .dataplane import DataSourceDescriptor
from .metrics import MetricsCollector, MetricsReport
from .model import (
    MAINS,
    CapabilityAdvertisement,
    DataInput,
    DynamicStatus,
    NodeProfile,
    Position,
    QoSRequirement,
    StaticHardwareProfile,
    StaticSoftwareProfile,
    TaskSpec,
    is_mains,
    validate_profile,
    validate_task,
)
from .scheduler import SchedulerParams
from .sim import NetModel, Simulator


@dataclass
class NodeSpec:
    node: int
    position: Position
    cpu_perf_index: float = 1.0
    memory: int = 1024
    link_bandwidth: float = 10.0
    os_tag: str = "linux"
    runtimes: tuple = ()
    typologies: tuple = ()
    battery: object = MAINS
    drain_rate: float = 0.0
    utilization: float = 0.0
    start_time: float = 0.0

    def profile(self) -> NodeProfile:
        return NodeProfile(
            node=self.node,
            hw=StaticHardwareProfile(
                cpu_perf_index=self.cpu_perf_index,
                memory=self.memory,
                link_bandwidth=self.link_bandwidth,
            ),
            sw=StaticSoftwareProfile(
                os_tag=self.os_tag, supported_runtimes=frozenset(self.runtimes)
            ),
            dyn=DynamicStatus(
                utilization=self.utilization,
                battery=self.battery,
                position=self.position,
            ),
            adv=CapabilityAdvertisement(
                node=self.node, task_typologies=frozenset(self.typologies)
            ),
        )


@dataclass
class Scenario:
    name: str
    duration: float
    seed: int = 0
    net: NetModel = field(default_factory=NetModel)
    agent: AgentConfig = field(default_factory=AgentConfig)
    nodes: list = field(default_factory=list)  # NodeSpec
    data_sources: list = field(default_factory=list)  # DataSourceDescriptor
    tasks: list = field(default_factory=list)  # (at, TaskSpec)
    events: list = field(default_factory=list)  # raw event dicts
    partitions: list = field(default_factory=list)  # (a, b, start, end)
    sample_period: float = 1.0

    def node_ids(self) -> set:
        return {n.node for n in self.nodes}

    def validate(self) -> list:
        """Collect every problem as a human-readable string; [] means ok."""
        problems = []
        ids = [n.node for n in self.nodes]
        known = set(ids)
        if len(ids) != len(set(ids)):
            problems.append("nodes: duplicate node ids")
        if self.duration <= 0:
            problems.append("duration: must be positive")
        for spec in self.nodes:
            for issue in validate_profile(spec.profile()):
                problems.append(f"node {spec.node}: {issue}")
            if spec.drain_rate < 0:
                problems.append(f"node {spec.node}: drain_rate must be >= 0")
            if spec.start_time < 0 or spec.start_time >= self.duration:
                problems.append(f"node {spec.node}: start_time outside run window")
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
            if not 0 <= at <= self.duration:
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
            elif ev["type"] == "move" and _move_target(ev.get("to")) is None:
                problems.append(f"{label}: needs `to` as [x, y] or {{x: .., y: ..}}")
            if ev["node"] not in known:
                problems.append(f"{label}: unknown node {ev['node']}")
            if not 0 <= ev["at"] <= self.duration:
                problems.append(f"{label}: time outside run window")
        for a, b, start, end in self.partitions:
            if not set(a) <= known or not set(b) <= known:
                problems.append("partition: unknown node ids")
            if set(a) & set(b):
                problems.append("partition: groups overlap")
            if not start < end:
                problems.append("partition: start must precede end")
        return problems


def _position(raw) -> Position:
    if isinstance(raw, dict):
        return Position.from_dict(raw)
    x, y = raw
    return Position(float(x), float(y))


def _move_target(raw):
    """A move event's `to` as a Position; None when it is malformed."""
    try:
        return _position(raw)
    except (TypeError, ValueError, KeyError):
        return None


def _battery(raw):
    if is_mains(raw):
        return MAINS
    return float(raw)


def _node_spec(raw: dict) -> NodeSpec:
    return NodeSpec(
        node=int(raw["id"]),
        position=_position(raw.get("position", [0.0, 0.0])),
        cpu_perf_index=float(raw.get("cpu_perf_index", 1.0)),
        memory=int(raw.get("memory", 1024)),
        link_bandwidth=float(raw.get("link_bandwidth", 10.0)),
        os_tag=str(raw.get("os_tag", "linux")),
        runtimes=tuple(raw.get("runtimes", [])),
        typologies=tuple(raw.get("typologies", [])),
        battery=_battery(raw.get("battery", MAINS)),
        drain_rate=float(raw.get("drain_rate", 0.0)),
        utilization=float(raw.get("utilization", 0.0)),
        start_time=float(raw.get("start_time", 0.0)),
    )


def _task_spec(raw: dict, source_sizes: dict) -> tuple:
    inputs = []
    for inp in raw.get("inputs", []):
        source = int(inp["source"])
        size = float(inp.get("size", source_sizes.get(source, 0.0)))
        inputs.append(DataInput(source=source, size=size))
    task = TaskSpec(
        task_id=int(raw["id"]),
        typology=str(raw["typology"]),
        work=float(raw["work"]),
        memory_demand=int(raw.get("memory", 0)),
        input_data=tuple(inputs),
        qos=QoSRequirement(
            deadline=float(raw.get("deadline", 60.0)),
            min_success_replicas=int(raw.get("min_success_replicas", 1)),
        ),
        origin_node=int(raw["origin"]),
    )
    return float(raw["at"]), task


def _generate_tasks(raw: dict, scenario_seed: int, source_sizes: dict) -> list:
    """Deterministic arrival stream: fixed interval plus seeded jitter."""
    count = int(raw["count"])
    start = float(raw.get("start", 0.0))
    interval = float(raw.get("interval", 1.0))
    jitter = float(raw.get("jitter", 0.0))
    origins = [int(n) for n in raw["origins"]]
    first_id = int(raw.get("first_id", 1000))
    rng = simlib.substream(scenario_seed, "workload")
    out = []
    for i in range(count):
        at = start + i * interval + (jitter * rng.random() if jitter else 0.0)
        spec = dict(raw.get("template", {}))
        spec.setdefault("typology", raw.get("typology", "generic"))
        spec.setdefault("work", raw.get("work", 1.0))
        spec.setdefault("memory", raw.get("memory", 0))
        spec.setdefault("deadline", raw.get("deadline", 60.0))
        spec.setdefault("inputs", raw.get("inputs", []))
        spec["id"] = first_id + i
        spec["origin"] = origins[i % len(origins)]
        spec["at"] = at
        out.append(_task_spec(spec, source_sizes))
    return out


def _agent_config(raw: dict) -> AgentConfig:
    raw = dict(raw or {})
    sched_raw = raw.pop("scheduler", {})
    scheduler = SchedulerParams(**sched_raw) if sched_raw else SchedulerParams()
    return AgentConfig(scheduler=scheduler, **raw)


def override_agent_config(cfg: AgentConfig, overrides: dict) -> AgentConfig:
    """Apply a flat/nested override dict (used by A/B weight comparisons)."""
    overrides = dict(overrides or {})
    sched_over = overrides.pop("scheduler", None)
    if sched_over:
        cfg = dataclasses.replace(
            cfg, scheduler=dataclasses.replace(cfg.scheduler, **sched_over)
        )
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def parse_scenario(raw: dict) -> Scenario:
    if "duration" not in raw:
        raise ValueError("duration: required")
    sources = []
    for d in raw.get("data_sources", []):
        replicas = {int(d["owner"])} | {int(r) for r in d.get("replicas", [])}
        sources.append(
            DataSourceDescriptor(
                id=int(d["id"]),
                owner=int(d["owner"]),
                size=float(d["size"]),
                replicas=frozenset(replicas),
            )
        )
    source_sizes = {d.id: d.size for d in sources}
    seed = int(raw.get("seed", 0))
    tasks = [_task_spec(t, source_sizes) for t in raw.get("tasks", [])]
    if "workload" in raw:
        tasks.extend(_generate_tasks(raw["workload"], seed, source_sizes))
    tasks.sort(key=lambda pair: (pair[0], pair[1].task_id))
    events = [
        {"type": str(e["type"]), "node": int(e["node"]), "at": float(e["at"]), **(
            {"to": e["to"]} if "to" in e else {}
        )}
        for e in raw.get("events", [])
    ]
    partitions = [
        (
            [int(n) for n in p["a"]],
            [int(n) for n in p["b"]],
            float(p["start"]),
            float(p["end"]),
        )
        for p in raw.get("partitions", [])
    ]
    return Scenario(
        name=str(raw.get("name", "scenario")),
        duration=float(raw["duration"]),
        seed=seed,
        net=NetModel(**raw.get("net", {})),
        agent=_agent_config(raw.get("agent", {})),
        nodes=[_node_spec(n) for n in raw.get("nodes", [])],
        data_sources=sources,
        tasks=tasks,
        events=events,
        partitions=partitions,
        sample_period=float(raw.get("sample_period", 1.0)),
    )


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: scenario file must be a mapping")
    return parse_scenario(raw)


_EVENT_KINDS = {
    "join": simlib.EV_JOIN,
    "leave": simlib.EV_LEAVE,
    "crash": simlib.EV_CRASH,
}
_EVENT_TYPES = (*_EVENT_KINDS, "move")


def build(scenario: Scenario, seed: int = None, agent_overrides: dict = None):
    """Wire up a Simulator and its agents; returns (sim, agents, collector)."""
    seed = scenario.seed if seed is None else seed
    cfg = override_agent_config(scenario.agent, agent_overrides)
    sim = Simulator(seed=seed, net=scenario.net)
    collector = MetricsCollector()
    sim.listeners.append(collector.on_record)
    drain_rates = {n.node: n.drain_rate for n in scenario.nodes}
    sources_by_owner = {}
    for desc in scenario.data_sources:
        sources_by_owner.setdefault(desc.owner, []).append(desc)
    agents = {}
    for spec in sorted(scenario.nodes, key=lambda n: n.node):
        sim.add_node(spec.node, spec.position)
        agent = NodeAgent(
            sim,
            cfg,
            spec.profile(),
            drain_rate=spec.drain_rate,
            drain_rates=drain_rates,
            owned_sources=sources_by_owner.get(spec.node, []),
        )
        sim.register_agent(spec.node, agent)
        agents[spec.node] = agent
        sim.schedule(spec.start_time, simlib.EV_JOIN, {"node": spec.node})
    for at, task in scenario.tasks:
        sim.schedule(
            at,
            simlib.EV_TIMER,
            {
                "node": task.origin_node,
                "timer": "task_arrival",
                "data": {"task": task.to_dict()},
            },
        )
    for ev in scenario.events:
        if ev["type"] == "move":
            to = _position(ev["to"])
            sim.schedule(
                ev["at"], simlib.EV_MOVE, {"node": ev["node"], "x": to.x, "y": to.y}
            )
        else:
            sim.schedule(ev["at"], _EVENT_KINDS[ev["type"]], {"node": ev["node"]})
    for a, b, start, end in scenario.partitions:
        sim.inject_partition(a, b, start, end)
    return sim, agents, collector


@dataclass
class RunResult:
    sim: Simulator
    agents: dict
    report: MetricsReport

    @property
    def trace(self) -> list:
        return self.sim.trace


def run(scenario: Scenario, seed: int = None, agent_overrides: dict = None) -> RunResult:
    problems = scenario.validate()
    if problems:
        raise ValueError("invalid scenario: " + "; ".join(problems))
    sim, agents, collector = build(scenario, seed=seed, agent_overrides=agent_overrides)
    t = 0.0
    while t < scenario.duration:
        t = min(scenario.duration, t + scenario.sample_period)
        sim.run_until(t)
        collector.sample(t, sim, agents)
    return RunResult(sim=sim, agents=agents, report=collector.report())


def write_trace_jsonl(trace: list, path) -> None:
    with open(path, "w") as fh:
        for rec in trace:
            fh.write(json.dumps(rec, sort_keys=True, default=str) + "\n")
