"""Seeded scenario generators for the three benchmark workloads.

Each generator turns a seed into a raw scenario mapping (the same shape a
scenario YAML file has) plus the convergence episodes the workload contains.
The benchmark writes the mapping out as YAML and hands the file to the public
path `swarmsim run` takes, so the program only ever sees generated inputs.

The seed always sets the simulator seed (loss and probe draws); on
`tasks16_dense` it also generates the task stream and picks the nodes that
move and crash. Sizes are fixed per workload; the smoke test passes tiny
sizes to the same generators.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import yaml

GRID_STEP = 10.0  # metres between grid neighbours
COLS = 8
BURST_SPREAD = 2.0  # seconds over which one burst's events are staggered
PARTITION_LEN = 5.0  # seconds the churn workload's partition lasts
TASK_INTERVAL = 0.4  # mean seconds between task arrivals
TASK_START = 5.0  # first arrival, as in the shipped scenarios
TASK_DRAIN = 40.0  # seconds simulated after the last arrival


@dataclass
class Episode:
    """A burst of disturbances followed by a quiet window to converge in.

    `last` is the time of the burst's final disturbance; convergence is
    timed from it. Agreement must be reached before `until`, which is the
    next burst's first disturbance or the end of the run.
    """

    first: float
    last: float
    until: float


@dataclass
class Workload:
    name: str
    raw: dict
    episodes: list = field(default_factory=list)  # Episode; empty: none timed

    @property
    def duration(self) -> float:
        return float(self.raw["duration"])

    def yaml_text(self) -> str:
        return yaml.safe_dump(self.raw, sort_keys=False)


def _grid_nodes(n: int) -> list:
    return [
        {
            "id": i,
            "position": [((i - 1) % COLS) * GRID_STEP, ((i - 1) // COLS) * GRID_STEP],
            "typologies": ["generic"],
            "battery": "MAINS",
        }
        for i in range(1, n + 1)
    ]


def _grid_sources(n: int, count: int) -> list:
    """`count` sources spread over the grid, each with two extra replicas."""
    step = max(1, n // count)
    out = []
    for k in range(count):
        owner = 1 + (k * step) % n
        replicas = sorted({1 + (owner + n // 3 - 1) % n, 1 + (owner + 2 * n // 3 - 1) % n} - {owner})
        out.append({"id": k + 1, "owner": owner, "size": 10.0 + 5.0 * (k % 4), "replicas": replicas})
    return out


def a2_rounds(n: int) -> int:
    """The A2 gate's convergence bound in probe rounds: 3*ceil(log2 N) + 5."""
    return 3 * math.ceil(math.log2(n)) + 5


def swarm64_idle(seed: int, n: int = 64) -> Workload:
    """All nodes join at t=0, then nothing changes: gossip repeats known state.

    The run lasts one A2 bound past the joins plus one round, so the
    bootstrap episode gets the same window as every churn burst.
    """
    duration = float(a2_rounds(n) + 1)
    raw = {
        "name": "swarm64_idle",
        "seed": seed,
        "duration": duration,
        "net": {"loss_prob": 0.01},
        "nodes": _grid_nodes(n),
        "data_sources": _grid_sources(n, 8),
    }
    return Workload("swarm64_idle", raw, [Episode(0.0, 0.0, duration)])


def swarm64_churn(seed: int, n: int = 64) -> Workload:
    """An A2 churn wave, then a burst that heals the swarm and splits it.

    After the bootstrap, every third node crashes, half of those rejoin
    within the burst, and about one node in seven leaves gracefully. The
    next burst brings every node still down back and splits the grid into
    left and right halves for PARTITION_LEN seconds. Every burst, the
    bootstrap included, is followed by one A2 bound of quiet time
    (probe_period is 1 s).

    As in the A2 generator, node sets and times are fixed and the seed sets
    only the simulator seed: staggered times within a burst keep the work
    comparable across seeds, where random ones roughly doubled the spread
    of bytes sent.
    """

    def stagger(k: int) -> float:
        return BURST_SPREAD * (k % 8) / 8

    quiet = float(a2_rounds(n))
    events = []
    # The churn wave, with the A2 generator's node sets.
    wave = quiet
    crashed = [i for i in range(1, n + 1) if i % 3 == 2]
    leaving = [i for i in range(1, n + 1) if i % 7 == 3 and i not in crashed]
    down = []
    for k, node in enumerate(crashed):
        at = wave + stagger(k)
        events.append({"type": "crash", "node": node, "at": at})
        if k % 2 == 0:
            events.append({"type": "join", "node": node, "at": at + BURST_SPREAD})
        else:
            down.append(node)
    for k, node in enumerate(leaving):
        events.append({"type": "leave", "node": node, "at": wave + stagger(k + 4)})
        down.append(node)
    wave_last = max(e["at"] for e in events)
    # The partition burst: bring the wave's nodes back, then split and heal.
    heal = wave_last + quiet
    for k, node in enumerate(down):
        events.append({"type": "join", "node": node, "at": heal + stagger(k)})
    split_at = heal + BURST_SPREAD
    heal_at = split_at + PARTITION_LEN
    left = [i for i in range(1, n + 1) if (i - 1) % COLS < COLS // 2]
    right = [i for i in range(1, n + 1) if (i - 1) % COLS >= COLS // 2]
    duration = heal_at + quiet
    episodes = [
        Episode(0.0, 0.0, wave),
        Episode(wave, wave_last, heal),
        Episode(heal, heal_at, duration),
    ]
    events.sort(key=lambda e: (e["at"], e["node"]))
    raw = {
        "name": "swarm64_churn",
        "seed": seed,
        "duration": duration,
        "net": {"loss_prob": 0.02},
        "nodes": _grid_nodes(n),
        "data_sources": _grid_sources(n, 8),
        "events": events,
        "partitions": [{"a": left, "b": right, "start": split_at, "end": heal_at}],
    }
    return Workload("swarm64_churn", raw, episodes)


def tasks16_dense(seed: int, tasks: int = 300) -> Workload:
    """Open-loop task stream over 16 heterogeneous nodes with churn and mobility.

    Nodes 1-4 are sensors with no typologies, so every task they originate
    goes through OFFER/ACCEPT/CLAIM. Nodes 5-16 are executors of mixed speed
    and memory; every third one runs on battery. Six data sources with
    replicas live on executors. Two executors walk out of radio range and
    back, and one executor at a time crashes and rejoins.
    """
    rng = random.Random(f"tasks:{seed}")
    interval, start = TASK_INTERVAL, TASK_START
    nodes = []
    for i, (x, y) in enumerate([(0, 0), (100, 0), (0, 100), (100, 100)], start=1):
        nodes.append({"id": i, "position": [x, y], "cpu_perf_index": 0.5,
                      "memory": 256, "typologies": [], "battery": "MAINS"})
    speeds = [1.0, 1.5, 2.0, 3.0]
    for k, i in enumerate(range(5, 17)):
        node = {
            "id": i,
            "position": [20.0 + 20.0 * (k % 4), 25.0 + 25.0 * (k // 4)],
            "cpu_perf_index": speeds[k % 4],
            "memory": 1024 if k % 2 else 2048,
            "typologies": ["generic", "vision"] if k % 2 == 0 else ["generic"],
            "battery": "MAINS",
        }
        if k % 3 == 2:
            node["battery"] = 0.9
            node["drain_rate"] = 0.001
        nodes.append(node)
    sources = [
        {"id": s + 1, "owner": 5 + s, "size": 4.0 + 4.0 * s,
         "replicas": [5 + (s + 4) % 12, 5 + (s + 8) % 12]}
        for s in range(6)
    ]
    task_list = []
    for k in range(tasks):
        at = round(start + k * interval + rng.uniform(0.0, interval), 3)
        inputs = rng.sample(range(1, 7), 2)
        task_list.append({
            "id": 1000 + k,
            "origin": 1 + k % 4,
            "at": at,
            "typology": "vision" if rng.random() < 0.3 else "generic",
            "work": round(rng.uniform(0.5, 3.0), 3),
            "memory": rng.choice([64, 128, 256]),
            "deadline": 30.0,
            "inputs": [{"source": s} for s in inputs],
        })
    last_arrival = task_list[-1]["at"] if task_list else start
    duration = round(last_arrival + TASK_DRAIN, 3)
    events = []
    executors = list(range(5, 17))
    movers = rng.sample(executors, 2)
    for j, node in enumerate(movers):
        away = round(start + (j + 1) * (last_arrival - start) / 3, 3)
        home = next(n for n in nodes if n["id"] == node)["position"]
        events.append({"type": "move", "node": node, "at": away, "to": [1000.0, 1000.0]})
        events.append({"type": "move", "node": node, "at": round(away + 10.0, 3), "to": list(home)})
    churners = [i for i in executors if i not in movers]
    at = start + 10.0
    while at + 8.0 < last_arrival:
        node = rng.choice(churners)
        events.append({"type": "crash", "node": node, "at": round(at, 3)})
        events.append({"type": "join", "node": node, "at": round(at + 6.0, 3)})
        at += 15.0
    events.sort(key=lambda e: (e["at"], e["node"]))
    raw = {
        "name": "tasks16_dense",
        "seed": seed,
        "duration": duration,
        "net": {"loss_prob": 0.01, "radio_range": 200.0},
        "nodes": nodes,
        "data_sources": sources,
        "tasks": task_list,
        "events": events,
    }
    return Workload("tasks16_dense", raw, [])


GENERATORS = {
    "swarm64_idle": swarm64_idle,
    "swarm64_churn": swarm64_churn,
    "tasks16_dense": tasks16_dense,
}


def generate(name: str, seed: int, **sizes) -> Workload:
    return GENERATORS[name](seed, **sizes)
