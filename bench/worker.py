"""One benchmark pass over a generated scenario, run in a fresh process.

    python3 bench/worker.py check  SCENARIO.yaml OUT_DIR EPISODES.json
    python3 bench/worker.py timed  SCENARIO.yaml OUT_DIR
    python3 bench/worker.py traced SCENARIO.yaml OUT_DIR

Every pass drives the public path `swarmsim run` takes (`load_scenario`,
`run`, `write_trace_jsonl`, `MetricsReport.write_csv`) and prints one JSON
object as its last line.

* `check` times set-ups as `timed` does, then runs untimed. It counts the
  encoded bytes of every message, watches convergence at each sampling
  instant and every suspicion a probe timeout raises, and reports the
  simulated metrics and the correctness checks.
* `timed` measures set-up (load, parse, validate, build; several times) and
  then one untraced run plus the writes, in CPU time, and reports the
  process's peak RSS.
* `traced` repeats the timed run with every layer wrapped by `tracer.Tracer`.

All three report the sha256 of the trace they wrote, so the caller can check
that every pass of a workload at a seed produced the same trace.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from swarmsim import agent, metrics, scenario as scen, wire  # noqa: E402
from swarmsim.membership import ALIVE, SUSPECT  # noqa: E402
from swarmsim.sim import SimFault  # noqa: E402

SETUP_REPS = 5  # at least this many set-ups per check or timed pass
SETUP_MIN_S = 1.0  # and at least this much CPU time in them

DISTURBANCES = metrics._DISTURBANCES
GROUPS = {
    wire.HELLO: "membership",
    wire.HELLO_ACK: "membership",
    wire.PING: "membership",
    wire.ACK: "membership",
    wire.LEAVE: "membership",
    wire.DIGEST: "anti_entropy",
    wire.DELTA: "anti_entropy",
}  # every other kind is "placement"


def sha256_of(path: str, keep: bool = True) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    if not keep:
        os.remove(path)  # only the check pass's copy is kept, to save disk
    return h.hexdigest()


def write_outputs(result, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace.jsonl")
    scen.write_trace_jsonl(result.trace, path)
    result.report.write_csv(os.path.join(out_dir, "metrics.csv"))
    return path


class EpisodeWatch:
    """Per-episode convergence, read from `MetricsCollector` after each sample.

    The collector clears its convergence times at every disturbance and sets
    them at the first sampling instant at which every running node has the
    same membership digest (and, separately, the same registry hash). Once
    an episode's last disturbance has been seen, those times are the
    episode's. At the episode's last sampling instant every running node
    must still agree: that is the A2 property.

    Message loss can make a node suspect a running peer during the quiet
    window. The peer refutes with a higher incarnation and republishes its
    profile: a new membership disturbance, which the collector does not
    count and which needs the A2 bound again to spread. The watch records
    each such false suspicion, so that an episode whose only disagreement at
    its end is about falsely suspected nodes can be told apart from one that
    failed to converge with nothing to account for it.
    """

    def __init__(self, episodes: list, duration: float, period: float):
        self.episodes = episodes
        self.duration = duration
        self.period = period
        self.converged = [{"membership": None, "registry": None} for _ in episodes]
        self.agree_at_end = [None] * len(episodes)
        self.split_nodes = [[] for _ in episodes]  # nodes disagreed on at the end
        self.suspected = [set() for _ in episodes]  # falsely suspected after `last`

    def episode_at(self, now: float):
        """Index of the episode whose quiet window holds `now`, or None."""
        for k, ep in enumerate(self.episodes):
            final = ep["until"] >= self.duration
            if ep["last"] <= now and (now < ep["until"] or final):
                return k
        return None

    def suspicion(self, now: float, node) -> None:
        """A running `node` was suspected at `now`."""
        k = self.episode_at(now)
        if k is not None and now > self.episodes[k]["last"]:
            self.suspected[k].add(node)

    def observe(self, now: float, collector, sim, agents: dict) -> None:
        k = self.episode_at(now)
        if k is None:
            return
        ep = self.episodes[k]
        if collector.last_disturbance < ep["last"]:
            return  # the collector's times still belong to an earlier disturbance
        conv = self.converged[k]
        for layer, at in (("membership", collector.membership_converged_at),
                          ("registry", collector.registry_converged_at)):
            if conv[layer] is None and not math.isnan(at):
                conv[layer] = at - ep["last"]
        # The next sample would already include the next burst's first event.
        final = ep["until"] >= self.duration
        if now >= self.duration if final else now + self.period >= ep["until"]:
            up = [agents[n] for n in sorted(agents) if sim.node_up(n)]
            self.split_nodes[k] = disagreed_nodes(up)
            self.agree_at_end[k] = not self.split_nodes[k]

    def failed(self) -> list:
        """Whether each episode failed: no agreement reached, or not kept to its end."""
        return [None in conv.values() or not agree
                for conv, agree in zip(self.converged, self.agree_at_end)]

    def unexplained(self) -> list:
        """Whether each episode failed with something other than false
        suspicions in its quiet window to account for every node that
        running nodes disagree on at its end."""
        return [failed and not (split and set(split) <= suspected)
                for failed, split, suspected
                in zip(self.failed(), self.split_nodes, self.suspected)]


def disagreed_nodes(up: list) -> list:
    """Nodes whose membership record or registry entry differs between
    running nodes, a missing one included."""
    out = set()
    for held in (
        [{n: (m.status, m.incarnation) for n, m in a.view.members.items()} for a in up],
        [{n: e.to_dict() for n, e in a.registry.entries.items()} for a in up],
    ):
        for node in set().union(*held):
            first = held[0].get(node)
            if any(h.get(node) != first for h in held[1:]):
                out.add(node)
    return sorted(out)


def check_pass(scenario_path: str, out_dir: str, episodes: list) -> dict:
    checks = {}
    sc = scen.load_scenario(scenario_path)
    problems = sc.validate()
    checks["scenario_valid"] = not problems
    if problems:
        return {"checks": checks, "problems": problems}
    # Set-ups are timed here too, before anything is patched, so that the
    # run's median of them spans the whole run, not only the timed passes.
    setups = setup_times(scenario_path)
    watch = EpisodeWatch(episodes, sc.duration, sc.sample_period)
    sent_bytes: dict = {}
    encode, sample = wire.encode, metrics.MetricsCollector.sample
    on_timer = agent.NodeAgent.on_timer

    def counting_encode(msg):
        out = encode(msg)
        sent_bytes[msg.kind] = sent_bytes.get(msg.kind, 0) + len(out)
        return out

    def watching_sample(self, now, sim, agents):
        sample(self, now, sim, agents)
        watch.observe(now, self, sim, agents)

    def watching_on_timer(self, kind, data):
        # A probe timeout is the only place a node raises a suspicion.
        if kind != "probe_timeout":
            return on_timer(self, kind, data)
        target = data["target"]
        before = self.view.members.get(target)
        was_alive = before is not None and before.status == ALIVE
        on_timer(self, kind, data)
        after = self.view.members.get(target)
        if (was_alive and after is not None and after.status == SUSPECT
                and self.sim.node_up(target)):
            watch.suspicion(self.sim.now, target)

    wire.encode = counting_encode
    metrics.MetricsCollector.sample = watching_sample
    agent.NodeAgent.on_timer = watching_on_timer
    fault = None
    try:
        result = scen.run(sc)
    except SimFault as exc:
        fault = repr(exc)
    finally:
        wire.encode = encode
        metrics.MetricsCollector.sample = sample
        agent.NodeAgent.on_timer = on_timer
    checks["no_sim_fault"] = fault is None
    if fault is not None:
        return {"checks": checks, "fault": fault}
    trace = result.trace
    report = result.report
    checks["balance_holds"] = report.balance_holds()
    path = write_outputs(result, out_dir)

    n, dur = len(sc.nodes), sc.duration
    sends = {}
    drops = {}
    stray = []
    for rec in trace:
        kind = rec["type"]
        if kind == "send":
            sends[rec["kind"]] = sends.get(rec["kind"], 0) + 1
        elif kind == "drop":
            drops[rec["reason"]] = drops.get(rec["reason"], 0) + 1
        if episodes and kind in DISTURBANCES:
            if not any(ep["first"] <= rec["t"] <= ep["last"] for ep in episodes):
                stray.append(rec)
    total_sends = sum(sends.values())
    total_bytes = sum(sent_bytes.values())
    sim_metrics = {
        "msgs_per_node_s": total_sends / (n * dur),
        "kib_per_node_s": total_bytes / 1024 / (n * dur),
        "trace_mib": os.path.getsize(path) / 2**20,
    }
    ops = {"attempted": 0, "failed": 0}
    omitted = {}
    if episodes:
        checks["disturbances_inside_episodes"] = not stray
        failed = sum(watch.failed())
        checks["a2_converged_unless_falsely_suspected"] = not any(watch.unexplained())
        ops["attempted"] += len(episodes)
        ops["failed"] += failed
        for layer in ("membership", "registry"):
            times = [c[layer] for c in watch.converged if c[layer] is not None]
            key = f"{layer}_convergence_s"
            if times:
                sim_metrics[key] = statistics.median(times)
            else:
                omitted[key] = "no episode converged"
    else:
        omitted["membership_convergence_s"] = "no convergence episodes: views are timed on swarm64_*"
        omitted["registry_convergence_s"] = (
            "undefined while a task stream keeps changing profiles"
        )
    if report.tasks_submitted:
        latencies = [r["latency"] for r in trace if r["type"] == "task_done"]
        submitted = report.tasks_submitted
        if latencies:
            sim_metrics["task_latency_p50_s"] = statistics.median(latencies)
            sim_metrics["task_latency_p95_s"] = report.p95_task_latency
        sim_metrics["deadline_miss_rate"] = (
            report.deadline_violations + report.tasks_failed_permanent + report.tasks_in_flight
        ) / submitted
        sim_metrics["task_failure_rate"] = report.failure_rate()
        if not math.isnan(report.mean_transfer_time):
            sim_metrics["mean_transfer_s"] = report.mean_transfer_time
        ops["attempted"] += submitted
        ops["failed"] += report.tasks_failed_permanent + report.tasks_in_flight
    else:
        for key in ("task_latency_p50_s", "task_latency_p95_s", "deadline_miss_rate",
                    "task_failure_rate", "mean_transfer_s"):
            omitted[key] = "no tasks in this workload"
    groups = {}
    for kind, size in sent_bytes.items():
        g = groups.setdefault(GROUPS.get(kind, "placement"), {"msgs": 0, "kib": 0.0})
        g["msgs"] += sends.get(kind, 0)
        g["kib"] += size / 1024
    return {
        "checks": checks,
        "setup_s": setups,
        "sha256": sha256_of(path),
        "sim": sim_metrics,
        "omitted": omitted,
        "ops": ops,
        "episodes": [
            {**ep, **conv, "agree_at_end": agree, "split_nodes": split,
             "falsely_suspected": sorted(suspected)}
            for ep, conv, agree, split, suspected in zip(
                episodes, watch.converged, watch.agree_at_end, watch.split_nodes,
                watch.suspected)
        ],
        "sends": total_sends,
        "by_kind": {k: {"msgs": sends.get(k, 0), "kib": sent_bytes[k] / 1024}
                    for k in sorted(sent_bytes)},
        "by_group": dict(sorted(groups.items())),
        "drops": dict(sorted(drops.items())),
    }


def setup_once(scenario_path: str) -> float:
    """CPU seconds to load, parse, validate and build the scenario.

    The previous build's reference cycles are collected first, so that no
    set-up pays for the one before it.
    """
    gc.collect()
    t0 = process_time()
    sc = scen.load_scenario(scenario_path)
    if sc.validate():
        raise ValueError("invalid scenario")
    scen.build(sc)
    return process_time() - t0


def setup_times(scenario_path: str) -> list:
    """At least SETUP_REPS set-ups, and at least SETUP_MIN_S of CPU time."""
    setups = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S:
        setups.append(setup_once(scenario_path))
    return setups


def timed_pass(scenario_path: str, out_dir: str) -> dict:
    """Set-up times, then one untraced run plus the writes.

    Times are the process's CPU time (`process_time`): the worker is one
    thread, and on a shared host its wall time also counts the time other
    processes hold the CPU. Wall time is reported alongside.
    """
    setups = setup_times(scenario_path)
    sc = scen.load_scenario(scenario_path)
    gc.collect()
    w0, c0 = perf_counter(), process_time()
    result = scen.run(sc)
    path = write_outputs(result, out_dir)
    cpu, wall = process_time() - c0, perf_counter() - w0
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": setups,
        "run_cpu_s": cpu,
        "wall_s": wall,
        "peak_rss_mib": rss_mib,
        "sha256": sha256_of(path, keep=False),
    }


def traced_pass(scenario_path: str, out_dir: str) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        sc = scen.load_scenario(scenario_path)
        parse_s = tracer.total_s["scenario.load_scenario"]
        tracer.reset_totals()
        t0 = perf_counter()
        result = scen.run(sc)
        path = write_outputs(result, out_dir)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.dump(out_dir)
    return {
        "wall_s": wall,
        "parse_s": parse_s,
        "self_s": tracer.self_s,
        "total_s": tracer.total_s,
        "calls": tracer.calls,
        "true_n": tracer.true_n,
        "candidates": tracer.candidates,
        "layers": tracer.layer_self_s(),
        "trace_records": len(result.trace),
        "spans": len(tracer.start),
        "sha256": sha256_of(path, keep=False),
    }


def main(argv: list) -> int:
    mode, scenario_path, out_dir = argv[:3]
    if mode == "check":
        with open(argv[3]) as fh:
            out = check_pass(scenario_path, out_dir, json.load(fh))
    elif mode == "timed":
        out = timed_pass(scenario_path, out_dir)
    elif mode == "traced":
        out = traced_pass(scenario_path, out_dir)
    else:
        print(f"unknown mode {mode}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
