"""Run metrics: task accounting, message counts, convergence measurements.

The collector listens to trace records as the simulation emits them, reads
its message counts from the simulator's per-kind send count, and is
periodically given a chance to sample global state: utilization, each view's
`member_set_digest` and each registry's `content_hash`, both the hash of its
version map (tombstone times included). Convergence times are
measured from scenario start: the first sampling instant, after the last
disturbance (churn, crash, partition edge), at which all running nodes agree.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass, field


@dataclass
class MetricsReport:
    tasks_submitted: int = 0
    tasks_done: int = 0
    tasks_failed_permanent: int = 0
    tasks_in_flight: int = 0
    deadline_violations: int = 0
    reschedule_attempts: int = 0  # placement attempts beyond the first
    mean_task_latency: float = math.nan
    p95_task_latency: float = math.nan
    mean_transfer_time: float = math.nan
    messages_by_type: dict = field(default_factory=dict)
    membership_convergence_time: float = math.nan
    registry_convergence_time: float = math.nan
    swarm_splits: int = 0
    swarm_merges: int = 0
    per_node_utilization: dict = field(default_factory=dict)

    def balance_holds(self) -> bool:
        """Every submitted task is done, failed for good or still open, once.
        `MetricsCollector` counts the open ones by task id, so a task closed
        twice, or closed but never submitted, breaks the balance."""
        return (
            self.tasks_done + self.tasks_failed_permanent + self.tasks_in_flight
            == self.tasks_submitted
        )

    def failure_rate(self) -> float:
        """(permanent failures + re-placements) per submitted task."""
        if self.tasks_submitted == 0:
            return 0.0
        return (
            self.tasks_failed_permanent + self.reschedule_attempts
        ) / self.tasks_submitted

    def rows(self) -> list:
        rows = [
            ("tasks_submitted", self.tasks_submitted),
            ("tasks_done", self.tasks_done),
            ("tasks_failed_permanent", self.tasks_failed_permanent),
            ("tasks_in_flight", self.tasks_in_flight),
            ("deadline_violations", self.deadline_violations),
            ("reschedule_attempts", self.reschedule_attempts),
            ("failure_rate", self.failure_rate()),
            ("mean_task_latency", self.mean_task_latency),
            ("p95_task_latency", self.p95_task_latency),
            ("mean_transfer_time", self.mean_transfer_time),
            ("membership_convergence_time", self.membership_convergence_time),
            ("registry_convergence_time", self.registry_convergence_time),
            ("swarm_splits", self.swarm_splits),
            ("swarm_merges", self.swarm_merges),
        ]
        for kind in sorted(self.messages_by_type):
            rows.append((f"messages_{kind}", self.messages_by_type[kind]))
        for node in sorted(self.per_node_utilization):
            rows.append((f"utilization_mean_node_{node}", self.per_node_utilization[node]))
        return rows

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value"])
            for name, value in self.rows():
                writer.writerow([name, value])

    def as_dict(self) -> dict:
        return dict(self.rows())


_DISTURBANCES = {
    "join",
    "leave",
    "crash",
    "battery_dead",
    "partition_start",
    "partition_end",
}


def p95(values: list) -> float:
    if not values:
        return math.nan
    ordered = sorted(values)
    idx = max(0, math.ceil(0.95 * len(ordered)) - 1)
    return ordered[idx]


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else math.nan


class MetricsCollector:
    """Counts trace records into the `MetricsReport` it holds; `report`
    returns a copy with the derived fields filled in."""

    def __init__(self, sent: dict = None):
        # The message counts are the simulator's per-kind send count, read-only.
        self.counts = MetricsReport(messages_by_type={} if sent is None else sent)
        self.open_tasks = set()  # submitted, neither done nor failed for good
        self.latencies = []
        self.transfer_times = []
        self.last_disturbance = 0.0
        self.membership_converged_at = math.nan
        self.registry_converged_at = math.nan
        self._util_sums = {}
        self._util_samples = {}

    # -- trace listener -----------------------------------------------------

    def on_record(self, rec: dict) -> None:
        kind = rec["type"]
        if kind == "task_submitted":
            self.counts.tasks_submitted += 1
            self.open_tasks.add(rec["task"])
        elif kind == "task_done":
            self.counts.tasks_done += 1
            self.open_tasks.discard(rec["task"])
            self.latencies.append(rec["latency"])
            if rec["deadline_violation"]:
                self.counts.deadline_violations += 1
        elif kind == "task_failed_permanent":
            self.counts.tasks_failed_permanent += 1
            self.open_tasks.discard(rec["task"])
        elif kind == "run_admitted":
            self.transfer_times.append(rec["transfer_time"])
        elif kind in ("local_admit", "sched_decision") and rec["attempt"] > 1:
            self.counts.reschedule_attempts += 1
        elif kind == "swarm_change":
            if rec["kind"] == "split":
                self.counts.swarm_splits += 1
            else:
                self.counts.swarm_merges += 1
        if kind in _DISTURBANCES:
            self.last_disturbance = rec["t"]
            self.membership_converged_at = math.nan
            self.registry_converged_at = math.nan

    # -- periodic global sampling ------------------------------------------

    def sample(self, now: float, sim, agents: dict) -> None:
        up = [agents[n] for n in sorted(agents) if sim.node_up(n)]
        for ag in up:
            self._util_sums[ag.node] = self._util_sums.get(ag.node, 0.0) + (
                ag.engine.utilization()
            )
            self._util_samples[ag.node] = self._util_samples.get(ag.node, 0) + 1
        if not up or now < self.last_disturbance:
            return
        if math.isnan(self.membership_converged_at):
            digests = {ag.view.member_set_digest() for ag in up}
            if len(digests) == 1:
                self.membership_converged_at = now
        if math.isnan(self.registry_converged_at):
            hashes = {ag.registry.content_hash() for ag in up}
            if len(hashes) == 1:
                self.registry_converged_at = now

    # -- report -------------------------------------------------------------

    def report(self) -> MetricsReport:
        return dataclasses.replace(
            self.counts,
            tasks_in_flight=len(self.open_tasks),
            mean_task_latency=_mean(self.latencies),
            p95_task_latency=p95(self.latencies),
            mean_transfer_time=_mean(self.transfer_times),
            messages_by_type=dict(self.counts.messages_by_type),
            membership_convergence_time=self.membership_converged_at,
            registry_convergence_time=self.registry_converged_at,
            per_node_utilization={
                node: total / self._util_samples[node] for node, total in self._util_sums.items()
            },
        )
