"""Per-node task execution engine: fair-share processor model.

All Running tasks on a node split its cpu_perf_index equally. Integration is
exact between change points (admissions, completions, evictions), so the
integrated progress of a Done task equals its work up to float tolerance.
Lifecycle edges: Reserved -> Transferring -> Running -> {Done, Failed,
Evicted}; remaining work never increases while Running. `runs` holds live
runs only (a run leaves it as it ends), so load and memory count every run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import NodeId, TaskId, TaskSpec

RESERVED = "reserved"
TRANSFERRING = "transferring"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
EVICTED = "evicted"

_EDGES = {
    RESERVED: {TRANSFERRING, RUNNING, FAILED, EVICTED},
    TRANSFERRING: {RUNNING, FAILED, EVICTED},
    RUNNING: {DONE, FAILED, EVICTED},
    DONE: set(),
    FAILED: set(),
    EVICTED: set(),
}

#: Remaining work at or below this counts as finished (float slack).
FINISH_EPS = 1e-9


@dataclass
class TaskRun:
    task_id: TaskId
    attempt: int
    state: str
    remaining_work: float
    memory: int
    origin: NodeId
    submitted_at: float
    deadline: float  # relative to submission
    progressed: float = 0.0  # integrated work, for conservation checks
    qos_warned: bool = False
    spec: TaskSpec = None  # the task this run executes

    @property
    def deadline_abs(self) -> float:
        return self.submitted_at + self.deadline

    def transition(self, new_state: str) -> None:
        if new_state not in _EDGES[self.state]:
            raise ValueError(f"illegal run transition {self.state} -> {new_state}")
        self.state = new_state


class ExecutorEngine:
    """Owns the live runs of one node and integrates their progress."""

    def __init__(self, cpu_perf_index: float):
        self.perf = cpu_perf_index
        self.runs: dict = {}  # TaskId -> TaskRun, live runs only
        self.last_time = 0.0
        self.generation = 0  # bumps on every change, invalidates stale timers

    def running_runs(self) -> list:
        return [r for r in self.runs.values() if r.state == RUNNING]

    def active_count(self) -> int:
        return len(self.runs)

    def utilization(self) -> float:
        """Fraction of capacity a new arrival would not get: n/(n+1)."""
        n = self.active_count()
        return n / (n + 1)

    def memory_in_use(self) -> int:
        return sum(r.memory for r in self.runs.values())

    def integrate(self, now: float) -> None:
        """Advance every Running task to `now` at the current fair share."""
        dt = now - self.last_time
        if dt > 0:
            running = self.running_runs()
            if running:
                _progress(running, self.perf / len(running) * dt)
        self.last_time = now
        self.generation += 1

    def finish_first(self) -> None:
        """Advance every Running task by the work the first to finish has
        left, without moving the clock: for a finish nearer to now than the
        float resolution of now, which `integrate` cannot reach."""
        running = self.running_runs()
        _progress(running, min(r.remaining_work for r in running))

    def finished_runs(self) -> list:
        return [r for r in self.running_runs() if r.remaining_work <= FINISH_EPS]

    def next_finish(self, now: float):
        """(time, task_id) of the earliest predicted completion, or None."""
        running = self.running_runs()
        if not running:
            return None
        rate = self.perf / len(running)
        best = min(running, key=lambda r: (r.remaining_work, r.task_id))
        return (now + best.remaining_work / rate, best.task_id)

    def projected_finish(self, run: TaskRun, now: float) -> float:
        """Finish estimate at the current share (used by the QoS monitor)."""
        running = self.running_runs()
        rate = self.perf / max(1, len(running))
        return now + run.remaining_work / rate


def _progress(running: list, work: float) -> None:
    """Each run does `work` more, or what it has left."""
    for run in running:
        step = min(run.remaining_work, work)
        run.remaining_work -= step
        run.progressed += step
