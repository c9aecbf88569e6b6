"""Execution side of one agent: reservations with a TTL, input transfers,
runs on the fair-share engine (`executor`) with exact completion events plus
a periodic monitor tick for QoS projection and load forecasting, and reports
to the origins of the runs.
"""

from __future__ import annotations

from . import cognition, executor, wire
from .cognition import LoadForecast
from .model import NodeId, TaskSpec, capability_match

EXEC_TICK = 0.1  # monitor period while tasks are active
# 2x gossip.PROBE_TIMEOUT; > agent.OFFER_TIMEOUT, or every reservation expires
# before the origin's offer round ends and its CLAIM finds nothing.
RESERVATION_TTL = 0.3


class Execution:
    """One life's runs: the engine, the load forecast and the monitor. A run
    leaves `engine.runs` as it ends, so every run held there is active."""

    def __init__(self, agent):
        self.agent = agent
        self.sim = agent.sim
        self.node = agent.node
        self.engine = executor.ExecutorEngine(agent.base_profile.hw.cpu_perf_index)
        self.forecast = LoadForecast(ewma_utilization=agent.base_profile.dyn.utilization)
        self._monitor_armed = False

    def feasible(self, task: TaskSpec, deadline_remaining: float) -> bool:
        """Can this node run `task` now and meet its deadline?"""
        profile = self.agent.profile
        if not capability_match(task, profile):
            return False
        if self.engine.memory_in_use() + task.memory_demand > profile.hw.memory:
            return False
        remote = self.agent.antientropy.remote_inputs_for(task, self.node)
        if remote is None:
            return False
        own = profile.with_dyn(utilization=self.engine.utilization())
        return self.agent.predict_completion(task, own, remote) <= deadline_remaining

    def _advance(self, run: executor.TaskRun, state: str) -> None:
        """Integrate the engine up to now, then move `run` to `state`."""
        self.engine.integrate(self.sim.now)
        run.transition(state)

    def leave(self) -> None:
        """Fail every run and drop it: this node is leaving."""
        self.engine.integrate(self.sim.now)
        for run in sorted(self.engine.runs.values(), key=lambda r: r.task_id):
            run.transition(executor.FAILED)
            self.agent.record(
                "run_failed",
                task=run.task_id,
                attempt=run.attempt,
                cause="leave",
            )
            if run.origin != self.node:  # this node's own tasks leave with it
                self.agent.send_task(run.origin, wire.FAILED, run.task_id, run.attempt)
        self.engine.runs.clear()

    # ------------------------------------------------------------------
    # reservations
    # ------------------------------------------------------------------

    def handle_offer(self, frm: NodeId, body: dict) -> None:
        task = wire.adopt(body["task"], TaskSpec.from_dict)
        attempt = body["attempt"]
        submitted_at = body["submitted_at"]
        existing = self.engine.runs.get(task.task_id)
        if existing is not None:
            kind = wire.ACCEPT if existing.attempt == attempt else wire.REJECT
            self.agent.send_task(frm, kind, task.task_id, attempt)
            return
        deadline_remaining = submitted_at + task.deadline - self.sim.now
        if not self.feasible(task, deadline_remaining):
            self.agent.send_task(frm, wire.REJECT, task.task_id, attempt)
            return
        self.reserve(task, attempt, submitted_at, frm)
        self.agent.send_task(frm, wire.ACCEPT, task.task_id, attempt)

    def reserve(self, task: TaskSpec, attempt: int, submitted_at: float, origin: NodeId) -> None:
        """Hold memory for a run; one offered by another origin expires
        unless claimed within RESERVATION_TTL."""
        self.engine.integrate(self.sim.now)
        self.engine.runs[task.task_id] = executor.TaskRun(
            task_id=task.task_id,
            attempt=attempt,
            state=executor.RESERVED,
            remaining_work=task.work,
            memory=task.memory_demand,
            origin=origin,
            submitted_at=submitted_at,
            deadline=task.deadline,
            spec=task,
        )
        self.agent.record(
            "reserve",
            task=task.task_id,
            attempt=attempt,
            memory=task.memory_demand,
        )
        if origin != self.node:
            self.agent.set_timer(
                RESERVATION_TTL,
                "reservation_ttl",
                {"task_id": task.task_id, "attempt": attempt},
            )
        self.agent.antientropy.publish_profile(force=True)

    def expire_reservation(self, task_id, attempt: int) -> None:
        run = self.engine.runs.get(task_id)
        if run is not None and run.state == executor.RESERVED and run.attempt == attempt:
            self._release(run, "ttl_expired", executor.EVICTED)

    def _release(self, run: executor.TaskRun, reason: str, final_state: str) -> None:
        self._advance(run, final_state)
        del self.engine.runs[run.task_id]
        self.agent.record(
            "release",
            task=run.task_id,
            attempt=run.attempt,
            memory=run.memory,
            reason=reason,
        )
        self._schedule_completion()
        self.agent.antientropy.publish_profile(force=True)

    def cancel(self, task_id, attempt: int) -> None:
        run = self.engine.runs.get(task_id)
        if run is not None and run.attempt == attempt:
            self.agent.record("run_evicted", task=task_id, attempt=attempt)
            self._release(run, "cancel", executor.EVICTED)

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------

    def admit(self, frm: NodeId, task_id, attempt: int) -> None:
        """Start the reserved run `frm` claimed (or this node admitted). A
        CLAIM repeated for the attempt already admitted changes nothing;
        one for a run not held, or not reserved for that attempt, is
        NACKed."""
        run = self.engine.runs.get(task_id)
        if run is None or run.attempt != attempt:
            self.agent.send_task(frm, wire.NACK, task_id, attempt)
            return
        if run.state != executor.RESERVED:  # a repeated CLAIM
            return
        remote = self.agent.antientropy.remote_inputs_for(run.spec, self.node)
        if remote is None:
            cause = "data_unavailable"
            self.agent.record("run_failed", task=task_id, attempt=attempt, cause=cause)
            self._release(run, cause, executor.FAILED)
            self.agent.send_task(run.origin, wire.FAILED, task_id, attempt)
            return
        transfer_time = sum(
            size / self.agent.profile.hw.link_bandwidth + self.sim.net.latency(dist)
            for size, dist in remote
        )
        self._advance(run, executor.TRANSFERRING)
        self.agent.record(
            "run_admitted",
            task=task_id,
            attempt=attempt,
            transfer_time=transfer_time,
        )
        self.agent.set_timer(
            transfer_time,
            "transfer_done",
            {"task_id": task_id, "attempt": attempt},
        )

    def transfer_done(self, task_id, attempt: int) -> None:
        run = self.engine.runs.get(task_id)
        if run is None or run.state != executor.TRANSFERRING or run.attempt != attempt:
            return
        self._advance(run, executor.RUNNING)
        self.agent.record("run_start", task=task_id, attempt=attempt)
        self._schedule_completion()
        if not self._monitor_armed:
            self._monitor_armed = True
            self.agent.set_timer(EXEC_TICK, "monitor")
        self.agent.antientropy.publish_profile()

    # ------------------------------------------------------------------
    # completion and monitoring
    # ------------------------------------------------------------------

    def _schedule_completion(self) -> None:
        nxt = self.engine.next_finish(self.sim.now)
        if nxt is not None:
            self.agent.set_timer(
                max(0.0, nxt[0] - self.sim.now),
                "completion",
                {"generation": self.engine.generation},
            )

    def on_completion(self, generation: int) -> None:
        if generation != self.engine.generation:
            return  # stale: the run set changed since this was scheduled
        now = self.sim.now
        self.engine.integrate(now)
        self._process_finished()
        # A run due at `now` finishes here: a completion timer at `now` would
        # integrate over no time, and be re-armed at `now` forever.
        while (nxt := self.engine.next_finish(now)) is not None and nxt[0] <= now:
            self.engine.finish_first()
            self._process_finished()
        self._schedule_completion()

    def _process_finished(self) -> None:
        for run in sorted(self.engine.finished_runs(), key=lambda r: r.task_id):
            run.transition(executor.DONE)
            del self.engine.runs[run.task_id]
            self.agent.record(
                "run_done",
                task=run.task_id,
                attempt=run.attempt,
                progressed=run.progressed,
            )
            self.agent.send_task(run.origin, wire.DONE, run.task_id, run.attempt)
            self.agent.antientropy.publish_profile(force=True)

    def on_monitor(self) -> None:
        if self.engine.active_count() == 0:
            # One decay step toward idle so the published load is not frozen
            # at the last busy value.
            self.forecast = cognition.forecast_load(0.0, self.forecast)
            self.agent.antientropy.publish_profile()
            self._monitor_armed = False
            return
        now = self.sim.now
        self.engine.integrate(now)
        self.forecast = cognition.forecast_load(self.engine.utilization(), self.forecast)
        self._process_finished()
        for run in sorted(self.engine.running_runs(), key=lambda r: r.task_id):
            if run.qos_warned:
                continue
            projected = self.engine.projected_finish(run, now)
            if projected > run.deadline_abs:
                run.qos_warned = True
                self.agent.record(
                    "qos_warn",
                    task=run.task_id,
                    attempt=run.attempt,
                    projected=projected,
                )
                self.agent.send_task(run.origin, wire.QOS_WARN, run.task_id, run.attempt)
        self._schedule_completion()
        if self.engine.active_count() > 0:
            self.agent.set_timer(EXEC_TICK, "monitor")
        else:
            self._monitor_armed = False
