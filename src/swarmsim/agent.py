"""The per-node agent: one state machine driving every protocol.

Each node runs one NodeAgent instance. All behavior is event-driven
(message in / timer in -> state mutation + outgoing messages), and agents
never touch each other's state except through messages, so the same handlers
could run on independent real processes. In the simulator, agents do share
the immutable records those messages carry (see `wire`). Messages dispatch
by wire kind through `_MESSAGE_HANDLERS` and timers by timer kind through
`_TIMER_HANDLERS`, both module-level tables, to the part that owns the kind:
`gossip`, `antientropy` or `execution`, each holding its state for one life.

The agent keeps the lifecycle, the probe round and the origin side of
scheduling: local-first admission, then OFFER to the top-k scored
candidates, origin-side arbitration (earliest ACCEPT, NodeId tie-break),
CLAIM/CANCEL, NACK-driven retry, re-placement on executor death and
speculative parallel attempts on QoS warnings. The origin holds a task only
while it is open and an offer round only until it is decided: a round that
outlives its task cancels every acceptance, and a DONE for a closed task is
dropped, so each completion is counted once. A NACK, FAILED, QOS-WARN or
late ACCEPT counts only from the node that holds the attempt it names, so a
repeated or stale one changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cognition, membership, wire
from .antientropy import ANTI_ENTROPY_EVERY, STATUS_REFRESH_EVERY, AntiEntropy
from .cognition import SessionHistory
from .execution import Execution
from .gossip import REDISCOVER_EVERY, Gossip
from .model import NodeId, NodeProfile, Position, TaskSpec, capability_match, distance, is_mains
from .scheduler import SchedulerParams, compute_score, data_centroid, select_top_k
from .sim import Simulator, battery_step


PROBE_PERIOD = 1.0  # seconds between probe rounds
BATTERY_TICK = 1.0  # seconds between battery drain steps
OFFER_TIMEOUT = 0.25  # origin decision wait; < execution.RESERVATION_TTL
RETRY_DELAY = 1.0  # backoff when no candidates exist
TOP_K = 3  # candidates offered a task per placement attempt
MAX_ATTEMPTS = 5  # placement attempts before a task fails for good


@dataclass
class _OriginTask:
    """Origin-side record of one open task."""

    spec: TaskSpec
    submitted_at: float
    attempts: int = 0
    executors: dict = field(default_factory=dict)  # attempt -> NodeId


class NodeAgent:
    """State machine for one cognitive resource."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: SchedulerParams,
        profile: NodeProfile,
        owned_sources: list = None,
    ):
        self.sim = sim
        self.scheduler = scheduler
        self.node = profile.node
        self.base_profile = profile
        self.owned_sources = list(owned_sources or [])
        self.incarnation = 0
        self.epoch = 0  # bumps per life; stale-life timers are ignored
        self._reset_state()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _reset_state(self) -> None:
        """Volatile state is lost on crash; rebuilt on (re)join."""
        self.profile = self.base_profile
        self.gossip = Gossip(self)
        self.antientropy = AntiEntropy(self)
        self.execution = Execution(self)
        # The parts' state that collectors and observers read.
        self.view = self.gossip.view
        self.registry = self.antientropy.registry
        self.catalog = self.antientropy.catalog
        self.engine = self.execution.engine
        self.tasks = {}  # TaskId -> _OriginTask, while neither done nor failed
        self.offers = {}  # TaskId -> its undecided offer round
        self.round_no = 0

    def on_start(self) -> None:
        self.epoch += 1
        if self.epoch > 1:
            # Every restart is a new incarnation, so this life's records
            # dominate anything gossip still carries from the previous one.
            self.incarnation += 1
        self._reset_state()
        self.profile = self.base_profile.with_dyn(position=self.sim.position_of(self.node))
        self.gossip.join()
        self.antientropy.publish_profile(force=True)
        for desc in self.owned_sources:
            self.catalog.announce(desc, self.node)
        # The first round comes after a random part of a period, so nodes
        # started together do not run their rounds in lockstep. In lockstep
        # every DIGEST of a round reaches its peer within one latency, before
        # any record that peer wanted from an earlier one has arrived, and a
        # record then spreads by about one node per round.
        self.set_timer(PROBE_PERIOD * (1.0 - self.gossip.life_rng.random()), "round")
        if not is_mains(self.profile.dyn.battery) and self.profile.hw.drain_rate > 0:
            self.set_timer(BATTERY_TICK, "battery", {"dt": BATTERY_TICK})

    def on_leave(self) -> None:
        """Graceful departure: fail running tasks, announce Left."""
        self.execution.leave()
        self.gossip.leave()

    def on_crash(self) -> None:
        """A crash announces nothing: the volatile state is simply lost, and
        `on_start` rebuilds it. The simulator dispatches no message or timer
        to a node that is down."""

    def on_move(self, position: Position) -> None:
        self.profile = self.profile.with_dyn(position=position)
        self.antientropy.publish_profile(force=True)

    def on_battery_tick(self, dt: float) -> None:
        battery = self.profile.dyn.battery
        if is_mains(battery):
            return
        new_level = battery_step(battery, self.profile.hw.drain_rate, dt)
        self.profile = self.profile.with_dyn(battery=new_level)
        if new_level <= 0.0:
            self.record("battery_dead")
            self.sim.crash_node(self.node)
            return
        self.set_timer(BATTERY_TICK, "battery", {"dt": dt})

    # ------------------------------------------------------------------
    # events in and out
    # ------------------------------------------------------------------

    def set_timer(self, delay: float, kind: str, data: dict = None) -> None:
        payload = dict(data or {})
        payload["epoch"] = self.epoch
        self.sim.set_timer(self.node, delay, kind, payload)

    def record(self, event: str, **fields) -> None:
        """Trace one event of this node, stamped with the simulated time."""
        self.sim.record({"t": self.sim.now, "type": event, "node": self.node, **fields})

    def send(self, to: NodeId, kind: str, body: dict) -> None:
        """Send one message with our piggybacked deltas. The body is a value
        from here on: shared with the trace and the receiver, never written."""
        self.sim.send(self.node, to, wire.Message(kind, body, self.gossip.pick_deltas()))

    def send_task(self, to: NodeId, kind: str, task_id, attempt: int) -> None:
        """One message about a task attempt, handled in place when it is
        addressed to this node (an origin that runs its own task)."""
        body = {"task_id": task_id, "attempt": attempt}
        if to == self.node:
            _MESSAGE_HANDLERS[kind](self, self.node, body)
        else:
            self.send(to, kind, body)

    def on_message(self, frm: NodeId, msg: wire.Message) -> None:
        self.gossip.merge_deltas(msg.deltas)
        _MESSAGE_HANDLERS[msg.kind](self, frm, msg.body)

    def on_timer(self, timer_kind: str, data: dict) -> None:
        if data.get("epoch", self.epoch) != self.epoch:
            return  # timer from a previous life of this node
        handler = _TIMER_HANDLERS.get(timer_kind)
        if handler is None:
            raise ValueError(f"unknown timer {timer_kind}")
        handler(self, data)

    def _on_round(self) -> None:
        self.round_no += 1
        self.gossip.probe_random()
        if self.round_no % ANTI_ENTROPY_EVERY == 0:
            self.antientropy.send_digest(self.round_no)
        if self.round_no % REDISCOVER_EVERY == 0:
            self.gossip.rediscover()
        if self.round_no % STATUS_REFRESH_EVERY == 0:
            self.antientropy.publish_profile()
        # Extra liveness probing of our remote executors at both round start
        # and mid-round, so the failure-detection path for active work beats
        # the round-robin cycle even with probe retries in the budget.
        self._ping_executors()
        self.set_timer(PROBE_PERIOD / 2, "liveness")
        self.set_timer(PROBE_PERIOD, "round")

    def _ping_executors(self) -> None:
        gossip = self.gossip
        executors = set()
        for ot in self.tasks.values():
            for node in ot.executors.values():
                if node != self.node and gossip.member_status(node) not in (
                    membership.DEAD, membership.LEFT, None
                ):
                    executors.add(node)
        for target in sorted(executors):
            if target not in gossip.pending_probes:
                gossip.probe(target)

    # ------------------------------------------------------------------
    # scheduling: origin side
    # ------------------------------------------------------------------

    def submit_task(self, task: TaskSpec) -> None:
        ot = _OriginTask(spec=task, submitted_at=self.sim.now)
        self.tasks[task.task_id] = ot
        self.record("task_submitted", task=task.task_id, typology=task.typology)
        self._place(task.task_id)

    def _retry_place(self, task_id) -> None:
        ot = self.tasks.get(task_id)
        if ot is not None and not ot.executors:
            self._place(task_id)

    def _place(self, task_id, exclude: frozenset = frozenset()) -> None:
        """One placement attempt: local-first, then offers to top-k."""
        ot = self.tasks.get(task_id)
        if ot is None:
            return
        ot.attempts += 1
        attempt = ot.attempts
        if attempt > MAX_ATTEMPTS:
            del self.tasks[task_id]
            self.record(
                "task_failed_permanent",
                task=task_id,
                attempts=ot.attempts,
            )
            return
        now = self.sim.now
        task = ot.spec
        deadline_remaining = ot.submitted_at + task.deadline - now
        if self.node not in exclude and self.execution.feasible(task, deadline_remaining):
            self.record("local_admit", task=task.task_id, attempt=attempt)
            ot.executors[attempt] = self.node
            self.execution.reserve(task, attempt, ot.submitted_at, self.node)
            self.execution.admit(self.node, task.task_id, attempt)
            return
        scored, decision = self._score_candidates(task, deadline_remaining, exclude)
        chosen = select_top_k(scored, TOP_K)
        self.record(
            "sched_decision",
            task=task.task_id,
            attempt=attempt,
            candidates=decision,
            chosen=chosen,
        )
        if not chosen:
            self.record("unschedulable", task=task.task_id, attempt=attempt)
            self.set_timer(
                RETRY_DELAY, "retry_place", {"task_id": task.task_id}
            )
            return
        self.offers[task_id] = {
            "attempt": attempt,
            "sent": set(chosen),
            "responded": set(),
            "accepts": [],
        }
        body = {
            "task": task.to_dict(),
            "attempt": attempt,
            "submitted_at": ot.submitted_at,
        }
        for node in chosen:
            self.send(node, wire.OFFER, body)
        self.set_timer(
            OFFER_TIMEOUT,
            "offer_decision",
            {"task_id": task.task_id, "attempt": attempt},
        )

    def predict_completion(self, task: TaskSpec, profile: NodeProfile, remote) -> float:
        return cognition.predict_completion(
            task,
            profile,
            remote,
            base_latency=self.sim.net.base_latency,
            latency_per_meter=self.sim.net.latency_per_meter,
        )

    def _score_candidates(self, task: TaskSpec, deadline_remaining: float, exclude):
        now = self.sim.now

        def pred(entry):
            return entry.node != self.node and entry.node not in exclude and capability_match(
                task, entry.profile
            )

        centroid = data_centroid(
            task, self.antientropy.source_position, self.profile.dyn.position
        )
        scored, decision = [], []
        for entry, stale in self.registry.query(pred, self.gossip.member_status):
            remote = self.antientropy.remote_inputs_for(task, entry.node)
            if remote is None:
                continue
            completion = self.predict_completion(task, entry.profile, remote)
            # Horizon is padded with the entry age so stale battery readings
            # are extrapolated to now before looking ahead.
            horizon = completion + max(0.0, now - entry.stamped_time)
            history = SessionHistory(
                durations=tuple(self.gossip.session_durations.get(entry.node, ())),
                current_session_age=max(
                    0.0, now - self.gossip.alive_since.get(entry.node, now)
                ),
            )
            availability = cognition.predict_availability(entry.profile, history, horizon)
            dist = distance(entry.profile.dyn.position, centroid)
            score = compute_score(
                availability,
                completion,
                deadline_remaining,
                dist,
                self.scheduler,
            )
            scored.append((entry.node, score))
            decision.append(
                {
                    "node": entry.node,
                    "stale": stale,
                    "availability": availability,
                    "completion": completion,
                    "deadline_remaining": deadline_remaining,
                    "distance": dist,
                    "qos": score.qos,
                    "locality": score.locality,
                    "total": score.total,
                }
            )
        return scored, decision

    def _offer_round(self, task_id, attempt: int):
        """The task's offer round for `attempt` while undecided, else None."""
        st = self.offers.get(task_id)
        if st is None or st["attempt"] != attempt:
            return None
        return st

    def _decide_offers(self, task_id, attempt: int) -> None:
        """Close the offer round: on its timer, or once every candidate
        answered."""
        st = self._offer_round(task_id, attempt)
        if st is None:
            return
        del self.offers[task_id]
        accepts = sorted(st["accepts"])  # (time, node): earliest, then lowest id
        ot = self.tasks.get(task_id)
        if ot is None:  # closed while the round was out
            losers = [n for _, n in accepts]
        elif accepts:
            winner = accepts[0][1]
            losers = [n for _, n in accepts[1:]]
            ot.executors[attempt] = winner
            self.record("claim", task=task_id, attempt=attempt, executor=winner)
            self.send_task(winner, wire.CLAIM, task_id, attempt)
        else:
            losers = []
            if not ot.executors:  # a speculative round leaves its running attempt be
                self._place(task_id)
        for loser in losers:
            self.send_task(loser, wire.CANCEL, task_id, attempt)

    def _answer_offer(self, frm: NodeId, body: dict, accepted: bool) -> None:
        """An ACCEPT or REJECT; the round closes once every candidate answered."""
        task_id, attempt = body["task_id"], body["attempt"]
        st = self._offer_round(task_id, attempt)
        if accepted and (st is None or frm not in st["sent"]):
            # Late or stale acceptance: release the candidate's reservation,
            # unless it repeats the claimed executor's.
            if self._holding(frm, body) is None:
                self.send_task(frm, wire.CANCEL, task_id, attempt)
            return
        if st is None or frm in st["responded"]:
            return  # decided, or a repeated answer
        st["responded"].add(frm)
        if accepted:
            st["accepts"].append((self.sim.now, frm))
        if st["responded"] == st["sent"]:
            self._decide_offers(task_id, attempt)

    def _holding(self, frm: NodeId, body: dict):
        """The open task whose attempt in `body` `frm` holds, else None: a
        report from any other node changes nothing."""
        ot = self.tasks.get(body["task_id"])
        if ot is None or ot.executors.get(body["attempt"]) != frm:
            return None
        return ot

    def _lose_attempt(self, frm: NodeId, body: dict, exclude: frozenset = frozenset()) -> None:
        """A NACK or FAILED: `frm` no longer holds the attempt, and the task
        is placed again once none of its attempts runs."""
        ot = self._holding(frm, body)
        if ot is None:
            return
        del ot.executors[body["attempt"]]
        if not ot.executors:
            self._place(body["task_id"], exclude)

    def _handle_done(self, frm: NodeId, body: dict) -> None:
        task_id, attempt = body["task_id"], body["attempt"]
        ot = self.tasks.pop(task_id, None)
        if ot is None:
            return  # closed: completion is counted exactly once
        latency = self.sim.now - ot.submitted_at
        self.record(
            "task_done",
            task=task_id,
            attempt=attempt,
            executor=frm,
            latency=latency,
            deadline_violation=latency > ot.spec.deadline,
        )
        ot.executors.pop(attempt, None)
        for other_attempt, node in sorted(ot.executors.items()):
            self.send_task(node, wire.CANCEL, task_id, other_attempt)

    def _handle_qos_warn(self, frm: NodeId, body: dict) -> None:
        ot = self._holding(frm, body)
        # A run warns once (`TaskRun.qos_warned`), and an attempt has one run.
        if ot is None or ot.attempts >= MAX_ATTEMPTS:
            return
        # Speculative parallel attempt on a different node; first DONE wins.
        self._place(body["task_id"], exclude=frozenset({frm}))

    def on_member_unavailable(self, peer: NodeId) -> None:
        """Membership reports Dead/Left: re-place our tasks that ran there."""
        # Re-placing a task changes no other task's record.
        for task_id, ot in sorted(self.tasks.items()):
            dead_attempts = [a for a, n in ot.executors.items() if n == peer]
            if not dead_attempts:
                continue
            for attempt in dead_attempts:
                del ot.executors[attempt]
            self.record("replace_on_death", task=task_id, dead=peer)
            if not ot.executors:
                self._place(task_id, exclude=frozenset({peer}))


# Message kind -> handler(agent, frm, body), calling the part that owns the
# kind. LEAVE needs no handling: the Left record it announces travels in the
# piggybacked deltas. HELLO and DIGEST are answered alike; a HELLO-ACK is a
# DELTA answering a HELLO.
_MESSAGE_HANDLERS = {
    wire.HELLO: lambda a, frm, body: a.antientropy.reconcile(frm, body, wire.HELLO_ACK),
    wire.HELLO_ACK: lambda a, frm, body: a.antientropy.handle_delta(frm, body),
    wire.PING: lambda a, frm, body: a.gossip.handle_ping(frm, body),
    wire.ACK: lambda a, frm, body: a.gossip.handle_ack(frm, body),
    wire.LEAVE: lambda a, frm, body: None,
    wire.DIGEST: lambda a, frm, body: a.antientropy.reconcile(frm, body, wire.DELTA),
    wire.DELTA: lambda a, frm, body: a.antientropy.handle_delta(frm, body),
    wire.OFFER: lambda a, frm, body: a.execution.handle_offer(frm, body),
    wire.ACCEPT: lambda a, frm, body: a._answer_offer(frm, body, True),
    wire.REJECT: lambda a, frm, body: a._answer_offer(frm, body, False),
    wire.CLAIM: lambda a, frm, body: a.execution.admit(frm, body["task_id"], body["attempt"]),
    wire.CANCEL: lambda a, frm, body: a.execution.cancel(body["task_id"], body["attempt"]),
    wire.NACK: lambda a, frm, body: a._lose_attempt(frm, body),
    wire.DONE: NodeAgent._handle_done,
    wire.FAILED: lambda a, frm, body: a._lose_attempt(frm, body, frozenset({frm})),
    wire.QOS_WARN: NodeAgent._handle_qos_warn,
}


# Timer kind -> handler(agent, data), calling the part that owns the kind.
# `battery` looks `on_battery_tick` up on the agent at call time, so a
# replacement patched onto the class still runs.
_TIMER_HANDLERS = {
    "round": lambda a, d: a._on_round(),
    "liveness": lambda a, d: a._ping_executors(),
    "probe_timeout": lambda a, d: a.gossip.on_probe_timeout(d),
    "suspect_dead": lambda a, d: a.gossip.promote_dead(d),
    "member_gc": lambda a, d: a.gossip.gc_member(d),
    "battery": lambda a, d: a.on_battery_tick(d["dt"]),
    "task_arrival": lambda a, d: a.submit_task(d["task"]),
    "offer_decision": lambda a, d: a._decide_offers(d["task_id"], d["attempt"]),
    "reservation_ttl": lambda a, d: a.execution.expire_reservation(d["task_id"], d["attempt"]),
    "transfer_done": lambda a, d: a.execution.transfer_done(d["task_id"], d["attempt"]),
    "completion": lambda a, d: a.execution.on_completion(d["generation"]),
    "monitor": lambda a, d: a.execution.on_monitor(),
    "retry_place": lambda a, d: a._retry_place(d["task_id"]),
}
