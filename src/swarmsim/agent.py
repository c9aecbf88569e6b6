"""The per-node agent: one state machine driving every protocol.

Each node runs one NodeAgent instance. All behavior is event-driven
(message in / timer in -> state mutation + outgoing messages), and agents
never touch each other's state except through messages, so the same handlers
could run on independent real processes. In the simulator, agents do share
the immutable records those messages carry (see `wire`). Messages dispatch
by wire kind through `_MESSAGE_HANDLERS` and timers by timer kind through
`_TIMER_HANDLERS`, both module-level tables.

Protocol summary:
  * membership: round-robin PING/ACK probing with piggybacked deltas
    (Suspect on timeout, Dead after t_dead, incarnation refutation),
    HELLO/HELLO-ACK discovery on start and periodic re-discovery to heal
    partitions and merge swarms, each to at most JOIN_FANOUT peers drawn
    from a per-life random stream;
  * anti-entropy (Scuttlebutt-style, digest first): every other round a
    round-robin peer gets a DIGEST of version maps for the view, the data
    catalog and the registry; it answers with one DELTA holding the records
    the maps lack and `want_*` lists of what it lacks, and the wanted
    records follow in one more DELTA. An exchange with nothing to carry
    sends nothing after the DIGEST. HELLO carries the view's map and
    HELLO-ACK answers it the same way. Each life starts its rounds at a
    random phase, so a peer answers DIGESTs spread over the period and
    passes on what it wanted from earlier ones;
  * scheduling: local-first admission, then OFFER to the top-k scored
    candidates, origin-side arbitration (earliest ACCEPT, NodeId tie-break),
    CLAIM/CANCEL, NACK-driven retry, re-placement on executor death and
    speculative parallel attempts on QoS warnings;
  * execution: fair-share engine with exact completion events plus a
    periodic monitor tick for QoS projection and load forecasting.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field

from . import cognition, dataplane, executor, membership, wire
from .cognition import LoadForecast, SessionHistory
from .model import (
    DynamicStatus,
    NodeId,
    NodeProfile,
    Position,
    TaskSpec,
    capability_match,
    distance,
    is_mains,
)
from .registry import Registry, RegistryEntry
from .scheduler import SchedulerParams, compute_score, data_centroid, select_top_k
from .sim import Simulator, battery_step, substream

# HELLOs per join and per re-discovery round. Bounded, so a node joining N
# reachable peers costs O(1) messages, not O(N) (SWIM's bounded
# dissemination); the rest of the swarm learns of it by gossip.
JOIN_FANOUT = 3


@dataclass(frozen=True)
class AgentConfig:
    """Protocol timing and policy knobs, scenario-configurable."""

    probe_period: float = 1.0  # seconds between probe rounds
    probe_timeout: float = 0.15  # ack wait per attempt (3x one-hop RTT)
    probe_retries: int = 3  # consecutive misses before Suspect
    t_dead: float = 0.6  # Suspect -> Dead promotion delay (4x timeout)
    t_split: float = 1.5  # unreachable-majority age triggering split
    retention: float = 30.0  # Dead/Left GC delay
    gossip_k: int = 8  # piggybacked deltas per message
    retransmit_limit: int = 12  # times a delta is piggybacked before retiring
    leave_fanout: int = 3
    anti_entropy_every: int = 2  # in probe rounds
    rediscover_every: int = 5  # in probe rounds
    status_refresh_every: int = 2  # in probe rounds
    battery_tick: float = 1.0
    exec_tick: float = 0.1  # monitor period while tasks are active
    reservation_ttl: float = 0.3  # 2x probe_timeout
    offer_timeout: float = 0.25  # origin decision wait; < reservation_ttl
    retry_delay: float = 1.0  # backoff when no candidates exist
    scheduler: SchedulerParams = field(default_factory=SchedulerParams)
    forecast_alpha: float = 0.3
    min_capacity: float = cognition.MIN_CAPACITY_FRACTION


@dataclass
class _OriginTask:
    """Origin-side lifecycle record for one submitted task."""

    spec: TaskSpec
    submitted_at: float
    attempts: int = 0
    done: bool = False
    failed: bool = False
    executors: dict = field(default_factory=dict)  # attempt -> NodeId
    offer: dict = None  # outstanding offer round, if any
    warned_attempts: set = field(default_factory=set)


class NodeAgent:
    """State machine for one cognitive resource."""

    def __init__(
        self,
        sim: Simulator,
        cfg: AgentConfig,
        profile: NodeProfile,
        drain_rate: float = 0.0,
        drain_rates: dict = None,
        owned_sources: list = None,
    ):
        self.sim = sim
        self.cfg = cfg
        self.node = profile.node
        self.base_profile = profile
        self.initial_battery = profile.dyn.battery
        self.drain_rate = drain_rate
        self.drain_rates = drain_rates or {}
        self.owned_sources = list(owned_sources or [])
        self.incarnation = 0
        self.alive = False
        self.epoch = 0  # bumps per life; stale-life timers are ignored
        self._reset_state()

    def _set_timer(self, delay: float, kind: str, data: dict = None) -> None:
        payload = dict(data or {})
        payload["epoch"] = self.epoch
        self.sim.set_timer(self.node, delay, kind, payload)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _reset_state(self) -> None:
        """Volatile state is lost on crash; rebuilt on (re)join."""
        self.profile = self.base_profile
        self.view = membership.SwarmView(self_node=self.node)
        self.registry = Registry(self.node)
        self.catalog = dataplane.Catalog(self.node)
        self.engine = executor.ExecutorEngine(self.base_profile.hw.cpu_perf_index)
        self.forecast = LoadForecast(
            ewma_utilization=self.base_profile.dyn.utilization,
            alpha=self.cfg.forecast_alpha,
        )
        self.gossip_buffer = {}  # NodeId -> [MemberState, transmit_count]
        # Tier c: the sorted ids in `gossip_buffer` sent c times so far.
        self._gossip_tiers = [[] for _ in range(max(1, self.cfg.retransmit_limit))]
        self.alive_since = {}  # peer -> local time it became Alive in my view
        self.session_durations = {}  # peer -> list of completed durations
        self.tasks = {}  # TaskId -> _OriginTask, kept once closed (late DONEs)
        self.open_tasks = {}  # the subset of `tasks` neither done nor failed
        self.run_specs = {}  # TaskId -> TaskSpec of the run on this node
        self.pending_probes = {}  # target -> token
        self._probe_token = 0
        self._probe_rng = substream(self.sim.seed, f"probe-{self.node}-{self.epoch}")
        self.round_no = 0
        self.last_swarm_id = self.node
        self._monitor_armed = False
        self._self_declared_at = 0.0

    def on_start(self) -> None:
        now = self.sim.now
        self.alive = True
        self.epoch += 1
        if self.epoch > 1:
            # Every restart is a new incarnation, so this life's records
            # dominate anything gossip still carries from the previous one.
            self.incarnation += 1
        self._reset_state()
        # This life's own draws: HELLO picks and the phase of its rounds.
        self._life_rng = substream(self.sim.seed, f"life-{self.node}-{self.epoch}")
        self.profile = self.base_profile.with_dyn(
            battery=self.initial_battery, position=self.sim.position_of(self.node)
        )
        self._self_declared_at = now
        self.view.apply(self._self_state())
        self.publish_profile(force=True)
        for desc in self.owned_sources:
            self.catalog.announce(desc, self.node)
        # Discovery: HELLO a few physically reachable peers.
        self._hello_some(self.sim.discover(self.node))
        # The first round comes after a random part of a period, so nodes
        # started together do not run their rounds in lockstep. In lockstep
        # every DIGEST of a round reaches its peer within one latency, before
        # any record that peer wanted from an earlier one has arrived, and a
        # record then spreads by about one node per round.
        self._set_timer(self.cfg.probe_period * (1.0 - self._life_rng.random()), "round")
        if not is_mains(self.profile.dyn.battery) and self.drain_rate > 0:
            self._set_timer(
                self.cfg.battery_tick,
                "battery",
                {"dt": self.cfg.battery_tick},
            )

    def on_leave(self) -> None:
        """Graceful departure: fail running tasks, announce Left."""
        now = self.sim.now
        self.engine.integrate(now)
        for run in sorted(self.engine.runs.values(), key=lambda r: r.task_id):
            if run.state in executor.ACTIVE:
                run.transition(executor.FAILED)
                self._record(
                    "run_failed",
                    task=run.task_id,
                    attempt=run.attempt,
                    cause="leave",
                )
                # Not `_report`: this node's own tasks leave with it.
                if run.origin != self.node:
                    self._send(run.origin, wire.FAILED, {
                        "task_id": run.task_id, "attempt": run.attempt, "cause": "leave",
                    })
        left = membership.MemberState(
            node=self.node,
            status=membership.LEFT,
            incarnation=self.incarnation,
            last_update_time=now,
        )
        self.view.apply(left)
        peers = [
            n
            for n in self.view.alive_nodes()
            if n != self.node
        ][: self.cfg.leave_fanout]
        for peer in peers:
            self._send(peer, wire.LEAVE, {})
        self.alive = False

    def on_crash(self) -> None:
        self.alive = False

    def on_move(self, position: Position) -> None:
        self.profile = self.profile.with_dyn(position=position)
        self.publish_profile(force=True)

    def on_battery_tick(self, dt: float) -> None:
        battery = self.profile.dyn.battery
        if is_mains(battery):
            return
        new_level = battery_step(battery, self.drain_rate, dt)
        self.profile = self.profile.with_dyn(battery=new_level)
        if new_level <= 0.0:
            self._record("battery_dead")
            self.sim.crash_node(self.node)
            return
        self._set_timer(self.cfg.battery_tick, "battery", {"dt": dt})

    # ------------------------------------------------------------------
    # membership internals
    # ------------------------------------------------------------------

    def _self_state(self) -> membership.MemberState:
        return membership.MemberState(
            node=self.node,
            status=membership.ALIVE,
            incarnation=self.incarnation,
            last_update_time=self._self_declared_at,
        )

    def _queue_delta(self, state: membership.MemberState) -> None:
        """(Re)start gossiping a peer's record, at transmit count 0. Our own
        record is never queued: it rides first in every message anyway."""
        slot = self.gossip_buffer.get(state.node)
        if slot is None:
            self.gossip_buffer[state.node] = [state, 0]
        else:
            self._untier(state.node, slot[1])
            slot[0], slot[1] = state, 0
        insort(self._gossip_tiers[0], state.node)

    def _untier(self, node: NodeId, sent: int) -> None:
        tier = self._gossip_tiers[sent]
        del tier[bisect_left(tier, node)]

    def _pick_deltas(self) -> wire.RecordList:
        """Our own record, then up to gossip_k - 1 buffered deltas, least
        transmitted first (ties by NodeId); a delta retires once it has been
        sent retransmit_limit times.

        The picks are the front ids of the lowest non-empty tiers, so the
        Python work is per picked slot, not a sort of the buffer. Only
        picked slots are retired: every other slot is below the limit,
        since slots start at 0 and only picks raise them, unless the limit
        is <= 0, which retires every slot on every send.
        """
        self_record = self.view.members.get(self.node) or self._self_state()
        picks = [self_record.to_dict()]
        buffer = self.gossip_buffer
        tiers = self._gossip_tiers
        limit = self.cfg.retransmit_limit
        want = self.cfg.gossip_k - 1
        if want > 0 and buffer:
            moves = []  # (transmit count after this send, ids), in pick order
            for sent, tier in enumerate(tiers):
                if tier:
                    chosen = tier[:want]
                    del tier[:want]
                    moves.append((sent + 1, chosen))
                    want -= len(chosen)
                    if not want:
                        break
            # Re-tiered only now, so no slot is picked twice in one send.
            for sent, chosen in moves:
                if sent < limit:
                    for node in chosen:
                        slot = buffer[node]
                        picks.append(slot[0].to_dict())
                        slot[1] = sent
                    tier = tiers[sent]
                    tier += chosen
                    tier.sort()  # two sorted runs: one linear merge
                else:
                    for node in chosen:
                        picks.append(buffer.pop(node)[0].to_dict())
        if limit <= 0:
            buffer.clear()
            tiers[0].clear()
        return wire.RecordList(picks)

    def _record(self, event: str, **fields) -> None:
        """Trace one event of this node, stamped with the simulated time."""
        self.sim.record({"t": self.sim.now, "type": event, "node": self.node, **fields})

    def _send(self, to: NodeId, kind: str, body: dict) -> None:
        """Send one message with our piggybacked deltas. The body is a value
        from here on: shared with the trace and the receiver, never written."""
        self.sim.send(self.node, to, wire.Message(kind, body, self._pick_deltas()))

    def _send_task(self, to: NodeId, kind: str, task_id, attempt: int) -> None:
        self._send(to, kind, {"task_id": task_id, "attempt": attempt})

    def _report(self, origin: NodeId, kind: str, body: dict) -> None:
        """Executor -> origin: handled in place when this node is the origin."""
        if origin == self.node:
            _MESSAGE_HANDLERS[kind](self, self.node, body)
        else:
            self._send(origin, kind, body)

    def _merge_member(self, state: membership.MemberState) -> None:
        now = self.sim.now
        if state.node == self.node:
            # Refutation: someone believes we are gone; reclaim with a higher
            # incarnation. Dead at incarnation k can only return as k+1.
            if (
                state.status != membership.ALIVE
                and state.incarnation >= self.incarnation
                and self.alive
            ):
                self.incarnation = state.incarnation + 1
                self._self_declared_at = now
                self.view.apply(self._self_state())
                # The profile is unchanged, so the registry entry stands (a
                # query reads liveness from the view). Republishing it would
                # put one more change on the slower anti-entropy path.
            return
        if membership.expired(
            state.status, state.last_update_time, now, self.cfg.retention
        ):
            return
        before = self.view.members.get(state.node)
        if not self.view.apply(state):
            return
        after = self.view.members[state.node]
        self._queue_delta(after)
        before_status = before.status if before is not None else None
        if after.status == membership.ALIVE and before_status != membership.ALIVE:
            self.alive_since[state.node] = now
        if after.status == membership.SUSPECT:
            self._set_timer(
                max(0.0, after.last_update_time + self.cfg.t_dead - now),
                "suspect_dead",
                {
                    "node": after.node,
                    "incarnation": after.incarnation,
                    "since": after.last_update_time,
                },
            )
        if after.status in (membership.DEAD, membership.LEFT):
            if before_status not in (membership.DEAD, membership.LEFT):
                started = self.alive_since.pop(state.node, None)
                if started is not None:
                    self.session_durations.setdefault(state.node, []).append(
                        max(0.0, after.last_update_time - started)
                    )
                self._on_member_unavailable(after.node)
            # Re-armed on every record change: the declared timestamp can
            # still drop (prefer keeps the minimum), and GC must match the
            # final record exactly so all holders collect simultaneously.
            self._set_timer(
                max(0.0, after.last_update_time + self.cfg.retention - now),
                "member_gc",
                {
                    "node": after.node,
                    "incarnation": after.incarnation,
                    "status": after.status,
                    "since": after.last_update_time,
                },
            )
        if state.node <= self.last_swarm_id:
            self._check_swarm_change("merge")

    def _merge_deltas(self, records: list) -> None:
        """Merge gossiped member record dicts (piggybacked deltas, or the
        records a DELTA or HELLO-ACK carries).

        A record the view already dominates would be a no-op, so it is
        skipped before decoding. Our own record always takes the slow path:
        refutation must see every claim that we are gone. A merged record is
        the sender's own `MemberState` (`wire.adopt`), not a copy.
        """
        dominates = self.view.dominates
        for d in records:
            if d["node"] != self.node and dominates(d):
                continue
            self._merge_member(wire.adopt(d, membership.MemberState.from_dict))

    def _hello_some(self, peers: list) -> None:
        """HELLO at most JOIN_FANOUT of `peers`, drawn from this life's own
        stream: not the lowest ids, which every node would pick alike."""
        if len(peers) > JOIN_FANOUT:
            peers = sorted(self._life_rng.sample(peers, JOIN_FANOUT))
        for peer in peers:
            self._send(peer, wire.HELLO, {"view": self.view.version_map()})

    def _reconcile(self, frm: NodeId, body: dict, reply_kind: str) -> None:
        """Answer a peer's version maps (a HELLO's view map, or a DIGEST's
        view, catalog and registry maps) with a `reply_kind` message: under
        each map's key our records the map lacks, under `want_<key>` the ids
        whose record there holds something ours lacks. Empty parts are left
        out, and an empty answer, the two sides holding the same, is not
        sent."""
        diffs = (
            ("view", lambda m: self.view.diff(m, self.sim.now, self.cfg.retention)),
            ("catalog", self.catalog.diff),
            ("registry", self.registry.diff),
        )
        reply = {}
        for key, diff in diffs:
            if key not in body:
                continue
            push, want = diff(body[key])
            if push:
                reply[key] = wire.RecordList(r.to_dict() for r in push)
            if want:
                reply["want_" + key] = want
        if reply:
            self._send(frm, reply_kind, reply)

    def _suspect(self, target: NodeId) -> None:
        current = self.view.members.get(target)
        if current is None or current.status != membership.ALIVE:
            return
        self._merge_member(
            membership.MemberState(
                node=target,
                status=membership.SUSPECT,
                incarnation=current.incarnation,
                last_update_time=self.sim.now,
            )
        )

    def _check_swarm_change(self, reason: str) -> None:
        """Trace a change of the swarm id (the minimum Alive id) and keep it
        in `last_swarm_id`. `_merge_member` calls this only for a member id
        up to `last_swarm_id`, which is exact: while we run, our own record
        is Alive (a claim otherwise is refuted, never applied), so the
        minimum exists and is at most our id, and no larger id can become it
        or stop being it. GC removes only Dead and Left records.
        """
        sid = self.view.swarm_id
        if sid != self.last_swarm_id:
            kind = "merge" if sid < self.last_swarm_id else "split"
            self._record(
                "swarm_change",
                old=self.last_swarm_id,
                new=sid,
                kind=kind,
                reason=reason,
            )
            self.last_swarm_id = sid

    def member_status(self, node: NodeId):
        state = self.view.members.get(node)
        return state.status if state is not None else None

    def _is_usable(self, node: NodeId) -> bool:
        return self.member_status(node) not in (membership.DEAD, membership.LEFT, None)

    # ------------------------------------------------------------------
    # probe rounds and anti-entropy
    # ------------------------------------------------------------------

    def _on_round(self) -> None:
        now = self.sim.now
        self.round_no += 1
        targets = self.view.probe_targets()
        if targets:
            # Random pick from a per-node stream, not synchronized
            # round-robin: lockstep schedules leave the same member unprobed
            # by everyone at once.
            target = targets[self._probe_rng.randrange(len(targets))]
            self._probe(target)
        if self.round_no % self.cfg.anti_entropy_every == 0:
            self._anti_entropy_round()
        if self.round_no % self.cfg.rediscover_every == 0:
            self._rediscover()
        if self.round_no % self.cfg.status_refresh_every == 0:
            self.publish_profile()
        if membership.split_condition(self.view, now, self.cfg.t_split):
            self._check_swarm_change("split_detect")
        # Extra liveness probing of our remote executors at both round start
        # and mid-round, so the failure-detection path for active work beats
        # the round-robin cycle even with probe retries in the budget.
        self._ping_executors()
        self._set_timer(self.cfg.probe_period / 2, "liveness")
        self._set_timer(self.cfg.probe_period, "round")

    def _probe(self, target: NodeId, misses: int = 0) -> None:
        self._probe_token += 1
        token = self._probe_token
        self.pending_probes[target] = token
        self._send(target, wire.PING, {"token": token})
        self._set_timer(
            self.cfg.probe_timeout,
            "probe_timeout",
            {"target": target, "token": token, "misses": misses},
        )

    def _on_probe_timeout(self, data: dict) -> None:
        target = data["target"]
        if self.pending_probes.get(target) != data["token"]:
            return
        del self.pending_probes[target]
        misses = data["misses"] + 1
        if misses < self.cfg.probe_retries:
            # Retry before suspecting: one lost PING/ACK must not look like a
            # crash on a lossy link.
            self._probe(target, misses=misses)
        else:
            self._suspect(target)

    def _ping_executors(self) -> None:
        executors = set()
        for ot in self.open_tasks.values():
            for node in ot.executors.values():
                if node != self.node and self._is_usable(node):
                    executors.add(node)
        for target in sorted(executors):
            if target not in self.pending_probes:
                self._probe(target)

    def _anti_entropy_round(self) -> None:
        peers = [n for n in self.view.alive_nodes() if n != self.node]
        if not peers:
            return
        peer = peers[(self.round_no // self.cfg.anti_entropy_every) % len(peers)]
        body = {
            "view": self.view.version_map(),
            "catalog": self.catalog.version_map(),
            "registry": self.registry.version_map(),
        }
        self._send(peer, wire.DIGEST, body)

    def _rediscover(self) -> None:
        """HELLO a few reachable peers the view lacks or does not hold Alive:
        heals partitions and merges swarms."""
        self._hello_some([
            peer
            for peer in self.sim.discover(self.node)
            if self.member_status(peer) != membership.ALIVE
        ])

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------

    def on_message(self, frm: NodeId, msg: wire.Message) -> None:
        if not self.alive:
            return
        self._merge_deltas(msg.deltas)
        handler = _MESSAGE_HANDLERS[msg.kind]
        if handler is not None:
            handler(self, frm, msg.body)

    def _handle_ping(self, frm: NodeId, body: dict) -> None:
        self._send(frm, wire.ACK, {"token": body["token"]})

    def _handle_ack(self, frm: NodeId, body: dict) -> None:
        if self.pending_probes.get(frm) == body["token"]:
            del self.pending_probes[frm]

    def _handle_delta(self, frm: NodeId, body: dict) -> None:
        """Merge the records of a DELTA or HELLO-ACK, then send the records
        its `want_*` lists ask for in one more DELTA. A wanted tombstone that
        expired in between is dropped by the receiver's merge."""
        self._merge_deltas(body.get("view", ()))
        for doc in body.get("catalog", ()):
            self.catalog.merge(wire.adopt(doc, dataplane.CatalogRecord.from_dict))
        for doc in body.get("registry", ()):
            self.registry.merge(wire.adopt(doc, RegistryEntry.from_dict))
        reply = {}
        for key, held in (
            ("view", self.view.members),
            ("catalog", self.catalog.records),
            ("registry", self.registry.entries),
        ):
            wanted = [held[i].to_dict() for i in body.get("want_" + key, ()) if i in held]
            if wanted:
                reply[key] = wire.RecordList(wanted)
        if reply:
            self._send(frm, wire.DELTA, reply)

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------

    def on_timer(self, timer_kind: str, data: dict) -> None:
        if not self.alive:
            return
        if data.get("epoch", self.epoch) != self.epoch:
            return  # timer from a previous life of this node
        handler = _TIMER_HANDLERS.get(timer_kind)
        if handler is None:
            raise ValueError(f"unknown timer {timer_kind}")
        handler(self, data)

    def _promote_dead(self, data: dict) -> None:
        state = self.view.members.get(data["node"])
        if (
            state is not None
            and state.status == membership.SUSPECT
            and state.incarnation == data["incarnation"]
            and state.last_update_time == data["since"]
        ):
            self._merge_member(
                membership.MemberState(
                    node=state.node,
                    status=membership.DEAD,
                    incarnation=state.incarnation,
                    last_update_time=data["since"] + self.cfg.t_dead,
                )
            )

    def _gc_member(self, data: dict) -> None:
        state = self.view.members.get(data["node"])
        if (
            state is not None
            and state.status == data["status"]
            and state.incarnation == data["incarnation"]
            and state.last_update_time == data["since"]
        ):
            self.view.remove(data["node"])
            slot = self.gossip_buffer.pop(data["node"], None)
            if slot is not None:
                self._untier(data["node"], slot[1])
            self.registry.evict(data["node"])

    # ------------------------------------------------------------------
    # profile publishing
    # ------------------------------------------------------------------

    def publish_profile(self, force: bool = False) -> None:
        dyn = DynamicStatus(
            utilization=round(self.forecast.ewma_utilization, 6),
            battery=(
                self.profile.dyn.battery
                if is_mains(self.profile.dyn.battery)
                else round(self.profile.dyn.battery, 4)
            ),
            position=self.profile.dyn.position,
            scheduled_task_ids=tuple(sorted(self.engine.runs)),
            status_version=self.profile.dyn.status_version,
        )
        candidate = NodeProfile(
            node=self.node,
            hw=self.profile.hw,
            sw=self.profile.sw,
            dyn=dyn,
            adv=self.profile.adv,
        )
        current = self.registry.entries.get(self.node)
        if not force and current is not None:
            a, b = current.profile.to_dict(), candidate.to_dict()
            a["dyn"]["status_version"] = b["dyn"]["status_version"] = 0
            if a == b:
                return
        self.registry.local_update(candidate, self.incarnation, self.sim.now)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------

    def _alive_for_data(self, node: NodeId) -> bool:
        if node == self.node:
            return True
        return self.member_status(node) == membership.ALIVE

    def _position_of_member(self, node: NodeId):
        if node == self.node:
            return self.profile.dyn.position
        entry = self.registry.entries.get(node)
        return entry.profile.dyn.position if entry is not None else None

    def _resolve(self, data_id, reader: NodeId):
        def pos(n):
            p = self._position_of_member(n)
            # Unknown positions sort last but stay eligible.
            return p if p is not None else Position(1e12, 1e12)

        def alive(n):
            return self._alive_for_data(n) and (
                n == reader or self._position_of_member(n) is not None
            )

        return self.catalog.resolve(data_id, reader, pos, alive)

    def _remote_inputs_for(self, task: TaskSpec, runner: NodeId):
        """[(size, distance)] for inputs not local to `runner`; None when an
        input has no live resolvable replica."""
        out = []
        runner_pos = self._position_of_member(runner)
        for inp in task.input_data:
            replica = self._resolve(inp.source, runner)
            if replica is None:
                return None
            if replica == runner:
                continue
            rep_pos = self._position_of_member(replica)
            if runner_pos is None or rep_pos is None:
                return None
            out.append((inp.size, distance(runner_pos, rep_pos)))
        return out

    # ------------------------------------------------------------------
    # scheduling: origin side
    # ------------------------------------------------------------------

    def submit_task(self, task: TaskSpec) -> None:
        ot = _OriginTask(spec=task, submitted_at=self.sim.now)
        self.tasks[task.task_id] = self.open_tasks[task.task_id] = ot
        self._record("task_submitted", task=task.task_id, typology=task.typology)
        self._place(task.task_id)

    def _retry_place(self, task_id) -> None:
        ot = self.open_tasks.get(task_id)
        if ot is not None and not ot.executors:
            self._place(task_id)

    def _fail_permanent(self, ot: _OriginTask) -> None:
        ot.failed = True
        del self.open_tasks[ot.spec.task_id]
        self._record(
            "task_failed_permanent",
            task=ot.spec.task_id,
            attempts=ot.attempts,
        )

    def _place(self, task_id, exclude: frozenset = frozenset()) -> None:
        """One placement attempt: local-first, then offers to top-k."""
        ot = self.open_tasks.get(task_id)
        if ot is None:
            return
        ot.attempts += 1
        attempt = ot.attempts
        if attempt > self.cfg.scheduler.max_attempts:
            self._fail_permanent(ot)
            return
        now = self.sim.now
        task = ot.spec
        deadline_remaining = ot.submitted_at + task.qos.deadline - now
        if self.node not in exclude and self._locally_feasible(task, deadline_remaining):
            self._record("local_admit", task=task.task_id, attempt=attempt)
            ot.executors[attempt] = self.node
            self._reserve_run(task, attempt, ot.submitted_at)
            self._admit_run(task.task_id, attempt)
            return
        scored, decision = self._score_candidates(task, deadline_remaining, exclude)
        chosen = select_top_k(scored, self.cfg.scheduler.top_k)
        self._record(
            "sched_decision",
            task=task.task_id,
            attempt=attempt,
            candidates=decision,
            chosen=chosen,
        )
        if not chosen:
            self._record("unschedulable", task=task.task_id, attempt=attempt)
            self._set_timer(
                self.cfg.retry_delay, "retry_place", {"task_id": task.task_id}
            )
            return
        ot.offer = {
            "attempt": attempt,
            "sent": set(chosen),
            "responded": set(),
            "accepts": [],
            "decided": False,
        }
        body = {
            "task": task.to_dict(),
            "attempt": attempt,
            "submitted_at": ot.submitted_at,
        }
        for node in chosen:
            self._send(node, wire.OFFER, body)
        self._set_timer(
            self.cfg.offer_timeout,
            "offer_decision",
            {"task_id": task.task_id, "attempt": attempt},
        )

    def _locally_feasible(self, task: TaskSpec, deadline_remaining: float) -> bool:
        if not capability_match(task, self.profile):
            return False
        if self.engine.memory_in_use() + task.memory_demand > self.profile.hw.memory:
            return False
        remote = self._remote_inputs_for(task, self.node)
        if remote is None:
            return False
        own = self.profile.with_dyn(utilization=self.engine.utilization())
        return self._predict_completion(task, own, remote) <= deadline_remaining

    def _predict_completion(self, task: TaskSpec, profile: NodeProfile, remote) -> float:
        return cognition.predict_completion(
            task,
            profile,
            remote,
            base_latency=self.sim.net.base_latency,
            latency_per_meter=self.sim.net.latency_per_meter,
            min_capacity=self.cfg.min_capacity,
        )

    def _score_candidates(self, task: TaskSpec, deadline_remaining: float, exclude):
        now = self.sim.now

        def pred(entry):
            return entry.node != self.node and entry.node not in exclude and capability_match(
                task, entry.profile
            )

        centroid = data_centroid(
            task, self._source_position, self.profile.dyn.position
        )
        scored, decision = [], []
        for entry, stale in self.registry.query(pred, self.member_status):
            remote = self._remote_inputs_for(task, entry.node)
            if remote is None:
                continue
            completion = self._predict_completion(task, entry.profile, remote)
            # Horizon is padded with the entry age so stale battery readings
            # are extrapolated to now before looking ahead.
            horizon = completion + max(0.0, now - entry.stamped_time)
            history = SessionHistory(
                durations=tuple(self.session_durations.get(entry.node, ())),
                current_session_age=max(
                    0.0, now - self.alive_since.get(entry.node, now)
                ),
            )
            availability = cognition.predict_availability(
                entry.profile,
                history,
                horizon,
                drain_rate=self.drain_rates.get(entry.node, 0.0),
            )
            dist = distance(entry.profile.dyn.position, centroid)
            score = compute_score(
                availability,
                completion,
                deadline_remaining,
                dist,
                self.cfg.scheduler,
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

    def _source_position(self, source_id):
        rec = self.catalog.records.get(source_id)
        if rec is None:
            return None
        owner = rec.descriptor.owner
        pos = self._position_of_member(owner)
        if pos is not None:
            return pos
        for replica in sorted(rec.descriptor.replicas):
            pos = self._position_of_member(replica)
            if pos is not None:
                return pos
        return None

    def _offer_round(self, task_id, attempt: int):
        """The task's offer round for `attempt` while undecided, else None."""
        ot = self.tasks.get(task_id)
        st = ot.offer if ot is not None else None
        if st is None or st["attempt"] != attempt or st["decided"]:
            return None
        return st

    def _decide_offers(self, task_id, attempt: int) -> None:
        """Close the offer round: on its timer, or once every candidate
        answered."""
        st = self._offer_round(task_id, attempt)
        if st is None:
            return
        ot = self.tasks[task_id]
        st["decided"] = True
        accepts = sorted(st["accepts"])  # (time, node): earliest, then lowest id
        if ot.done or ot.failed:
            losers = [n for _, n in accepts]
        elif accepts:
            winner = accepts[0][1]
            losers = [n for _, n in accepts[1:]]
            ot.executors[attempt] = winner
            self._record("claim", task=task_id, attempt=attempt, executor=winner)
            self._send_task(winner, wire.CLAIM, task_id, attempt)
        else:
            losers = []
            self._place(task_id)
        for loser in losers:
            self._send_task(loser, wire.CANCEL, task_id, attempt)

    def _handle_accept(self, frm: NodeId, body: dict) -> None:
        task_id, attempt = body["task_id"], body["attempt"]
        st = self._offer_round(task_id, attempt)
        if st is None or frm not in st["sent"]:
            # Late or stale acceptance: release the candidate's reservation.
            self._send_task(frm, wire.CANCEL, task_id, attempt)
            return
        st["responded"].add(frm)
        st["accepts"].append((self.sim.now, frm))
        if st["responded"] == st["sent"]:
            self._decide_offers(task_id, attempt)

    def _handle_reject(self, frm: NodeId, body: dict) -> None:
        task_id, attempt = body["task_id"], body["attempt"]
        st = self._offer_round(task_id, attempt)
        if st is None:
            return
        st["responded"].add(frm)
        if st["responded"] == st["sent"]:
            self._decide_offers(task_id, attempt)

    def _handle_nack(self, frm: NodeId, body: dict) -> None:
        task_id, attempt = body["task_id"], body["attempt"]
        ot = self.open_tasks.get(task_id)
        if ot is None:
            return
        if ot.executors.get(attempt) == frm:
            del ot.executors[attempt]
            if not ot.executors:
                self._place(task_id)

    def _handle_done(self, frm: NodeId, body: dict) -> None:
        task_id, attempt = body["task_id"], body["attempt"]
        ot = self.tasks.get(task_id)
        if ot is None or ot.failed:
            return
        if ot.done:
            ot.executors.pop(attempt, None)
            return  # exactly-once completion accounting
        ot.done = True
        del self.open_tasks[task_id]
        latency = self.sim.now - ot.submitted_at
        self._record(
            "task_done",
            task=task_id,
            attempt=attempt,
            executor=frm,
            latency=latency,
            deadline_violation=latency > ot.spec.qos.deadline,
        )
        ot.executors.pop(attempt, None)
        for other_attempt, node in sorted(ot.executors.items()):
            if node == self.node:
                self._cancel_local(task_id, other_attempt)
            else:
                self._send_task(node, wire.CANCEL, task_id, other_attempt)
        ot.executors.clear()

    def _handle_failed(self, frm: NodeId, body: dict) -> None:
        task_id, attempt = body["task_id"], body["attempt"]
        ot = self.open_tasks.get(task_id)
        if ot is None:
            return
        if ot.executors.get(attempt) == frm:
            del ot.executors[attempt]
        if not ot.executors:
            self._place(task_id, exclude=frozenset({frm}))

    def _handle_qos_warn(self, frm: NodeId, body: dict) -> None:
        task_id, attempt = body["task_id"], body["attempt"]
        ot = self.open_tasks.get(task_id)
        if ot is None:
            return
        if attempt in ot.warned_attempts:
            return
        ot.warned_attempts.add(attempt)
        if ot.attempts >= self.cfg.scheduler.max_attempts:
            return
        # Speculative parallel attempt on a different node; first DONE wins.
        self._place(task_id, exclude=frozenset({frm}))

    def _on_member_unavailable(self, peer: NodeId) -> None:
        """Membership reports Dead/Left: re-place our tasks that ran there."""
        for task_id in sorted(self.open_tasks):
            ot = self.open_tasks.get(task_id)
            if ot is None:
                continue
            dead_attempts = [a for a, n in ot.executors.items() if n == peer]
            if not dead_attempts:
                continue
            for attempt in dead_attempts:
                del ot.executors[attempt]
            self._record("replace_on_death", task=task_id, dead=peer)
            if not ot.executors:
                self._place(task_id, exclude=frozenset({peer}))

    # ------------------------------------------------------------------
    # scheduling: executor side
    # ------------------------------------------------------------------

    def _handle_offer(self, frm: NodeId, body: dict) -> None:
        task = TaskSpec.from_dict(body["task"])
        attempt = body["attempt"]
        submitted_at = body["submitted_at"]
        existing = self.engine.runs.get(task.task_id)
        if existing is not None and existing.state in executor.ACTIVE:
            kind = wire.ACCEPT if existing.attempt == attempt else wire.REJECT
            self._send_task(frm, kind, task.task_id, attempt)
            return
        deadline_remaining = submitted_at + task.qos.deadline - self.sim.now
        if not self._locally_feasible(task, deadline_remaining):
            self._send_task(frm, wire.REJECT, task.task_id, attempt)
            return
        self._reserve_run(task, attempt, submitted_at, origin=frm, with_ttl=True)
        self._send_task(frm, wire.ACCEPT, task.task_id, attempt)

    def _reserve_run(
        self,
        task: TaskSpec,
        attempt: int,
        submitted_at: float,
        origin: NodeId = None,
        with_ttl: bool = False,
    ) -> None:
        origin = self.node if origin is None else origin
        self.engine.integrate(self.sim.now)
        run = executor.TaskRun(
            task_id=task.task_id,
            attempt=attempt,
            state=executor.RESERVED,
            remaining_work=task.work,
            memory=task.memory_demand,
            origin=origin,
            submitted_at=submitted_at,
            deadline=task.qos.deadline,
        )
        self.engine.runs[task.task_id] = run
        self.run_specs[task.task_id] = task
        self._record(
            "reserve",
            task=task.task_id,
            attempt=attempt,
            memory=task.memory_demand,
        )
        if with_ttl:
            self._set_timer(
                self.cfg.reservation_ttl,
                "reservation_ttl",
                {"task_id": task.task_id, "attempt": attempt},
            )
        self.publish_profile()

    def _expire_reservation(self, task_id, attempt: int) -> None:
        run = self.engine.runs.get(task_id)
        if run is not None and run.state == executor.RESERVED and run.attempt == attempt:
            self._release_run(task_id, "ttl_expired", executor.EVICTED)

    def _release_run(self, task_id, reason: str, final_state: str) -> None:
        run = self.engine.runs.get(task_id)
        if run is None:
            return
        self.engine.integrate(self.sim.now)
        run.transition(final_state)
        del self.engine.runs[task_id]
        self.run_specs.pop(task_id, None)
        self._record(
            "release",
            task=task_id,
            attempt=run.attempt,
            memory=run.memory,
            reason=reason,
        )
        self._schedule_completion()
        self.publish_profile()

    def _handle_claim(self, frm: NodeId, body: dict) -> None:
        task_id, attempt = body["task_id"], body["attempt"]
        run = self.engine.runs.get(task_id)
        if run is None or run.state != executor.RESERVED or run.attempt != attempt:
            self._send_task(frm, wire.NACK, task_id, attempt)
            return
        self._admit_run(task_id, attempt)

    def _admit_run(self, task_id, attempt: int) -> None:
        run = self.engine.runs[task_id]
        task = self.run_specs[task_id]
        remote = self._remote_inputs_for(task, self.node)
        if remote is None:
            self._fail_run(task_id, "data_unavailable")
            return
        transfer_time = sum(
            size / self.profile.hw.link_bandwidth + self.sim.net.latency(dist)
            for size, dist in remote
        )
        self.engine.integrate(self.sim.now)
        run.transition(executor.TRANSFERRING)
        self._record(
            "run_admitted",
            task=task_id,
            attempt=attempt,
            transfer_time=transfer_time,
        )
        self._set_timer(
            transfer_time,
            "transfer_done",
            {"task_id": task_id, "attempt": attempt},
        )

    def _transfer_done(self, task_id, attempt: int) -> None:
        run = self.engine.runs.get(task_id)
        if run is None or run.state != executor.TRANSFERRING or run.attempt != attempt:
            return
        self.engine.integrate(self.sim.now)
        run.transition(executor.RUNNING)
        self._record("run_start", task=task_id, attempt=attempt)
        self._schedule_completion()
        self._arm_monitor()
        self.publish_profile()

    def _fail_run(self, task_id, cause: str) -> None:
        run = self.engine.runs.get(task_id)
        if run is None:
            return
        origin, attempt = run.origin, run.attempt
        self._record("run_failed", task=task_id, attempt=attempt, cause=cause)
        self._release_run(task_id, cause, executor.FAILED)
        self._report(
            origin, wire.FAILED, {"task_id": task_id, "attempt": attempt, "cause": cause}
        )

    def _handle_cancel(self, frm: NodeId, body: dict) -> None:
        self._cancel_local(body["task_id"], body["attempt"])

    def _cancel_local(self, task_id, attempt: int) -> None:
        run = self.engine.runs.get(task_id)
        if run is None or run.attempt != attempt:
            return
        if run.state in executor.ACTIVE:
            self._record("run_evicted", task=task_id, attempt=attempt)
            self._release_run(task_id, "cancel", executor.EVICTED)

    def _schedule_completion(self) -> None:
        nxt = self.engine.next_finish(self.sim.now)
        if nxt is not None:
            self._set_timer(
                max(0.0, nxt[0] - self.sim.now),
                "completion",
                {"generation": self.engine.generation},
            )

    def _on_completion_timer(self, generation: int) -> None:
        if generation != self.engine.generation:
            return  # stale: the run set changed since this was scheduled
        self.engine.integrate(self.sim.now)
        self._process_finished()
        self._schedule_completion()

    def _process_finished(self) -> None:
        for run in sorted(self.engine.finished_runs(), key=lambda r: r.task_id):
            run.transition(executor.DONE)
            del self.engine.runs[run.task_id]
            self.run_specs.pop(run.task_id, None)
            self._record(
                "run_done",
                task=run.task_id,
                attempt=run.attempt,
                progressed=run.progressed,
            )
            self._report(
                run.origin, wire.DONE, {"task_id": run.task_id, "attempt": run.attempt}
            )
            self.publish_profile()

    def _arm_monitor(self) -> None:
        if not self._monitor_armed:
            self._monitor_armed = True
            self._set_timer(self.cfg.exec_tick, "monitor")

    def _on_monitor(self) -> None:
        if self.engine.active_count() == 0:
            # One decay step toward idle so the published load is not frozen
            # at the last busy value.
            self.forecast = cognition.forecast_load(0.0, self.forecast)
            self.publish_profile()
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
                self._record(
                    "qos_warn",
                    task=run.task_id,
                    attempt=run.attempt,
                    projected=projected,
                )
                self._report(
                    run.origin,
                    wire.QOS_WARN,
                    {"task_id": run.task_id, "attempt": run.attempt, "projected": projected},
                )
        self._schedule_completion()
        if self.engine.active_count() > 0:
            self._set_timer(self.cfg.exec_tick, "monitor")
        else:
            self._monitor_armed = False


# Message kind -> NodeAgent handler(self, frm, body). LEAVE has none: the
# Left record it announces travels in the piggybacked deltas. HELLO and
# DIGEST are answered alike; a HELLO-ACK is a DELTA answering a HELLO.
_MESSAGE_HANDLERS = {
    wire.HELLO: lambda a, frm, body: a._reconcile(frm, body, wire.HELLO_ACK),
    wire.HELLO_ACK: NodeAgent._handle_delta,
    wire.PING: NodeAgent._handle_ping,
    wire.ACK: NodeAgent._handle_ack,
    wire.LEAVE: None,
    wire.DIGEST: lambda a, frm, body: a._reconcile(frm, body, wire.DELTA),
    wire.DELTA: NodeAgent._handle_delta,
    wire.OFFER: NodeAgent._handle_offer,
    wire.ACCEPT: NodeAgent._handle_accept,
    wire.REJECT: NodeAgent._handle_reject,
    wire.CLAIM: NodeAgent._handle_claim,
    wire.CANCEL: NodeAgent._handle_cancel,
    wire.NACK: NodeAgent._handle_nack,
    wire.DONE: NodeAgent._handle_done,
    wire.FAILED: NodeAgent._handle_failed,
    wire.QOS_WARN: NodeAgent._handle_qos_warn,
}


# Timer kind -> handler(agent, data). `battery` looks `on_battery_tick` up on
# the agent at call time, so a replacement patched onto the class still runs.
_TIMER_HANDLERS = {
    "round": lambda a, d: a._on_round(),
    "liveness": lambda a, d: a._ping_executors(),
    "probe_timeout": NodeAgent._on_probe_timeout,
    "suspect_dead": NodeAgent._promote_dead,
    "member_gc": NodeAgent._gc_member,
    "battery": lambda a, d: a.on_battery_tick(d["dt"]),
    "task_arrival": lambda a, d: a.submit_task(TaskSpec.from_dict(d["task"])),
    "offer_decision": lambda a, d: a._decide_offers(d["task_id"], d["attempt"]),
    "reservation_ttl": lambda a, d: a._expire_reservation(d["task_id"], d["attempt"]),
    "transfer_done": lambda a, d: a._transfer_done(d["task_id"], d["attempt"]),
    "completion": lambda a, d: a._on_completion_timer(d["generation"]),
    "monitor": lambda a, d: a._on_monitor(),
    "retry_place": lambda a, d: a._retry_place(d["task_id"]),
}
