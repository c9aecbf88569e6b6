"""Membership of one agent (SWIM; Das, Gupta & Motivala, DSN 2002).

PING/ACK probing of a random member per round, with piggybacked deltas
(Suspect after PROBE_RETRIES misses, Dead after T_DEAD, incarnation
refutation); HELLO/HELLO-ACK discovery on start and periodic re-discovery
to heal partitions and merge swarms, each to at most JOIN_FANOUT peers drawn
from a per-life random stream; LEAVE; GC of Dead and Left records; and the
swarm id, the minimum Alive id.

Tombstone GC is a timer facility in the sense of Varghese & Lauck (SOSP
1987): each life keeps the collection time of each tombstone it holds in a
dict, cheap per-record state, and queues one `member_gc` timer, at the
earliest of them. A tombstone replaced before its time takes its entry with
it: a new tombstone overwrites the due, an Alive or Suspect record drops it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import replace

from . import membership, wire
from .membership import ALIVE, DEAD, LEFT, SUSPECT, MemberState
from .model import NodeId
from .sim import substream

# HELLOs per join and per re-discovery round. Bounded, so a node joining N
# reachable peers costs O(1) messages, not O(N) (SWIM's bounded
# dissemination); the rest of the swarm learns of it by gossip.
JOIN_FANOUT = 3
LEAVE_FANOUT = 3  # Alive peers told of a graceful leave
REDISCOVER_EVERY = 5  # probe rounds between re-discovery rounds

PROBE_TIMEOUT = 0.15  # ack wait per attempt (3x one-hop RTT)
PROBE_RETRIES = 3  # consecutive misses before Suspect
T_DEAD = 0.6  # Suspect -> Dead promotion delay (4x timeout)
GOSSIP_K = 8  # piggybacked deltas per message
RETRANSMIT_LIMIT = 12  # times a delta is piggybacked before retiring


class Gossip:
    """One life's membership state: the view, the gossip buffer, the probes."""

    def __init__(self, agent):
        self.agent = agent
        self.sim = agent.sim
        self.node = agent.node
        self.view = membership.SwarmView(self_node=agent.node)
        self._buffer = {}  # NodeId -> [MemberState, transmit_count]
        # (transmit_count, NodeId) of every slot in `_buffer`, sorted: the
        # order `pick_deltas` takes them in.
        self._order = []
        self.alive_since = {}  # peer -> local time it became Alive in my view
        self.session_durations = {}  # peer -> list of completed durations
        self.pending_probes = {}  # target -> token
        self._probe_token = 0
        self._probe_rng = substream(self.sim.seed, f"probe-{self.node}-{agent.epoch}")
        self.last_swarm_id = self.node
        self._gc_due = {}  # NodeId -> collection time of its held tombstone
        self._gc_armed = None  # due of the live member_gc timer: the earliest

    def join(self) -> None:
        """Declare ourselves Alive for this life, then HELLO a few
        physically reachable peers."""
        # This life's own draws: HELLO picks and the phase of its rounds.
        self.life_rng = substream(self.sim.seed, f"life-{self.node}-{self.agent.epoch}")
        # Without a time: a life declares itself Alive once per incarnation
        # (a restart and a refutation each raise it), so the incarnation
        # names the record, and no Alive time is read (see `membership`).
        self.view.apply(MemberState(
            node=self.node,
            status=ALIVE,
            incarnation=self.agent.incarnation,
            last_update_time=0.0,
        ))
        self._hello_some(self.sim.discover(self.node))

    def leave(self) -> None:
        """Announce our Left record to a few Alive peers."""
        self.view.apply(replace(
            self.view.members[self.node], status=LEFT, last_update_time=self.sim.now
        ))
        for peer in self.view.alive_nodes()[:LEAVE_FANOUT]:
            self.agent.send(peer, wire.LEAVE, {})

    def member_status(self, node: NodeId):
        state = self.view.members.get(node)
        return state.status if state is not None else None

    # ------------------------------------------------------------------
    # piggybacked deltas
    # ------------------------------------------------------------------

    def _queue_delta(self, state: MemberState) -> None:
        """(Re)start gossiping a peer's record, at transmit count 0. Our own
        record is never queued: it rides first in every message anyway."""
        slot = self._buffer.get(state.node)
        if slot is None:
            self._buffer[state.node] = [state, 0]
        else:
            del self._order[bisect_left(self._order, (slot[1], state.node))]
            slot[0], slot[1] = state, 0
        insort(self._order, (0, state.node))

    def pick_deltas(self) -> wire.RecordList:
        """Our own record, then up to GOSSIP_K - 1 buffered deltas, least
        transmitted first (ties by NodeId); a delta retires once it has been
        sent RETRANSMIT_LIMIT times.

        The picks are the front of `_order`, so the Python work is per
        picked slot, not a sort of the buffer. Each is re-inserted at its
        new count only after all are taken, so no slot is picked twice in
        one send. Only picked slots are retired: every other slot is below
        the limit, since slots start at 0 and only picks raise them.
        """
        picks = [self.view.members[self.node].to_dict()]
        buffer, order = self._buffer, self._order
        chosen = order[:GOSSIP_K - 1]
        del order[:GOSSIP_K - 1]
        for sent, node in chosen:
            sent += 1
            if sent < RETRANSMIT_LIMIT:
                slot = buffer[node]
                picks.append(slot[0].to_dict())
                slot[1] = sent
                insort(order, (sent, node))
            else:
                picks.append(buffer.pop(node)[0].to_dict())
        return wire.RecordList(picks)

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------

    def _merge_member(self, state: MemberState) -> None:
        now = self.sim.now
        agent = self.agent
        if state.node == self.node:
            # Refutation: someone believes we are gone; reclaim with a higher
            # incarnation. Dead at incarnation k can only return as k+1.
            if state.status != ALIVE and state.incarnation >= agent.incarnation:
                agent.incarnation = state.incarnation + 1
                self.view.apply(replace(
                    self.view.members[self.node],
                    incarnation=agent.incarnation,
                    last_update_time=0.0,  # Alive, without a time (see `join`)
                ))
                # The profile is unchanged, so the registry entry stands (a
                # query reads liveness from the view). Republishing it would
                # put one more change on the slower anti-entropy path.
            return
        if membership.expired(state.status, state.last_update_time, now):
            return
        before = self.view.members.get(state.node)
        if not self.view.apply(state):
            return
        after = self.view.members[state.node]
        self._queue_delta(after)
        before_status = before.status if before is not None else None
        if after.status == ALIVE and before_status != ALIVE:
            self.alive_since[state.node] = now
        if after.status == SUSPECT:
            agent.set_timer(
                max(0.0, after.last_update_time + T_DEAD - now),
                "suspect_dead",
                {
                    "node": after.node,
                    "incarnation": after.incarnation,
                    "since": after.last_update_time,
                },
            )
        if after.status in (DEAD, LEFT):
            if before_status not in (DEAD, LEFT):
                started = self.alive_since.pop(state.node, None)
                if started is not None:
                    self.session_durations.setdefault(state.node, []).append(
                        max(0.0, after.last_update_time - started)
                    )
                agent.on_member_unavailable(after.node)
            # Set on every record change: the declared timestamp can still
            # drop (the merge order keeps the earliest), and GC must match the
            # final record exactly so all holders collect simultaneously.
            due = now + max(0.0, after.last_update_time + membership.RETENTION - now)
            self._gc_due[state.node] = due
            if self._gc_armed is None or due < self._gc_armed:
                self._arm_gc(due)
        else:
            self._gc_due.pop(state.node, None)
        if state.node <= self.last_swarm_id:
            self._check_swarm_change()

    def merge_deltas(self, records: list) -> None:
        """Merge gossiped member records, each a version entry (piggybacked
        deltas, or the records a DELTA or HELLO-ACK carries).

        A record the view already dominates would be a no-op, so it is
        skipped before decoding. Our own record always takes the slow path:
        refutation must see every claim that we are gone. A merged record is
        the sender's own `MemberState` (`wire.adopt`), not a copy.
        """
        dominates = self.view.dominates
        for d in records:
            if d[0] != self.node and dominates(d):
                continue
            self._merge_member(wire.adopt(d, MemberState.from_dict))

    def _check_swarm_change(self) -> None:
        """Trace a change of the swarm id (the minimum Alive id) and keep it
        in `last_swarm_id`. `_merge_member` calls this only for a member id
        up to `last_swarm_id`, which is exact: while we run, our own record
        is Alive (a claim otherwise is refuted, never applied), so the
        minimum exists and is at most our id, and no larger id can become it
        or stop being it. GC removes only Dead and Left records. So this is
        the one place a swarm change is found, a split (the id rising) as
        well as a merge, and the record's `reason` is always "merge": a
        member merge found it.
        """
        sid = self.view.swarm_id
        if sid != self.last_swarm_id:
            kind = "merge" if sid < self.last_swarm_id else "split"
            self.agent.record(
                "swarm_change",
                old=self.last_swarm_id,
                new=sid,
                kind=kind,
                reason="merge",
            )
            self.last_swarm_id = sid

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------

    def _hello_some(self, peers: list) -> None:
        """HELLO at most JOIN_FANOUT of `peers`, drawn from this life's own
        stream: not the lowest ids, which every node would pick alike."""
        if len(peers) > JOIN_FANOUT:
            peers = sorted(self.life_rng.sample(peers, JOIN_FANOUT))
        for peer in peers:
            self.agent.send(peer, wire.HELLO, {"view": self.view.version_map()})

    def rediscover(self) -> None:
        """HELLO a few reachable peers the view lacks or does not hold Alive:
        heals partitions and merges swarms."""
        # One set difference, not a status lookup per reachable peer: about
        # a third of the time at N=256.
        self._hello_some(sorted(
            set(self.sim.discover(self.node)).difference(self.view.alive_nodes())
        ))

    # ------------------------------------------------------------------
    # probing and failure detection
    # ------------------------------------------------------------------

    def probe_random(self) -> None:
        """Probe one member, a random pick from a per-node stream, not
        synchronized round-robin: lockstep schedules leave the same member
        unprobed by everyone at once."""
        targets = self.view.probe_targets()
        if targets:
            self.probe(targets[self._probe_rng.randrange(len(targets))])

    def probe(self, target: NodeId, misses: int = 0, incarnation: int = None) -> None:
        """PING a member and arm the attempt's timeout. The first attempt
        probes the life the view holds; each retry carries on that
        incarnation, so the last timeout can suspect only the life probed."""
        if incarnation is None:
            incarnation = self.view.members[target].incarnation
        self._probe_token += 1
        token = self._probe_token
        self.pending_probes[target] = token
        self.agent.send(target, wire.PING, {"token": token})
        self.agent.set_timer(
            PROBE_TIMEOUT,
            "probe_timeout",
            {"target": target, "token": token, "misses": misses, "incarnation": incarnation},
        )

    def on_probe_timeout(self, data: dict) -> None:
        target = data["target"]
        if self.pending_probes.get(target) != data["token"]:
            return
        del self.pending_probes[target]
        misses = data["misses"] + 1
        if misses < PROBE_RETRIES:
            # Retry before suspecting: one lost PING/ACK must not look like a
            # crash on a lossy link.
            self.probe(target, misses=misses, incarnation=data["incarnation"])
            return
        # A new life learned while the probe was out was never probed.
        current = self.view.members.get(target)
        if (
            current is not None
            and current.status == ALIVE
            and current.incarnation == data["incarnation"]
        ):
            self._merge_member(replace(current, status=SUSPECT, last_update_time=self.sim.now))

    def handle_ping(self, frm: NodeId, body: dict) -> None:
        self.agent.send(frm, wire.ACK, {"token": body["token"]})

    def handle_ack(self, frm: NodeId, body: dict) -> None:
        if self.pending_probes.get(frm) == body["token"]:
            del self.pending_probes[frm]

    def promote_dead(self, data: dict) -> None:
        state = self.view.members.get(data["node"])
        if (
            state is not None
            and state.status == SUSPECT
            and state.incarnation == data["incarnation"]
            and state.last_update_time == data["since"]
        ):
            self._merge_member(replace(
                state, status=DEAD, last_update_time=data["since"] + T_DEAD
            ))

    # ------------------------------------------------------------------
    # tombstone GC
    # ------------------------------------------------------------------

    def _arm_gc(self, due: float) -> None:
        # At the absolute time: `now + (due - now)` from a later `now` can
        # miss `due` by an ulp. A timer this supersedes fires as a no-op.
        self._gc_armed = due
        self.sim.schedule(
            due, self.sim.fire_timer, self.node, "member_gc", {"epoch": self.agent.epoch}
        )

    def gc_member(self, data: dict) -> None:
        """The member_gc timer: collect every tombstone due by now, then
        re-arm at the earliest due left. A timer superseded by an earlier due
        does nothing."""
        now = self.sim.now
        if now != self._gc_armed:
            return
        for node in [n for n, due in self._gc_due.items() if due <= now]:
            del self._gc_due[node]
            self._collect(node)
        self._gc_armed = None
        if self._gc_due:
            self._arm_gc(min(self._gc_due.values()))

    def _collect(self, node: NodeId) -> None:
        """Drop a member: its record, its gossip slot, its registry entry."""
        self.view.drop(node)
        slot = self._buffer.pop(node, None)
        if slot is not None:
            del self._order[bisect_left(self._order, (slot[1], node))]
        self.agent.registry.evict(node)
