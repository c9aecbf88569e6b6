"""Anti-entropy of one agent (Scuttlebutt-style, digest first; van Renesse
et al., LADIS 2008), and the lookups that read its registry and catalog.

Every ANTI_ENTROPY_EVERY rounds a round-robin peer gets a DIGEST holding
one short hash of each version map: the view's, the data catalog's and the
registry's (the first level of Dynamo's Merkle exchange; DeCandia et al.,
SOSP 2007). Where the peer's hash of a part is the same, nothing more is
sent; where it differs, the peer answers with one DIGEST holding its maps of
those parts. A map is answered with one DELTA holding the records the map
lacks and `want_*` lists of what the answering side lacks, and the wanted
records follow in one more DELTA. A registry entry goes in its dynamic
form, without the node's hardware and typologies, to a peer that keeps
them: one whose map lists the node, or one whose `want_registry` list
names the id plainly rather than in its trailing list of ids whose static
part it lacks (see `registry`). So two sides that agree exchange one
message, and a map travels only for a part that differs. HELLO carries the
view's map and HELLO-ACK answers it the same way. Each life starts its
rounds at a random phase, so a peer answers DIGESTs spread over the period
and passes on what it wanted from earlier ones.

An agent's own registry entry gets a new version when the profile it
publishes changes (load, battery, position) and when the set of runs it
holds changes (a reserve, a release, a finished run); that set itself is not
gossiped.
"""

from __future__ import annotations

from bisect import bisect_left

from . import dataplane, wire
from .membership import ALIVE, declared_time
from .model import NodeId, Position, TaskSpec, distance, is_mains
from .registry import Registry

ANTI_ENTROPY_EVERY = 2  # probe rounds between DIGESTs
STATUS_REFRESH_EVERY = 2  # probe rounds between profile publish checks


class AntiEntropy:
    """One life's registry and data catalog."""

    def __init__(self, agent):
        self.agent = agent
        self.sim = agent.sim
        self.node = agent.node
        self.registry = Registry(agent.node)
        self.catalog = dataplane.Catalog()

    def send_digest(self, round_no: int) -> None:
        """DIGEST this round's peer: the Alive peers taken in turn. The
        peer is picked by its index in the view's kept alive list, our own
        position, found by `bisect`, skipped, so no peer list is built."""
        alive = self.agent.view.alive_nodes()
        me = bisect_left(alive, self.node)
        listed = me < len(alive) and alive[me] == self.node
        count = len(alive) - listed
        if not count:
            return
        turn = (round_no // ANTI_ENTROPY_EVERY) % count
        peer = alive[turn + 1 if listed and turn >= me else turn]
        body = {
            "view": self.agent.view.version_hash(),
            "catalog": self.catalog.version_hash(),
            "registry": self.registry.version_hash(),
        }
        self.agent.send(peer, wire.DIGEST, body)

    def reconcile(self, frm: NodeId, body: dict, reply_kind: str) -> None:
        """Answer a peer's HELLO or DIGEST, part by part (`view`, `catalog`,
        `registry`). A part's hash equal to ours needs nothing; one that
        differs puts our version map under its key in one DIGEST back. A
        part's version map is answered with a `reply_kind` message: under
        the map's key our records it lacks, under `want_<key>` the ids whose
        record there holds something ours lacks, each part's owner choosing
        the forms (`wire_forms`) and the marking (`mark_wanted`). Empty
        parts are left out, and an empty answer is not sent. A DIGEST of
        maps is thus answered by a DELTA, never by another DIGEST."""
        view = self.agent.view
        parts = (
            ("view", view, lambda m: view.diff(m, self.sim.now)),
            ("catalog", self.catalog, self.catalog.diff),
            ("registry", self.registry, self.registry.diff),
        )
        maps, reply = {}, {}
        for key, owner, diff in parts:
            theirs = body.get(key)
            if theirs is None:
                continue
            if type(theirs) is str:
                if theirs != owner.version_hash():
                    maps[key] = owner.version_map()
                continue
            push, want = diff(theirs)
            if push:
                reply[key] = owner.wire_forms(push, theirs)
            if want:
                reply["want_" + key] = owner.mark_wanted(want)
        if maps:
            self.agent.send(frm, wire.DIGEST, maps)
        if reply:
            self.agent.send(frm, reply_kind, reply)

    def handle_delta(self, frm: NodeId, body: dict) -> None:
        """Merge the records of a DELTA or HELLO-ACK, then send the records
        its `want_*` lists ask for in one more DELTA (`answer_wanted`). A
        wanted tombstone that expired in between is dropped by the
        receiver's merge."""
        self.agent.gossip.merge_deltas(body.get("view", ()))
        for doc in body.get("catalog", ()):
            self.catalog.merge(wire.adopt(doc, dataplane.CatalogRecord.from_dict))
        self.registry.merge_wire(body.get("registry", ()))
        reply = {}
        for key, owner in (
            ("view", self.agent.view), ("catalog", self.catalog), ("registry", self.registry),
        ):
            want = body.get("want_" + key)
            if want:
                wanted = owner.answer_wanted(want)
                if wanted:
                    reply[key] = wire.RecordList(wanted)
        if reply:
            self.agent.send(frm, wire.DELTA, reply)

    def publish_profile(self, force: bool = False) -> None:
        """Install our current profile in the registry when it changed or
        when forced; otherwise our entry keeps its version. Each change to
        the set of runs we hold (a reserve, a release, a finished run)
        forces one; the run set itself is not gossiped.

        The profile published has its utilization rounded to 6 digits and
        a battery level to 4, and the entry's `stamped_time` is the
        declared time of now (`membership.declared_time`). "Unchanged" is
        read from the held entry's fields, as equality of that profile with
        the held one would decide it, so no profile is built unless it is
        installed."""
        agent = self.agent
        current = self.registry.entries.get(self.node)
        profile = agent.profile
        dyn = profile.dyn
        utilization = round(agent.execution.forecast.ewma_utilization, 6)
        battery = dyn.battery if is_mains(dyn.battery) else round(dyn.battery, 4)
        if not force and current is not None:
            held = current.profile
            kept = held.dyn
            if (
                held.node, held.hw, held.typologies,
                kept.utilization, kept.battery, kept.position,
            ) == (
                profile.node, profile.hw, profile.typologies,
                utilization, battery, dyn.position,
            ):
                return
        self.registry.local_update(
            profile.with_dyn(utilization=utilization, battery=battery),
            agent.incarnation,
            declared_time(self.sim.now),
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def position_of(self, node: NodeId):
        """A member's position as its registry entry has it, or None. Our
        own entry is republished on every move, so it holds ours too."""
        entry = self.registry.entries.get(node)
        return entry.profile.dyn.position if entry is not None else None

    def _resolve(self, data_id, reader: NodeId):
        status_of = self.agent.gossip.member_status

        def pos(n):
            p = self.position_of(n)
            # Unknown positions sort last but stay eligible.
            return p if p is not None else Position(1e12, 1e12)

        def alive(n):
            # Our own record is Alive while we run, so we count too.
            return status_of(n) == ALIVE and (n == reader or self.position_of(n) is not None)

        return self.catalog.resolve(data_id, reader, pos, alive)

    def remote_inputs_for(self, task: TaskSpec, runner: NodeId):
        """[(size, distance)] for inputs not local to `runner`; None when an
        input has no live resolvable replica."""
        out = []
        runner_pos = self.position_of(runner)
        for inp in task.input_data:
            replica = self._resolve(inp.source, runner)
            if replica is None:
                return None
            if replica == runner:
                continue
            rep_pos = self.position_of(replica)
            if runner_pos is None or rep_pos is None:
                return None
            out.append((inp.size, distance(runner_pos, rep_pos)))
        return out

    def source_position(self, source_id):
        """Where a data source is: its owner's position, else its first
        replica's with a known one, else None."""
        rec = self.catalog.records.get(source_id)
        if rec is None:
            return None
        for node in (rec.descriptor.owner, *sorted(rec.descriptor.replicas)):
            pos = self.position_of(node)
            if pos is not None:
                return pos
        return None
