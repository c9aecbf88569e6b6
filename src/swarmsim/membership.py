"""Gossip membership state: member records, view merging, swarm identity.

The view merge is a join-semilattice: per member, higher incarnation wins and
at equal incarnation the more terminal status wins (Left > Dead > Suspect >
Alive). Consequently merging is commutative, associative and idempotent, and
a node declared Dead at incarnation k can only come back with incarnation
> k (refutation).

A member record has one wire form, its version entry
`[node, incarnation, status rank, last_update_time]` (SWIM's and
Scuttlebutt's update tuple), where the status goes as its merge rank
(`_STATUS_RANK`: alive 0, suspect 1, dead 2, left 3). A piggybacked delta,
the `view` part of a DELTA or HELLO-ACK and an entry of a HELLO's or
DIGEST's version map are all that entry; a map is just the entries of every
member in NodeId order, and a periodic DIGEST carries only the map's hash.
Each `MemberState` builds its entry once (`version_entry`, which `to_dict`
returns), as a read-only `wire.ListRecord` that encodes its JSON once and
remembers the state it stands for; `from_dict` maps the rank back to the
status string, which is what the state, the trace and the metrics hold.

The merge order is one key, `merge_key`: a held record yields only to a
record with a larger key. `SwarmView.apply`, `dominates` and `diff` all use
it, and an entry holds its key's elements as they stand (`_entry_key`), so
a gossiped entry can be tested against the current record before anything
is decoded (the Scuttlebutt rule: compare versions before materialising
state).

Invariants of `SwarmView`, a `wire.VersionedMap`: `members` is written
only through `apply` and `remove`, each of which calls `changed()` when the
view changes. The version map and its hash, digest, alive list (whose first
element is the swarm id) and probe targets are cached until then, and the
values returned are shared with every message and trace record that carries
them, so they are read-only; the map and its entries are `wire` record
types, which enforce it. A view installs the very `MemberState` a peer
gossiped (`wire.adopt`), so views that agree hold the same objects, and
their version maps the same entries. What the view adds to the map it
shares with the registry and the catalog is its merge rule (`merge_key`)
and the tombstone filter of `diff`.

Protocol timing (probe rounds, timeouts) lives in the agent; this module is
pure data logic so it can be property-tested in isolation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from . import wire
from .model import NodeId

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
LEFT = "left"

RETENTION = 30.0  # seconds a Dead or Left record is kept before GC

#: Precedence at equal incarnation; larger rank wins a merge. A member's
#: wire form carries the rank in place of the status.
_STATUS_RANK = {ALIVE: 0, SUSPECT: 1, DEAD: 2, LEFT: 3}
_STATUS_OF_RANK = {rank: status for status, rank in _STATUS_RANK.items()}


def merge_key(status: str, incarnation: int, last_update_time: float) -> tuple:
    """Merge order of one member's records: the larger key wins.

    Higher incarnation first, then the more terminal status. At the same
    incarnation and status the earliest declaration time wins, so all nodes
    converge on one timestamp (matters for retention GC).
    """
    return (incarnation, _STATUS_RANK[status], -last_update_time)


def _entry_key(entry: list) -> tuple:
    """`merge_key` of the record a version entry stands for, read straight
    from the entry."""
    return (entry[1], entry[2], -entry[3])


def expired(status: str, last_update_time: float, now: float) -> bool:
    """True for a Dead or Left record past its RETENTION: every holder
    collects it at that same declared time, so it is neither merged nor
    gossiped again (re-admitting a stale copy would restart its gossip)."""
    return status in (DEAD, LEFT) and last_update_time + RETENTION <= now


def _entry_newer(a: list, b: list) -> bool:
    """Version map entries of one member: True when `a` wins a merge."""
    return _entry_key(a) > _entry_key(b)


@dataclass(frozen=True)
class MemberState:
    node: NodeId
    status: str
    incarnation: int
    last_update_time: float  # sim time the current status was declared

    @cached_property
    def key(self) -> tuple:
        return merge_key(self.status, self.incarnation, self.last_update_time)

    def to_dict(self) -> wire.ListRecord:
        """The wire form, `version_entry`: built once, shared, read-only."""
        return self.version_entry

    @cached_property
    def version_entry(self) -> wire.ListRecord:
        """[node, incarnation, status rank, last_update_time]: this record
        as every message carries it, piggybacked, in a DELTA or HELLO-ACK,
        or in a version map."""
        return wire.ListRecord(
            [self.node, self.incarnation, _STATUS_RANK[self.status], self.last_update_time],
            self,
        )

    @classmethod
    def from_dict(cls, entry: list) -> "MemberState":
        node, incarnation, rank, last_update_time = entry
        return cls(
            node=int(node),
            status=_STATUS_OF_RANK[rank],
            incarnation=int(incarnation),
            last_update_time=float(last_update_time),
        )


class SwarmView(wire.VersionedMap):
    """One node's belief about swarm membership: `members` (NodeId ->
    MemberState) is the map's `records` under the view's own name."""

    def __init__(self, self_node: NodeId):
        super().__init__()
        self.self_node = self_node
        self.members = self.records

    def alive_nodes(self) -> list:
        """Alive members in NodeId order; shared, read-only."""
        return self.cached("alive", lambda: sorted(
            n for n, m in self.members.items() if m.status == ALIVE
        ))

    @property
    def swarm_id(self):
        """Deterministic swarm identity: minimum Alive NodeId in the view."""
        alive = self.alive_nodes()
        return alive[0] if alive else self.self_node

    def member_set_digest(self) -> str:
        """Stable digest over (node, status, incarnation) triples."""
        return self.cached("digest", lambda: hashlib.sha256(repr(sorted(
            (m.node, m.status, m.incarnation) for m in self.members.values()
        )).encode()).hexdigest()[:16])

    def diff(self, remote: list, now: float) -> tuple:
        """(our records a peer's version map lacks, nodes whose record there
        we lack), against the peer's map.

        Expired tombstones are neither pushed nor wanted. Our own record is
        compared like any other, so a peer's newer record of us is wanted
        and refutation sees it once it arrives.
        """
        return self.diff_records(remote, _entry_newer, lambda e: not expired(
            _STATUS_OF_RANK[e[2]], e[3], now
        ))

    def probe_targets(self) -> list:
        """Alive and Suspect members other than ourselves, in NodeId order;
        shared, read-only."""
        return self.cached("probe", lambda: sorted(
            n
            for n, m in self.members.items()
            if n != self.self_node and m.status in (ALIVE, SUSPECT)
        ))

    def dominates(self, entry: list) -> bool:
        """True when `apply` of this version entry, decoded, would return
        False.

        Lets gossip skip records the view already holds without decoding
        them; an entry that is the held record's own (shared, see `wire`)
        is skipped without comparing keys.
        """
        current = self.members.get(entry[0])
        if current is None:
            return False
        return current.version_entry is entry or current.key >= _entry_key(entry)

    def apply(self, incoming: MemberState) -> bool:
        """Merge one member record; returns True when the view changed."""
        current = self.members.get(incoming.node)
        if current is not None and current.key >= incoming.key:
            return False
        self.members[incoming.node] = incoming
        self.changed()
        return True

    def remove(self, node: NodeId) -> bool:
        """Drop a member's record (tombstone GC); True when one was held."""
        if self.members.pop(node, None) is None:
            return False
        self.changed()
        return True


def merge_views(a: SwarmView, b: SwarmView) -> SwarmView:
    """Member-wise merge of two views (pure; used directly in tests)."""
    merged = SwarmView(self_node=a.self_node)
    for view in (a, b):
        for state in view.members.values():
            merged.apply(state)
    return merged


def split_condition(view: SwarmView, now: float, t_split: float) -> bool:
    """True when at least half the members have been unreachable past t_split."""
    if not view.members:
        return False
    stale = sum(
        1
        for m in view.members.values()
        if m.status in (DEAD, SUSPECT) and now - m.last_update_time >= t_split
    )
    return stale * 2 >= len(view.members)
