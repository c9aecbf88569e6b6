"""Gossip membership state: member records, view merging, swarm identity.

The view merge is a join-semilattice: per member, higher incarnation wins and
at equal incarnation the more terminal status wins (Left > Dead > Suspect >
Alive). Consequently merging is commutative, associative and idempotent, and
a node declared Dead at incarnation k can only come back with incarnation
> k (refutation).

A member record has one wire form, its version entry
`[node, incarnation, status rank, last_update_time]` (SWIM's and
Scuttlebutt's update tuple), where the status goes as its merge rank
(`_STATUS_RANK`: alive 0, suspect 1, dead 2, left 3). Trailing defaults
are dropped: a time of 0.0, then a rank of 0, then an incarnation of 0
that ends the entry. An Alive record has no time, as a SWIM alive message
carries only its incarnation: a life declares itself Alive once per
incarnation, and only the times of Suspect, Dead and Left records are
read. So an Alive record travels as `[node, incarnation]`, and as
`[node]` at incarnation 0, which is nearly every record a settled swarm
gossips; every reader of an entry (`from_dict`, `_entry_key`, the
tombstone filter of `diff`, `dominates`) takes 1 to 4 elements. The rule
is lossless for every record. A piggybacked delta, the `view` part of a
DELTA or HELLO-ACK and an entry of a HELLO's or DIGEST's version map are
all that entry; a map is just the entries of every member in NodeId order,
and a periodic DIGEST carries only the map's hash.
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
only through the map's `put` (by `apply`) and `drop` (by tombstone GC),
and those report each change, the record replaced and the record
installed, to `changed(old, new)`. The view keeps its derived state by that
delta, never by a scan: the alive list (whose first element is the swarm
id) and the probe targets as sorted lists. The map's hash, an AdHash sum
its base keeps by the same delta, is also the view's convergence hash
(`member_set_digest`): views agree when their version maps are equal, a
tombstone's declaration time included, which the merge settles on the
earliest. The version map is kept until the next change and shared with
every message and trace record that carries it; the alive and probe lists
are the kept lists themselves. All of them are read-only; the map and its
entries are `wire` record types, which enforce it. A view installs the very
`MemberState` a peer gossiped (`wire.adopt`), so views that agree hold the
same objects, and their version maps the same entries.
What the view adds to the map it shares with the registry and the catalog
is its merge rule (`merge_key`) and the tombstone filter of `diff`.

A time an agent declares is rounded to the millisecond when it is
declared (`declared_time`): the Suspect time a probe timeout stamps, the
Dead time of a promotion (the Suspect time plus `T_DEAD`, rounded as a
sum), the Left time of a leave, and a registry entry's `stamped_time`. The
record carries the rounded value and every reader sees that value, so a
time travels as `53.924` rather than `53.924184390114846` (and a whole
second as `60`, see `wire.shortest`), and the Dead timer a Suspect record
arms fires at its rounded time plus `T_DEAD`.

Protocol timing (probe rounds, timeouts) lives in the agent; this module is
pure data logic so it can be property-tested in isolation.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property

from . import wire
from .model import NodeId

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
LEFT = "left"

RETENTION = 30.0  # seconds a Dead or Left record is kept before GC

_PROBED = (ALIVE, SUSPECT)  # statuses a probe round picks from

#: Precedence at equal incarnation; larger rank wins a merge. A member's
#: wire form carries the rank in place of the status.
_STATUS_RANK = {ALIVE: 0, SUSPECT: 1, DEAD: 2, LEFT: 3}
_STATUS_OF_RANK = {rank: status for status, rank in _STATUS_RANK.items()}
#: Incarnation, status rank and time where a version entry leaves them out:
#: 0, Alive, 0.0.
_TRAILING_DEFAULTS = (0, 0, 0.0)


def merge_key(status: str, incarnation: int, last_update_time: float) -> tuple:
    """Merge order of one member's records: the larger key wins.

    Higher incarnation first, then the more terminal status. At the same
    incarnation and status the earliest declaration time wins, so all nodes
    converge on one timestamp (matters for retention GC).
    """
    return (incarnation, _STATUS_RANK[status], -last_update_time)


def _entry_key(entry: list) -> tuple:
    """`merge_key` of the record a version entry stands for, read straight
    from the entry, of 1 to 4 elements (see `version_entry`)."""
    size = len(entry)
    if size == 4:
        return (entry[1], entry[2], -entry[3])
    return (entry[1] if size > 1 else 0, entry[2] if size == 3 else 0, -0.0)


def _entry_fields(entry: list) -> list:
    """[node, incarnation, status rank, last_update_time] of a version
    entry, with the trailing defaults it leaves out put back."""
    return [*entry, *_TRAILING_DEFAULTS[len(entry) - 1:]]


def declared_time(t: float) -> float:
    """`t` as a record declares it: rounded to the millisecond."""
    return round(t, 3)


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
    # The time a Suspect, Dead or Left status was declared; 0.0 for Alive,
    # which its incarnation names.
    last_update_time: float

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
        or in a version map. Trailing defaults are dropped, as `wire.encode`
        drops trailing nulls: a time of 0.0, then a rank of 0 (Alive), then
        an incarnation of 0 that ends the entry, so an Alive record, declared
        without a time, travels as [node, incarnation], and as [node] at
        incarnation 0."""
        entry = [self.node, self.incarnation, _STATUS_RANK[self.status], self.last_update_time]
        while len(entry) > 1 and not entry[-1]:
            entry.pop()
        return wire.ListRecord(entry, self)

    @classmethod
    def from_dict(cls, entry: list) -> "MemberState":
        node, incarnation, rank, last_update_time = _entry_fields(entry)
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
        self._alive: list = []  # Alive members, in NodeId order
        self._probe: list = []  # Alive and Suspect members but us, in NodeId order

    def changed(self, old, new) -> None:
        """Keep the map's hash, the alive list and the probe list by the
        delta of one member record: `old` replaced by `new`, either of them
        None."""
        super().changed(old, new)
        node = (new or old).node
        was = old.status if old is not None else None
        now = new.status if new is not None else None
        if (was == ALIVE) != (now == ALIVE):
            _toggle(self._alive, node, now == ALIVE)
        if node != self.self_node and (was in _PROBED) != (now in _PROBED):
            _toggle(self._probe, node, now in _PROBED)

    def alive_nodes(self) -> list:
        """Alive members in NodeId order: the kept list itself, read-only,
        and changed in place by the view's next change."""
        return self._alive

    @property
    def swarm_id(self):
        """Deterministic swarm identity: minimum Alive NodeId in the view."""
        alive = self._alive
        return alive[0] if alive else self.self_node

    def member_set_digest(self) -> str:
        """The view's convergence hash: `version_hash()`. Views that agree
        hold equal version maps, a tombstone's declaration time included."""
        return self.version_hash()

    def diff(self, remote: list, now: float) -> tuple:
        """(our records a peer's version map lacks, nodes whose record there
        we lack), against the peer's map.

        Expired tombstones are neither pushed nor wanted. Our own record is
        compared like any other, so a peer's newer record of us is wanted
        and refutation sees it once it arrives.
        """
        def live(entry: list) -> bool:
            size = len(entry)
            if size < 3:  # Alive, which never expires
                return True
            last_update_time = entry[3] if size == 4 else 0.0
            return not expired(_STATUS_OF_RANK[entry[2]], last_update_time, now)

        return self.diff_records(remote, _entry_newer, live)

    def probe_targets(self) -> list:
        """Alive and Suspect members other than ourselves, in NodeId order:
        the kept list itself, read-only, and changed in place by the view's
        next change."""
        return self._probe

    def dominates(self, entry: list) -> bool:
        """True when `apply` of this version entry, decoded, would return
        False: the held record's merge key is at least the entry's.

        Lets gossip skip records the view already holds without decoding
        them; gossip tests an entry that is the held record's own (shared,
        see `wire`) by identity before it asks.
        """
        current = self.members.get(entry[0])
        return current is not None and current.key >= _entry_key(entry)

    def apply(self, incoming: MemberState) -> bool:
        """Merge one member record; returns True when the view changed."""
        current = self.members.get(incoming.node)
        if current is not None and current.key >= incoming.key:
            return False
        self.put(incoming.node, incoming)
        return True


def _toggle(kept: list, node: NodeId, add: bool) -> None:
    """Insert `node` into, or delete it from, the sorted list `kept`."""
    if add:
        insort(kept, node)
    else:
        del kept[bisect_left(kept, node)]


def merge_views(a: SwarmView, b: SwarmView) -> SwarmView:
    """Member-wise merge of two views (pure; used directly in tests)."""
    merged = SwarmView(self_node=a.self_node)
    for view in (a, b):
        for state in view.members.values():
            merged.apply(state)
    return merged


def split_condition(view: SwarmView, now: float, t_split: float) -> bool:
    """True when at least half the members have been Dead or Suspect for
    t_split or longer. A plain scan that no protocol path calls: the agent
    traces a split as the swarm id rising (`gossip`), and `bench/tracer.py`
    still names this function."""
    members = view.members.values()
    stale = sum(
        1 for m in members
        if m.status in (DEAD, SUSPECT) and now - m.last_update_time >= t_split
    )
    return bool(members) and 2 * stale >= len(members)
