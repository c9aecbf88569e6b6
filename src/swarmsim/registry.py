"""Gossip-replicated resource registry: last-writer-wins profile records.

Each entry is versioned by the lexicographic pair (incarnation,
status_version), tying profile freshness to membership incarnation: after a
crash-rejoin the node's incarnation rises, so zombie profiles from the old
life can never supersede fresh ones. The status_version lives only in the
entry's version, not in the profile it stamps. Per entry the merge is an LWW
register, hence idempotent, commutative and associative.

Deliberate deviation from a consensus-backed store: profile data needs
availability under churn and partitions, not linearizability, so this is a
leaderless anti-entropy design.

An entry travels in one of two positional wire forms, each beginning with
its version entry `[node, incarnation, status_version]` and stamped time:

- full: `[node, incarnation, status_version, stamped_time, cpu_perf_index,
  memory, link_bandwidth, drain_rate, utilization, battery, x, y,
  [typologies...]]`, with the typologies sorted: the version entry and
  stamped time, then the profile's own form (`NodeProfile.to_dict`) after
  its node id;
- dynamic: `[node, incarnation, status_version, stamped_time, utilization,
  battery, x, y]`, the full form less the node's static part, its hardware
  and typologies, which never change.

Every whole-number float goes as its int (`wire.shortest`), so an idle
mains node at (40, 0) travels as
`[2,1,3,7.5,1,1024,10,0,0,"MAINS",40,0,["generic"]]` in full and as
`[2,1,3,7.5,0,"MAINS",40,0]` in its dynamic form.

A registry keeps each node's static part once it has held an entry of the
node (`_static`), across `evict` too, so a peer that holds the node's
static part is sent the dynamic form: a node that the peer's version map
lists, or a wanted id the peer marks as one whose static part it keeps
(see `antientropy`). `entry_from_dict` decodes either form, completing a
dynamic form from the kept static part, and `merge_wire` merges either; a
full form received whose static part differs from the kept one raises, so
"hardware never changes" is checked on every run. An origin reads a peer's
drain rate from the entry it scores, as it reads the rest of the peer's
profile.

Invariants of `Registry`, a `wire.VersionedMap`: `entries` is written only
through `local_update`, `merge` and `evict`, and each of them writes
through the map's `put` or `drop`, which keep the version map sorted and
its hash up to date; an install where no entry of the node is held also
keeps the node's static part, unless one is kept, and nothing drops it, so
`_static` holds at most one per node. The registry adds to its base only
the merge rule, last writer wins by version. Since a version names one entry, the map's hash is also the
registry's convergence hash (`content_hash`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .model import DynamicStatus, NodeId, NodeProfile
from . import membership, wire

Version = tuple  # (incarnation, status_version), compared lexicographically
_entry_id = itemgetter(0)  # a version entry's node id


@dataclass(frozen=True)
class RegistryEntry:
    node: NodeId
    profile: NodeProfile
    version: Version
    stamped_time: float

    def to_dict(self) -> wire.ListRecord:
        """The wire form, built once per entry and shared: read-only."""
        return self._record

    @cached_property
    def _record(self) -> wire.ListRecord:
        _, *profile = self.profile.to_dict()
        return wire.ListRecord(
            [*self.version_entry, self.stamped_time, *profile], self
        )

    @cached_property
    def version_entry(self) -> wire.ListRecord:
        """[node, incarnation, status_version]: this entry in a version map,
        and the first elements of its wire form. Built once per entry and
        shared: read-only."""
        return wire.ListRecord([self.node, *self.version])

    @cached_property
    def dynamic_record(self) -> wire.ListRecord:
        """[node, incarnation, status_version, stamped_time, utilization,
        battery, x, y]: the wire form less the static part, for a peer that
        keeps the node's static part. Built once per entry and shared:
        read-only."""
        dyn = self.profile.dyn
        return wire.ListRecord([
            *self.version_entry, self.stamped_time,
            dyn.utilization, dyn.battery, dyn.position.x, dyn.position.y,
        ], self)

    @classmethod
    def from_dict(cls, d: list) -> "RegistryEntry":
        """The entry a full wire form stands for."""
        node, incarnation, status_version, stamped_time, *profile = d
        return cls._of(NodeProfile.from_dict([node, *profile]), incarnation,
                       status_version, stamped_time)

    @classmethod
    def _of(cls, profile, incarnation, status_version, stamped_time) -> "RegistryEntry":
        return cls(
            node=profile.node,
            profile=profile,
            version=(int(incarnation), int(status_version)),
            stamped_time=float(stamped_time),
        )


_DYNAMIC_SIZE = 8  # elements of an entry's dynamic wire form


class ForeignUpdateError(Exception):
    """Direct local_update for a node other than the registry owner."""


class StaticProfileError(Exception):
    """An entry whose hardware or typologies differ from those its node's
    earlier entries had, or a dynamic form of a node whose static part is
    not kept."""


class Registry(wire.VersionedMap):
    """One node's replica of the swarm-wide profile store: `entries`
    (NodeId -> RegistryEntry) is the map's `records` under its own name."""

    def __init__(self, owner: NodeId):
        super().__init__()
        self.owner = owner
        self.entries = self.records
        # NodeId -> (hw, typologies) of every node an entry was installed for.
        self._static: dict = {}

    def _keep_static(self, entry: RegistryEntry) -> None:
        """Keep the static part of `entry`'s node, unless one is kept: called
        for each entry installed where none of its node is held."""
        profile = entry.profile
        self._static.setdefault(entry.node, (profile.hw, profile.typologies))

    def merge_wire(self, docs: list) -> None:
        """`merge` of each gossiped entry in `docs`, in either wire form: the
        sender's entry (`wire.adopt`), or `entry_from_dict` of the form. A
        full form whose static part differs from the one kept for its node
        raises."""
        static, decode = self._static, self.entry_from_dict
        for doc in docs:
            entry = wire.adopt(doc, decode)
            if len(doc) != _DYNAMIC_SIZE:
                kept = static.get(entry.node)
                profile = entry.profile
                if kept is not None and kept != (profile.hw, profile.typologies):
                    raise StaticProfileError(
                        f"node {entry.node}: static profile {profile.hw}, "
                        f"{sorted(profile.typologies)} differs from the kept {kept}"
                    )
            self.merge(entry)

    def entry_from_dict(self, d: list) -> RegistryEntry:
        """The entry either wire form stands for: the full form as
        `RegistryEntry.from_dict` reads it, or the dynamic form completed
        with the node's kept static part."""
        if len(d) != _DYNAMIC_SIZE:
            return RegistryEntry.from_dict(d)
        node, incarnation, status_version, stamped_time, *dyn = d
        static = self._static.get(node)
        if static is None:
            raise StaticProfileError(f"node {self.owner} keeps no static part of node {node}")
        hw, typologies = static
        profile = NodeProfile(int(node), hw, DynamicStatus.from_dict(dyn), typologies)
        return RegistryEntry._of(profile, incarnation, status_version, stamped_time)

    def wire_forms(self, entries: list, remote: list) -> wire.RecordList:
        """`entries` as sent to a peer whose version map is `remote`: the
        dynamic form of an entry whose node the map lists, since the peer
        keeps that node's static part, else the full form."""
        size = len(remote)
        out = []
        for entry in entries:
            k = bisect_left(remote, entry.node, key=_entry_id)
            listed = k < size and remote[k][0] == entry.node
            out.append(entry.dynamic_record if listed else entry.to_dict())
        return wire.RecordList(out)

    def mark_wanted(self, want: list) -> list:
        """A `want_registry` list: the wanted ids whose static part we keep,
        then, as one trailing list if there are any, those whose static
        part we lack."""
        static = self._static
        lacking = [i for i in want if i not in static]
        if not lacking:
            return want
        return [i for i in want if i in static] + [lacking]

    def answer_wanted(self, want: list) -> list:
        """The entries a `want_registry` list (`mark_wanted`) asks for that
        we hold: the dynamic form for an id listed plainly, the full form
        for one in the trailing list."""
        entries = self.entries
        lacking = ()
        if type(want[-1]) is list:
            *want, lacking = want
        return [entries[i].dynamic_record for i in want if i in entries] + [
            entries[i].to_dict() for i in lacking if i in entries
        ]

    def local_update(
        self, profile: NodeProfile, incarnation: int, now: float
    ) -> RegistryEntry:
        """Install an updated own profile, bumping status_version.

        Only the owner's profile may be written directly; foreign entries
        arrive exclusively via merge (gossip).
        """
        if profile.node != self.owner:
            raise ForeignUpdateError(
                f"node {self.owner} cannot locally update profile of {profile.node}"
            )
        prev = self.entries.get(self.owner)
        prev_sv = prev.version[1] if prev is not None else 0
        entry = RegistryEntry(
            node=self.owner,
            profile=profile,
            version=(incarnation, prev_sv + 1),
            stamped_time=now,
        )
        if prev is None:
            self._keep_static(entry)
        self.put(self.owner, entry)
        return entry

    def merge(self, entry: RegistryEntry) -> bool:
        """LWW install of a gossiped entry; never regresses a version."""
        current = self.entries.get(entry.node)
        if current is not None and current.version >= entry.version:
            return False
        if current is None:
            self._keep_static(entry)
        self.put(entry.node, entry)
        return True

    def digest(self) -> dict:
        """NodeId -> version in NodeId order: `version_map()` as a dict."""
        return {node: e.version for node, e in sorted(self.entries.items())}

    def diff(self, remote: list):
        """(entries newer here, node ids newer or only-known remotely),
        against a peer's version map."""
        return self.diff_records(remote, lambda a, b: a[1:] > b[1:])

    def query(self, predicate, status_of) -> list:
        """Entries of not-Dead/Left members matching the predicate.

        status_of: NodeId -> membership status (or None when unknown).
        Returns (entry, stale) pairs ordered by NodeId; stale flags entries
        of currently suspected nodes.
        """
        out = []
        for node in sorted(self.entries):
            status = status_of(node)
            if status in (membership.DEAD, membership.LEFT):
                continue
            entry = self.entries[node]
            if predicate(entry):
                out.append((entry, status == membership.SUSPECT))
        return out

    def evict(self, node: NodeId) -> bool:
        return self.drop(node)

    def content_hash(self) -> str:
        """The registry's convergence hash: `version_hash()`. A version is
        stamped once per node, its status_version rising within a life and
        its incarnation on every restart and refutation, so it names one
        entry, and equal version maps mean equal entries."""
        return self.version_hash()
