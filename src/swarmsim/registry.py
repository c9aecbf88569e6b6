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

An entry travels in one positional wire form that begins with its version
entry: `[node, incarnation, status_version, stamped_time, cpu_perf_index,
memory, link_bandwidth, drain_rate, utilization, battery, x, y,
[typologies...]]`, with the typologies sorted: the version entry and stamped
time, then the profile's own form (`NodeProfile.to_dict`) after its node id.
An origin reads a peer's drain rate from the entry it scores, as it reads
the rest of the peer's profile.

Invariants of `Registry`, a `wire.VersionedMap`: `entries` is written only
through `local_update`, `merge` and `evict`, and each of them writes
through the map's `put` or `drop`, which keep the version map sorted and
its hash up to date. The registry adds to its base only the merge rule,
last writer wins by version. Since a version names one entry, the map's
hash is also the registry's convergence hash (`content_hash`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .model import NodeId, NodeProfile
from . import membership, wire

Version = tuple  # (incarnation, status_version), compared lexicographically


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

    @classmethod
    def from_dict(cls, d: list) -> "RegistryEntry":
        node, incarnation, status_version, stamped_time, *profile = d
        profile = NodeProfile.from_dict([node, *profile])
        return cls(
            node=profile.node,
            profile=profile,
            version=(int(incarnation), int(status_version)),
            stamped_time=float(stamped_time),
        )


class ForeignUpdateError(Exception):
    """Direct local_update for a node other than the registry owner."""


class Registry(wire.VersionedMap):
    """One node's replica of the swarm-wide profile store: `entries`
    (NodeId -> RegistryEntry) is the map's `records` under its own name."""

    def __init__(self, owner: NodeId):
        super().__init__()
        self.owner = owner
        self.entries = self.records

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
        self.put(self.owner, entry)
        return entry

    def merge(self, entry: RegistryEntry) -> bool:
        """LWW install of a gossiped entry; never regresses a version."""
        current = self.entries.get(entry.node)
        if current is not None and current.version >= entry.version:
            return False
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
