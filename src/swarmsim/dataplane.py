"""Distributed data catalog: descriptors, replica sets, nearest resolution.

Catalog records ride the registry gossip channel (DIGEST/DELTA), so they get
the same eventual-consistency class with no extra protocol. Static descriptor
fields are LWW by the owner's announce sequence; the replica set merges as a
grow-only union, with dead replicas filtered out at read time rather than
removed from state.

The catalog's version map has one `[id, announce_seq, replicas]` entry per
record: the sequence stands for the static fields and the sorted replica
list for the set, so two records with equal entries are equal. A record's
wire form is that entry followed by the static fields,
`[id, announce_seq, [replicas...], owner, size]`. A DIGEST
carries the map's hash, and the map itself only to a peer whose hash
differs.

Invariants of `Catalog`, a `wire.VersionedMap`: `records` is written only
through `announce` and `merge`, each of which calls `changed()` when it
changes a record, which drops the cached map and hash. The catalog's own
part is its merge rule: LWW static fields, grow-only replicas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

from . import wire
from .model import DataSourceId, NodeId, Position, distance


@dataclass(frozen=True)
class DataSourceDescriptor:
    id: DataSourceId
    owner: NodeId
    size: float  # MiB
    replicas: frozenset

    def __post_init__(self):
        if not self.size > 0:
            raise ValueError("data source size must be positive")
        if self.size == math.inf:
            raise ValueError("data source size must be finite")
        if self.owner not in self.replicas:
            raise ValueError("owner must be among the replicas")


@dataclass(frozen=True)
class CatalogRecord:
    descriptor: DataSourceDescriptor
    announce_seq: int  # owner's announce counter, guards static fields

    def to_dict(self) -> wire.ListRecord:
        """The wire form, built once per record and shared: read-only."""
        return self._record

    @cached_property
    def _record(self) -> wire.ListRecord:
        d = self.descriptor
        return wire.ListRecord([*self.version_entry, d.owner, d.size], self)

    @cached_property
    def version_entry(self) -> wire.ListRecord:
        """[id, announce_seq, sorted replicas]: this record in a version map,
        and the first elements of its wire form. Built once per record and
        shared: read-only."""
        d = self.descriptor
        return wire.ListRecord([d.id, self.announce_seq, sorted(d.replicas)])

    @classmethod
    def from_dict(cls, d: list) -> "CatalogRecord":
        data_id, announce_seq, replicas, owner, size = d
        return cls(
            descriptor=DataSourceDescriptor(
                id=int(data_id),
                owner=int(owner),
                size=float(size),
                replicas=frozenset(int(r) for r in replicas),
            ),
            announce_seq=int(announce_seq),
        )


def _entry_newer(a: list, b: list) -> bool:
    """Version map entries of one source: True when merging `a` into a
    holder of `b` would change it (a newer announce or a replica not held)."""
    return a[1] > b[1] or not set(a[2]).issubset(b[2])


class NotOwnerError(Exception):
    """announce() attempted by a node that does not own the source."""


class Catalog(wire.VersionedMap):
    """One node's replica of the swarm-wide data index: `records` maps
    DataSourceId -> CatalogRecord."""

    def __init__(self, owner: NodeId):
        super().__init__()
        self.owner = owner

    def announce(self, descriptor: DataSourceDescriptor, by: NodeId) -> CatalogRecord:
        if by != descriptor.owner:
            raise NotOwnerError(
                f"node {by} cannot announce source {descriptor.id} owned by {descriptor.owner}"
            )
        prev = self.records.get(descriptor.id)
        seq = prev.announce_seq + 1 if prev is not None else 1
        if prev is not None:
            descriptor = replace(
                descriptor, replicas=descriptor.replicas | prev.descriptor.replicas
            )
        rec = CatalogRecord(descriptor=descriptor, announce_seq=seq)
        self.records[descriptor.id] = rec
        self.changed()
        return rec

    def merge(self, incoming: CatalogRecord) -> bool:
        """Gossip install; returns True when local state changed."""
        current = self.records.get(incoming.descriptor.id)
        if current is None:
            self.records[incoming.descriptor.id] = incoming
            self.changed()
            return True
        union = current.descriptor.replicas | incoming.descriptor.replicas
        if incoming.announce_seq > current.announce_seq:
            base = incoming
        else:
            base = current
        merged = CatalogRecord(
            descriptor=replace(base.descriptor, replicas=union),
            announce_seq=max(current.announce_seq, incoming.announce_seq),
        )
        if merged == current:
            return False
        self.records[merged.descriptor.id] = merged
        self.changed()
        return True

    def diff(self, remote: list) -> tuple:
        """(our records a peer's version map lacks, source ids whose record
        there holds something ours lacks). One source can be in both."""
        return self.diff_records(remote, _entry_newer)

    def live_replicas(self, data_id: DataSourceId, is_alive) -> list:
        rec = self.records.get(data_id)
        if rec is None:
            return []
        return sorted(r for r in rec.descriptor.replicas if is_alive(r))

    def resolve(
        self,
        data_id: DataSourceId,
        reader: NodeId,
        position_of,
        is_alive,
    ):
        """Nearest live replica to the reader; ties go to the lowest NodeId.

        position_of: NodeId -> Position; is_alive: NodeId -> bool. Returns
        None when no live replica exists (data-unavailable).
        """
        candidates = self.live_replicas(data_id, is_alive)
        if not candidates:
            return None
        if reader in candidates:
            return reader
        reader_pos = position_of(reader)
        return min(
            candidates, key=lambda r: (distance(reader_pos, position_of(r)), r)
        )
