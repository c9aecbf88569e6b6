"""Distributed data catalog: descriptors, replica sets, nearest resolution.

Catalog records ride the registry gossip channel (DIGEST/DELTA), so they get
the same eventual-consistency class with no extra protocol. A record is
written once, by the source's owner when it starts, and never changes: an
id names one record, so merging installs a record not yet held and ignores
the rest. Dead replicas are filtered out at read time.

The catalog's version map has one `[id]` entry per record. A record's wire
form is that entry followed by the descriptor's fields,
`[id, [replicas...], owner, size]`. A DIGEST carries the map's hash, and
the map itself only to a peer whose hash differs.

Invariants of `Catalog`, a `wire.VersionedMap`: `records` is written only
through `merge` (which `announce` calls), and it adds a record through the
map's `put`, which keeps the version map sorted and its hash up to date.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def to_dict(self) -> wire.ListRecord:
        """The wire form, built once per record and shared: read-only."""
        return self._record

    @cached_property
    def _record(self) -> wire.ListRecord:
        d = self.descriptor
        return wire.ListRecord([d.id, sorted(d.replicas), d.owner, d.size], self)

    @cached_property
    def version_entry(self) -> wire.ListRecord:
        """[id]: this record in a version map, and the first element of its
        wire form. Built once per record and shared: read-only."""
        return wire.ListRecord([self.descriptor.id])

    @classmethod
    def from_dict(cls, d: list) -> "CatalogRecord":
        data_id, replicas, owner, size = d
        return cls(
            descriptor=DataSourceDescriptor(
                id=int(data_id),
                owner=int(owner),
                size=float(size),
                replicas=frozenset(int(r) for r in replicas),
            ),
        )


class NotOwnerError(Exception):
    """announce() attempted by a node that does not own the source."""


class Catalog(wire.VersionedMap):
    """One node's replica of the swarm-wide data index: `records` maps
    DataSourceId -> CatalogRecord."""

    def announce(self, descriptor: DataSourceDescriptor, by: NodeId) -> CatalogRecord:
        """Install the record of a source `by` owns; returns the record held."""
        if by != descriptor.owner:
            raise NotOwnerError(
                f"node {by} cannot announce source {descriptor.id} owned by {descriptor.owner}"
            )
        self.merge(CatalogRecord(descriptor))
        return self.records[descriptor.id]

    def merge(self, incoming: CatalogRecord) -> bool:
        """Install a record of a source not held; returns True when it did."""
        data_id = incoming.descriptor.id
        if data_id in self.records:
            return False
        self.put(data_id, incoming)
        return True

    def diff(self, remote: list) -> tuple:
        """(our records a peer's version map lacks, source ids it holds and
        we lack). An id names one record, so held ones never differ."""
        return self.diff_records(remote, lambda a, b: False)

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
