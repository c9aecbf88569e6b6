"""Distributed data catalog: descriptors, replica sets, nearest resolution.

Catalog records ride the registry gossip channel (DIGEST/DELTA), so they get
the same eventual-consistency class with no extra protocol. Static descriptor
fields are LWW by the owner's announce sequence; the replica set merges as a
grow-only union, with dead replicas filtered out at read time rather than
removed from state.
"""

from __future__ import annotations

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
        if self.size <= 0:
            raise ValueError("data source size must be positive")
        if self.owner not in self.replicas:
            raise ValueError("owner must be among the replicas")


@dataclass(frozen=True)
class CatalogRecord:
    descriptor: DataSourceDescriptor
    announce_seq: int  # owner's announce counter, guards static fields

    def to_dict(self) -> wire.Record:
        """The wire form, built once per record and shared: read-only."""
        return self._dict

    @cached_property
    def _dict(self) -> wire.Record:
        d = self.descriptor
        return wire.Record({
            "id": d.id,
            "owner": d.owner,
            "size": d.size,
            "replicas": sorted(d.replicas),
            "announce_seq": self.announce_seq,
        }, self)

    @classmethod
    def from_dict(cls, d: dict) -> "CatalogRecord":
        return cls(
            descriptor=DataSourceDescriptor(
                id=int(d["id"]),
                owner=int(d["owner"]),
                size=float(d["size"]),
                replicas=frozenset(int(r) for r in d["replicas"]),
            ),
            announce_seq=int(d["announce_seq"]),
        )


class NotOwnerError(Exception):
    """announce() attempted by a node that does not own the source."""


class Catalog:
    """One node's replica of the swarm-wide data index."""

    def __init__(self, owner: NodeId):
        self.owner = owner
        self.records: dict = {}  # DataSourceId -> CatalogRecord

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
        return rec

    def merge(self, incoming: CatalogRecord) -> bool:
        """Gossip install; returns True when local state changed."""
        current = self.records.get(incoming.descriptor.id)
        if current is None:
            self.records[incoming.descriptor.id] = incoming
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
        return True

    def holds(self, record: dict) -> bool:
        """True when `merge` of this record dict, decoded, would return False.

        Lets gossip skip records the catalog already holds without decoding
        them: an announce sequence no newer and no replica not held. A record
        that is the held one's own dict (shared, see `wire`) is held.
        """
        current = self.records.get(record["id"])
        if current is None:
            return False
        return current._dict is record or (
            record["announce_seq"] <= current.announce_seq
            and current.descriptor.replicas.issuperset(record["replicas"])
        )

    def summary(self) -> wire.RecordList:
        """Every record in DataSourceId order, as gossiped in DIGEST/DELTA."""
        return wire.RecordList(r.to_dict() for _, r in sorted(self.records.items()))

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
