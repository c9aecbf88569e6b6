import json

import pytest
from hypothesis import given, strategies as st

from swarmsim.dataplane import (
    Catalog,
    CatalogRecord,
    DataSourceDescriptor,
    NotOwnerError,
)
from swarmsim.model import Position

from conftest import reference_map_hash


def desc(data_id=1, owner=3, size=2.0, replicas=None):
    return DataSourceDescriptor(
        id=data_id,
        owner=owner,
        size=size,
        replicas=frozenset(replicas if replicas is not None else {owner}),
    )


def test_descriptor_invariants():
    with pytest.raises(ValueError):
        desc(size=0.0)
    with pytest.raises(ValueError):
        desc(owner=3, replicas={4})


def test_announce_owner_only():
    cat = Catalog(owner=3)
    rec = cat.announce(desc(), by=3)
    assert rec.announce_seq == 1
    with pytest.raises(NotOwnerError):
        cat.announce(desc(), by=4)


def test_reannounce_bumps_seq_and_keeps_replicas():
    cat = Catalog(owner=3)
    cat.announce(desc(), by=3)
    assert cat.merge(CatalogRecord(desc(replicas={3, 7}), announce_seq=1))
    rec = cat.announce(desc(), by=3)
    assert rec.announce_seq == 2
    assert rec.descriptor.replicas == frozenset({3, 7})


def test_merge_unions_replicas_lww_statics():
    a, b = Catalog(1), Catalog(2)
    a.merge(CatalogRecord(desc(replicas={3, 4}), announce_seq=1))
    b.merge(CatalogRecord(desc(size=5.0, replicas={3, 5}), announce_seq=2))
    changed = a.merge(b.records[1])
    assert changed
    out = a.records[1]
    assert out.descriptor.size == 5.0  # newer announce wins statics
    assert out.descriptor.replicas == frozenset({3, 4, 5})  # union survives
    assert out.announce_seq == 2
    # merging back is idempotent after convergence
    b.merge(a.records[1])
    assert a.records[1] == b.records[1]
    assert not a.merge(b.records[1])


def test_resolve_prefers_reader_itself():
    cat = Catalog(owner=3)
    cat.announce(desc(replicas={3, 5}), by=3)
    got = cat.resolve(1, reader=5, position_of=lambda n: Position(0, 0), is_alive=lambda n: True)
    assert got == 5  # reader holds a replica -> zero transfer


def test_resolve_nearest_then_lowest_id():
    cat = Catalog(owner=3)
    cat.announce(desc(replicas={3, 5, 7}), by=3)
    pos = {1: Position(0, 0), 3: Position(10, 0), 5: Position(5, 0), 7: Position(5, 0)}
    got = cat.resolve(1, reader=1, position_of=pos.get, is_alive=lambda n: True)
    assert got == 5  # 5 and 7 equidistant; lower NodeId wins


def test_resolve_skips_dead_replicas():
    cat = Catalog(owner=3)
    cat.announce(desc(replicas={3, 5}), by=3)
    pos = {1: Position(0, 0), 3: Position(1, 0), 5: Position(100, 0)}
    alive = {3: False, 5: True}
    got = cat.resolve(1, reader=1, position_of=pos.get, is_alive=lambda n: alive.get(n, False))
    assert got == 5
    # all dead -> data unavailable
    none = cat.resolve(1, reader=1, position_of=pos.get, is_alive=lambda n: False)
    assert none is None


def test_descriptor_survives_owner_death_via_replica():
    cat = Catalog(owner=1)
    cat.merge(CatalogRecord(desc(owner=3, replicas={3, 5}), announce_seq=1))
    alive = lambda n: n != 3
    assert cat.live_replicas(1, alive) == [5]
    assert cat.resolve(1, reader=2, position_of=lambda n: Position(n, 0), is_alive=alive) == 5


def test_record_dict_round_trip():
    rec = CatalogRecord(desc(replicas={3, 4, 9}), announce_seq=4)
    assert CatalogRecord.from_dict(rec.to_dict()) == rec


# Statics derive from (id, announce_seq): the owner's sequence stands for them.
exchange_records = st.builds(
    lambda data_id, seq, replicas: CatalogRecord(
        desc(data_id=data_id, owner=3, size=float(data_id + seq), replicas=replicas | {3}),
        seq,
    ),
    st.integers(1, 3),
    st.integers(1, 3),
    st.frozensets(st.integers(3, 6), max_size=3),
)


@given(st.lists(exchange_records, max_size=5), st.lists(exchange_records, max_size=5))
def test_digest_exchange_leaves_both_catalogs_at_the_union(xs, ys):
    """`a` answers `b`'s version map (as decoded off the wire): `b` merges
    what `a` pushes, then `a` merges `b`'s records for what it wants. Both
    end at the merge of every record either held; then nothing is left to
    exchange. A source can be pushed and wanted at once (a newer announce
    on one side, a replica only the other holds)."""
    a, b, union = Catalog(1), Catalog(2), Catalog(0)
    for rec in xs:
        a.merge(rec)
    for rec in ys:
        b.merge(rec)
    for rec in xs + ys:
        union.merge(rec)
    push, want = a.diff(json.loads(json.dumps(b.version_map())))
    for rec in push:
        assert b.merge(rec)
    for data_id in want:
        a.merge(b.records[data_id])
    assert a.records == b.records == union.records
    assert a.diff(b.version_map()) == ([], [])


def test_version_map_tells_replica_sets_apart():
    one = CatalogRecord(desc(replicas={1, 2}, owner=1), announce_seq=1)
    other = CatalogRecord(desc(replicas={1, 3}, owner=1), announce_seq=1)
    assert one.version_entry == [1, 1, [1, 2]] != other.version_entry
    a, b = Catalog(1), Catalog(2)
    a.merge(one)
    b.merge(other)
    assert a.diff(b.version_map()) == ([one], [1])


def test_catalog_mutators_refresh_version_map_and_hash():
    """`version_map()` and its `version_hash()` are cached until a record
    changes, and the hash changes exactly when the map does."""
    cat = Catalog(owner=3)

    def reference():
        return [
            [i, r.announce_seq, sorted(r.descriptor.replicas)]
            for i, r in sorted(cat.records.items())
        ]

    assert cat.version_hash() == reference_map_hash([])
    steps = [
        lambda: cat.announce(desc(data_id=1), by=3),
        lambda: cat.merge(CatalogRecord(desc(data_id=2, owner=4), 1)),
        lambda: cat.merge(CatalogRecord(desc(data_id=1, replicas={3, 5}), 1)),
        lambda: cat.announce(desc(data_id=1, size=4.0), by=3),
    ]
    for mutate in steps:
        before, before_hash = cat.version_map(), cat.version_hash()
        assert mutate()
        assert cat.version_map() == reference() != before
        assert cat.version_hash() == reference_map_hash(reference()) != before_hash
    before, before_hash = cat.version_map(), cat.version_hash()
    assert not cat.merge(CatalogRecord(desc(data_id=2, owner=4), 1))  # held
    assert cat.version_map() is before
    assert cat.version_hash() == before_hash
