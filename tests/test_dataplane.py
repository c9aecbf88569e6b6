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
    cat = Catalog()
    rec = cat.announce(desc(), by=3)
    assert cat.records == {1: rec} and rec.descriptor == desc()
    with pytest.raises(NotOwnerError):
        cat.announce(desc(), by=4)


def test_merge_installs_only_sources_not_held():
    """An id names one record: a record of a source already held changes
    nothing, whether merged or announced."""
    cat = Catalog()
    held = cat.announce(desc(), by=3)
    assert not cat.merge(CatalogRecord(desc(replicas={3, 7})))
    assert cat.announce(desc(size=5.0), by=3) is held
    assert cat.records == {1: held}
    other = CatalogRecord(desc(data_id=2, owner=4))
    assert cat.merge(other)
    assert cat.records == {1: held, 2: other}


def test_resolve_prefers_reader_itself():
    cat = Catalog()
    cat.announce(desc(replicas={3, 5}), by=3)
    got = cat.resolve(1, reader=5, position_of=lambda n: Position(0, 0), is_alive=lambda n: True)
    assert got == 5  # reader holds a replica -> zero transfer


def test_resolve_nearest_then_lowest_id():
    cat = Catalog()
    cat.announce(desc(replicas={3, 5, 7}), by=3)
    pos = {1: Position(0, 0), 3: Position(10, 0), 5: Position(5, 0), 7: Position(5, 0)}
    got = cat.resolve(1, reader=1, position_of=pos.get, is_alive=lambda n: True)
    assert got == 5  # 5 and 7 equidistant; lower NodeId wins


def test_resolve_skips_dead_replicas():
    cat = Catalog()
    cat.announce(desc(replicas={3, 5}), by=3)
    pos = {1: Position(0, 0), 3: Position(1, 0), 5: Position(100, 0)}
    alive = {3: False, 5: True}
    got = cat.resolve(1, reader=1, position_of=pos.get, is_alive=lambda n: alive.get(n, False))
    assert got == 5
    # all dead -> data unavailable
    none = cat.resolve(1, reader=1, position_of=pos.get, is_alive=lambda n: False)
    assert none is None


def test_descriptor_survives_owner_death_via_replica():
    cat = Catalog()
    cat.merge(CatalogRecord(desc(owner=3, replicas={3, 5})))
    alive = lambda n: n != 3
    assert cat.live_replicas(1, alive) == [5]
    assert cat.resolve(1, reader=2, position_of=lambda n: Position(n, 0), is_alive=alive) == 5


def test_record_dict_round_trip():
    rec = CatalogRecord(desc(replicas={9, 3, 4}))
    assert rec.version_entry == [1]
    assert rec.to_dict() == [1, [3, 4, 9], 3, 2.0]
    assert CatalogRecord.from_dict(rec.to_dict()) == rec


# A source's one record derives from its id, as the owner announces it once.
exchange_records = st.integers(1, 6).map(
    lambda data_id: CatalogRecord(
        desc(data_id=data_id, owner=3, size=float(data_id), replicas={3, data_id + 3})
    )
)


@given(st.lists(exchange_records, max_size=5), st.lists(exchange_records, max_size=5))
def test_digest_exchange_leaves_both_catalogs_at_the_union(xs, ys):
    """`a` answers `b`'s version map (as decoded off the wire): `b` merges
    what `a` pushes, then `a` merges `b`'s records for what it wants. Both
    end holding every source either held; then nothing is left to
    exchange."""
    a, b, union = Catalog(), Catalog(), Catalog()
    for rec in xs:
        a.merge(rec)
    for rec in ys:
        b.merge(rec)
    for rec in xs + ys:
        union.merge(rec)
    push, want = a.diff(json.loads(json.dumps(b.version_map())))
    assert not set(r.descriptor.id for r in push) & set(want)
    for rec in push:
        assert b.merge(rec)
    for data_id in want:
        assert a.merge(b.records[data_id])
    assert a.records == b.records == union.records
    assert a.diff(b.version_map()) == ([], [])


def test_catalog_mutators_refresh_version_map_and_hash():
    """`version_map()` is kept until a record is added, and its
    `version_hash()` changes exactly when the map does."""
    cat = Catalog()

    def reference():
        return [[i] for i in sorted(cat.records)]

    assert cat.version_hash() == reference_map_hash([])
    steps = [
        lambda: cat.announce(desc(data_id=1), by=3),
        lambda: cat.merge(CatalogRecord(desc(data_id=2, owner=4))),
        lambda: cat.merge(CatalogRecord(desc(data_id=0, owner=5))),
    ]
    for mutate in steps:
        before, before_hash = cat.version_map(), cat.version_hash()
        assert mutate()
        assert cat.version_map() == reference() != before
        assert cat.version_hash() == reference_map_hash(reference()) != before_hash
    before, before_hash = cat.version_map(), cat.version_hash()
    assert not cat.merge(CatalogRecord(desc(data_id=2, owner=4, replicas={4, 6})))  # held
    cat.announce(desc(data_id=1, size=4.0), by=3)  # held
    assert cat.version_map() is before
    assert cat.version_hash() == before_hash
