import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dataclasses import replace

from swarmsim import membership, scenario as scen, wire
from swarmsim.dataplane import CatalogRecord, DataSourceDescriptor
from swarmsim.model import DataInput
from swarmsim.registry import ForeignUpdateError, Registry, RegistryEntry, StaticProfileError

from conftest import make_profile, make_task, reference_map_hash


def entry_for(node, inc=0, sv=1, util=0.0, t=0.0):
    return RegistryEntry(
        node=node,
        profile=make_profile(node=node, utilization=util),
        version=(inc, sv),
        stamped_time=t,
    )


def test_local_update_bumps_status_version():
    reg = Registry(owner=1)
    e1 = reg.local_update(make_profile(node=1, utilization=0.2), incarnation=0, now=1.0)
    e2 = reg.local_update(make_profile(node=1, utilization=0.4), incarnation=0, now=2.0)
    assert e2.version == (0, e1.version[1] + 1)
    assert e2.profile.dyn.utilization == 0.4


def test_foreign_local_update_rejected():
    reg = Registry(owner=1)
    with pytest.raises(ForeignUpdateError):
        reg.local_update(make_profile(node=2), incarnation=0, now=0.0)


def test_merge_is_lww_and_never_regresses():
    reg = Registry(owner=1)
    assert reg.merge(entry_for(2, inc=0, sv=3))
    assert not reg.merge(entry_for(2, inc=0, sv=2))  # older status
    assert not reg.merge(entry_for(2, inc=0, sv=3))  # equal
    assert reg.merge(entry_for(2, inc=1, sv=1))  # new incarnation dominates
    assert reg.entries[2].version == (1, 1)


def test_diff_symmetry():
    a, b = Registry(1), Registry(2)
    a.merge(entry_for(3, sv=5))
    a.merge(entry_for(4, sv=1))
    b.merge(entry_for(4, sv=2))
    b.merge(entry_for(5, sv=1))
    newer_here, want = a.diff(b.version_map())
    assert [e.node for e in newer_here] == [3]
    assert want == [4, 5]


def test_two_way_exchange_converges():
    rng = random.Random(5)
    a, b = Registry(1), Registry(2)
    for node in range(3, 12):
        e = entry_for(node, inc=rng.randrange(2), sv=rng.randrange(1, 6))
        (a if rng.random() < 0.5 else b).merge(e)
    for_b, want = a.diff(b.version_map())
    for e in for_b:
        b.merge(e)
    for_a, _ = b.diff(a.version_map())
    for e in for_a:
        a.merge(e)
    # third leg: b sends what a asked for
    for node in want:
        if node in b.entries:
            a.merge(b.entries[node])
    assert a.content_hash() == b.content_hash()


def test_ring_propagation_within_n_rounds():
    """Single update at node 0 floods a ring of N one-neighbor exchanges."""
    n = 8
    regs = [Registry(i) for i in range(n)]
    update = entry_for(0, sv=9)
    regs[0].merge(update)
    rounds = 0
    while any(reg.entries.get(0) != update for reg in regs):
        rounds += 1
        for i in range(n):  # each node pushes newer entries to its successor
            nxt = regs[(i + 1) % n]
            newer, _ = regs[i].diff(nxt.version_map())
            for e in newer:
                nxt.merge(e)
        assert rounds <= n, "flood exceeded ring diameter bound"
    assert rounds <= n


def test_query_filters_dead_and_flags_suspect():
    reg = Registry(owner=1)
    for node in (2, 3, 4, 5):
        reg.merge(entry_for(node))
    status = {
        2: membership.ALIVE,
        3: membership.DEAD,
        4: membership.SUSPECT,
        5: membership.LEFT,
    }
    out = reg.query(lambda e: True, status.get)
    assert [(e.node, stale) for e, stale in out] == [(2, False), (4, True)]


def test_eviction():
    reg = Registry(owner=1)
    reg.merge(entry_for(2))
    assert reg.evict(2)
    assert not reg.evict(2)
    assert 2 not in reg.entries


def test_content_hash_order_independent():
    a, b = Registry(1), Registry(2)
    e2, e3 = entry_for(2), entry_for(3)
    a.merge(e2)
    a.merge(e3)
    b.merge(e3)
    b.merge(e2)
    assert a.content_hash() == b.content_hash()


def test_entry_dict_round_trip():
    e = entry_for(7, inc=2, sv=5, util=0.33, t=12.5)
    assert RegistryEntry.from_dict(e.to_dict()) == e


versions = st.tuples(st.integers(0, 3), st.integers(0, 5))


@settings(max_examples=300)
@given(st.lists(versions, min_size=1, max_size=8))
def test_merge_order_independent(vs):
    """Any delivery order of the same entries yields the same winner."""
    entries = [entry_for(2, inc=i, sv=s) for i, s in vs]
    a, b = Registry(1), Registry(1)
    for e in entries:
        a.merge(e)
    for e in reversed(entries):
        b.merge(e)
    assert a.entries[2].version == b.entries[2].version == max(vs)


def test_registry_mutators_refresh_versions():
    """`version_map()` is every entry's `[node, *version]` in NodeId order,
    kept until entries change, and `version_hash()` its hash."""
    reg = Registry(owner=1)

    def reference():
        return [[n, *e.version] for n, e in sorted(reg.entries.items())]

    assert reg.version_map() == reference() == []
    assert reg.version_hash() == reference_map_hash([])
    steps = [
        lambda: reg.merge(entry_for(2, sv=1)),
        lambda: reg.merge(entry_for(2, sv=2, util=0.5)),
        lambda: reg.local_update(make_profile(node=1, utilization=0.3), incarnation=0, now=1.0),
        lambda: reg.evict(2),
    ]
    for mutate in steps:
        before, before_hash = reg.version_map(), reg.version_hash()
        assert mutate()
        assert reg.version_map() == reference() != before
        assert reg.version_hash() == reference_map_hash(reference()) != before_hash
        assert reg.content_hash() == reg.version_hash()
    before, before_hash = reg.version_map(), reg.version_hash()
    assert not reg.merge(entry_for(1, sv=0))  # older: not applied
    assert not reg.evict(2)
    assert reg.version_map() is before
    assert reg.version_hash() == before_hash


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.mark.parametrize("name", ["heavy_churn", "data_locality"])
def test_a_version_names_one_entry_over_whole_runs(name, monkeypatch):
    """`content_hash` is the version map's hash, which tells registries
    apart only while no node stamps one version onto two different entries.
    Every entry of a run is stamped by `local_update` (gossip installs the
    stamped objects), so recording its results covers them all, across
    restarts and refutations."""
    stamped = {}
    local_update = Registry.local_update

    def recording(self, profile, incarnation, now):
        entry = local_update(self, profile, incarnation, now)
        assert stamped.setdefault((entry.node, entry.version), entry) == entry
        return entry

    monkeypatch.setattr(Registry, "local_update", recording)
    sc = scen.load_scenario(SCENARIOS / f"{name}.yaml")
    for seed in range(3):
        stamped.clear()
        scen.run(sc, seed=seed)
        incarnations = {(node, version[0]) for node, version in stamped}
        assert len(stamped) > len(incarnations) >= len(sc.nodes)


def test_wire_schema_is_flat():
    """Each gossiped record goes as one flat list that begins with its
    version entry, its integral floats written as ints; an idle MAINS
    node's registry entry fits in 50 bytes."""
    entry = RegistryEntry(
        node=2,
        profile=make_profile(node=2, position=(40.0, 0.0)),
        version=(1, 3),
        stamped_time=7.5,
    )
    held = entry.to_dict().wire_json
    assert held == '[2,1,3,7.5,1,1024,10,0,0,"MAINS",40,0,["generic"]]'
    assert len(held) <= 50
    battery = RegistryEntry(
        node=3,
        profile=make_profile(node=3, battery=0.5, drain_rate=0.002,
                             typologies=("vision", "audio")),
        version=(0, 1),
        stamped_time=0.0,
    )
    assert battery.to_dict().wire_json == (
        '[3,0,1,0,1,1024,10,0.002,0,0.5,0,0,["audio","vision"]]'
    )
    member = membership.MemberState(
        node=5, status=membership.DEAD, incarnation=2, last_update_time=1.5
    )
    assert member.to_dict().wire_json == "[5,2,2,1.5]"
    catalog = CatalogRecord(
        DataSourceDescriptor(id=4, owner=2, size=1.0, replicas=frozenset({5, 2}))
    )
    assert catalog.to_dict().wire_json == "[4,[2,5],2,1]"
    for obj in (entry, battery, member, catalog):
        rec = obj.to_dict()
        assert rec[:len(obj.version_entry)] == obj.version_entry
    # An OFFER's task: its seven fields and nothing more (no QoS field).
    task = make_task(deadline=12.5, inputs=[DataInput(3, 2.5)])
    assert task.to_dict().wire_json == '[1,"generic",1,64,12.5,1,[[3,2.5]]]'
    assert task.to_dict() is task.to_dict() and task.to_dict().source is task


@pytest.mark.parametrize("entry", [
    entry_for(2, inc=1, sv=4, util=0.25, t=3.5),
    RegistryEntry(
        node=3,
        profile=make_profile(node=3, battery=0.5, typologies=("vision", "audio")),
        version=(0, 1),
        stamped_time=0.0,
    ),
    RegistryEntry(
        node=4,
        profile=make_profile(node=4, battery=0.25, drain_rate=0.02),
        version=(2, 7),
        stamped_time=9.0,
    ),
])
def test_entry_round_trips_through_its_wire_form(entry):
    assert RegistryEntry.from_dict(entry.to_dict()) == entry
    assert RegistryEntry.from_dict(json.loads(entry.to_dict().wire_json)) == entry


def test_dynamic_form_is_the_full_form_less_the_static_part():
    entry = RegistryEntry(
        node=3,
        profile=make_profile(node=3, battery=0.5, drain_rate=0.002, position=(4.0, 2.5),
                             typologies=("vision", "audio")),
        version=(0, 1),
        stamped_time=7.25,
    )
    assert entry.dynamic_record.wire_json == '[3,0,1,7.25,0,0.5,4,2.5]'
    full = entry.to_dict()
    assert entry.dynamic_record == [*full[:4], *full[8:12]]
    assert entry.dynamic_record is entry.dynamic_record
    assert entry.dynamic_record.source is entry


def test_static_part_survives_evict_and_completes_a_dynamic_form():
    """A registry keeps a node's static part across `evict`, so a dynamic
    form of an evicted node still decodes, into the entry it stands for."""
    reg = Registry(owner=1)
    old = RegistryEntry(
        node=2, profile=make_profile(node=2, battery=0.5, drain_rate=0.01,
                                     typologies=("vision",)),
        version=(0, 3), stamped_time=1.0,
    )
    assert reg.merge(old)
    assert reg.evict(2) and 2 not in reg.entries
    new = replace(old, profile=old.profile.with_dyn(utilization=0.25, battery=0.4),
                  version=(1, 1), stamped_time=9.5)
    for form in (new.dynamic_record, json.loads(new.dynamic_record.wire_json)):
        decoded = reg.entry_from_dict(form)
        assert decoded == new
        assert decoded.profile.hw is old.profile.hw  # completed from the kept part
    # A full form decodes as `RegistryEntry.from_dict` reads it.
    assert reg.entry_from_dict(json.loads(new.to_dict().wire_json)) == new
    # A dynamic form of a node never held cannot be completed.
    with pytest.raises(StaticProfileError):
        reg.entry_from_dict(entry_for(7).dynamic_record)


def test_a_full_form_with_other_hardware_raises():
    reg = Registry(owner=1)
    held = entry_for(2, sv=1)
    reg.merge_wire([held.to_dict()])
    same = entry_for(2, sv=2)  # an equal static part, not the same objects
    reg.merge_wire([json.loads(same.to_dict().wire_json)])
    assert reg.entries[2] == same
    for static in ({"drain_rate": 0.01}, {"memory": 2048}, {"typologies": ("vision",)}):
        other = RegistryEntry(node=2, profile=make_profile(node=2, **static),
                              version=(0, 3), stamped_time=0.0)
        with pytest.raises(StaticProfileError):
            reg.merge_wire([other.to_dict()])
        assert reg.entries[2] == same
    # Its dynamic form, which carries no static part, merges.
    reg.merge_wire([other.dynamic_record])
    assert reg.entries[2] is other


@pytest.mark.parametrize("kept, want", [
    ((), [3, 5]),
    ((3, 5), [3, 5]),
    ((5,), [3, 5, 9]),
])
def test_want_marking_round_trips_through_the_codec(kept, want):
    """The asker lists the wanted ids whose static part it keeps, then the
    others in one trailing list; the answerer sends the dynamic form of the
    first and the full form of the others, from the decoded message too."""
    asker, answerer = Registry(owner=1), Registry(owner=2)
    for node in kept:
        asker.merge(entry_for(node, sv=1))
    for node in want:
        answerer.merge(entry_for(node, sv=2, t=float(node)))
    marked = asker.mark_wanted(want)
    msg = wire.Message(wire.DELTA, {"want_registry": marked})
    decoded = wire.decode(wire.encode(msg)).body["want_registry"]
    assert decoded == marked
    for body in (marked, decoded):
        records = answerer.answer_wanted(body)
        assert sorted(r[0] for r in records) == sorted(want)
        for r in records:
            entry = answerer.entries[r[0]]
            assert r is (entry.dynamic_record if r[0] in kept else entry.to_dict())
            assert asker.entry_from_dict(json.loads(r.wire_json)) == entry
    if set(kept) == set(want):
        assert marked is want  # nothing marked: the list as it was


def test_pushed_entries_go_dynamic_to_a_peer_whose_map_lists_their_node():
    reg, peer = Registry(owner=1), Registry(owner=9)
    for node in (2, 3, 4, 6):
        reg.merge(entry_for(node, sv=2))
    for node in (2, 4, 5):
        peer.merge(entry_for(node, sv=1))
    push, _ = reg.diff(peer.version_map())
    forms = reg.wire_forms(push, peer.version_map())
    assert type(forms) is wire.RecordList
    assert [(r[0], len(r)) for r in forms] == [(2, 8), (3, 13), (4, 8), (6, 13)]
    assert all(r.source is reg.entries[r[0]] for r in forms)
