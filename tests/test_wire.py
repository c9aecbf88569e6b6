import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from swarmsim import agent, membership, scenario as scen, wire
from swarmsim.dataplane import Catalog, CatalogRecord, DataSourceDescriptor
from swarmsim.membership import ALIVE, DEAD, LEFT, SUSPECT, MemberState, SwarmView
from swarmsim.model import MAINS
from swarmsim.registry import Registry, RegistryEntry
from swarmsim.sim import TRACE_BLOCK_BYTES, TraceLog

from conftest import make_profile, reference_map_hash


def reference_bytes(msg) -> bytes:
    """`json.dumps([kind, [field values in BODY_FIELDS order], deltas])`,
    compact, an absent field null and trailing nulls dropped."""
    values = [msg.body.get(name) for name in wire.BODY_FIELDS[msg.kind]]
    while values and values[-1] is None:
        values.pop()
    return json.dumps(
        [msg.kind, values, msg.deltas], sort_keys=True, separators=(",", ":")
    ).encode()


def test_round_trip():
    msg = wire.Message(
        wire.OFFER,
        {"task": [3, "generic", 1.0, 64, 12.5, 1, []], "attempt": 1},
        deltas=[[2, 0, 0, 1.0]],
    )
    data = wire.encode(msg)
    assert data == b'["OFFER",[[3,"generic",1.0,64,12.5,1,[]],1],[[2,0,0,1.0]]]'
    assert wire.decode(data) == msg


def test_encoding_is_canonical():
    a = wire.Message(wire.FAILED, {"task_id": 1, "attempt": 2})
    b = wire.Message(wire.FAILED, {"attempt": 2, "task_id": 1})
    assert wire.encode(a) == wire.encode(b) == b'["FAILED",[1,2],[]]'
    assert wire.digest(wire.encode(a)) == wire.digest(wire.encode(b))


def test_an_absent_field_is_null_and_trailing_nulls_are_dropped():
    parts = {"view": wire.RecordList([wire.ListRecord([1, 0, 0, 0.0])])}
    delta = wire.encode(wire.Message(wire.DELTA, parts))
    assert delta == b'["DELTA",[null,null,[[1,0,0,0.0]]],[]]'
    assert wire.encode(wire.Message(wire.LEAVE)) == b'["LEAVE",[],[]]'
    assert wire.encode(wire.Message(wire.PING, {"token": None})) == b'["PING",[],[]]'


def test_every_kind_has_a_body_layout_and_a_handler():
    assert set(wire.BODY_FIELDS) == wire.ALL_KINDS == set(agent._MESSAGE_HANDLERS)
    for fields in wire.BODY_FIELDS.values():
        assert len(set(fields)) == len(fields)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown message kind"):
        wire.decode(b'["BOGUS",[],[]]')
    with pytest.raises(ValueError, match="unknown message kind"):
        wire.encode(wire.Message("BOGUS", {}))


def test_a_field_the_kind_lacks_is_rejected():
    with pytest.raises(ValueError, match="no field"):
        wire.encode(wire.Message(wire.PING, {"token": 1, "view": []}))
    with pytest.raises(ValueError, match="no field"):
        wire.encode(wire.Message(wire.LEAVE, {"token": None, "x": 1}))
    with pytest.raises(ValueError, match="fields"):
        wire.decode(b'["PING",[1,2],[]]')


json_scalars = st.one_of(
    st.booleans(),
    st.integers(-(2**31), 2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
# None is a leaf only inside lists and dicts: a top-level None field is absent.
json_values = st.recursive(
    json_scalars | st.none(),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=5), inner, max_size=3)
    ),
    max_leaves=6,
)


@st.composite
def messages(draw, values, deltas=st.just([])):
    """A message of any kind with a random subset of its fields, each set
    to a drawn value."""
    kind = draw(st.sampled_from(sorted(wire.BODY_FIELDS)))
    fields = wire.BODY_FIELDS[kind]
    present = draw(st.lists(st.sampled_from(fields), unique=True)) if fields else []
    return wire.Message(kind, {name: draw(values) for name in present}, draw(deltas))


# -- cached records spliced into messages; trace lines as json.dumps writes --

any_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
)
plain = st.recursive(
    any_scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
        st.dictionaries(st.integers(-5, 5), inner, max_size=3),
    ),
    max_leaves=8,
)
records = st.lists(plain, max_size=4).map(wire.ListRecord)
record_lists = st.lists(records, max_size=4).map(wire.RecordList)
# Field values mix records, record lists and plain values, nested in plain
# dicts and lists: a record or a record list that is a field's value is
# spliced, the rest is left to the encoder.
values = st.recursive(
    st.one_of(plain, records, record_lists),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
        st.dictionaries(st.integers(-5, 5), inner, max_size=3),
    ),
    max_leaves=10,
)
json_records = st.lists(json_values, max_size=4).map(wire.ListRecord)


@given(messages(
    st.one_of(json_values.filter(lambda v: v is not None), json_records, st.lists(json_records, max_size=3).map(wire.RecordList)),
    st.lists(json_records, max_size=3).map(wire.RecordList),
))
def test_round_trip_property(msg):
    assert wire.decode(wire.encode(msg)) == msg


@given(messages(values, st.one_of(record_lists, st.lists(records, max_size=3))))
def test_encode_with_cached_records_is_byte_identical(msg):
    expected = reference_bytes(msg)
    assert wire.encode(msg) == expected
    assert wire.encode(msg) == expected  # again, from the filled caches


# Trace records may hold values JSON lacks; the writer prints them with str().
trace_values = st.one_of(values, st.frozensets(st.integers(), max_size=3))


@given(trace=st.lists(
    st.dictionaries(st.text(max_size=6), trace_values, max_size=6), max_size=4
))
def test_trace_lines_with_cached_records_are_byte_identical(trace, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "trace.jsonl"
    log = TraceLog()
    for rec in trace:
        log.append(rec)
    scen.write_trace_jsonl(log, path)
    expected = "".join(json.dumps(rec, sort_keys=True, default=str) + "\n" for rec in trace)
    assert path.read_text() == expected


def _block_record(i: int) -> dict:
    """A `send`, an OFFER `send` with its body, or a record holding a frozenset."""
    if i % 3 == 0:
        return {"t": i / 8, "type": "send", "from": i % 7, "to": i % 5, "msg_id": i,
                "kind": wire.PING, "digest": f"{i:016x}", "bytes": 100 + i % 50}
    if i % 3 == 1:
        body = {"task": {"id": i, "origin": i % 7, "work": 0.5, "inputs": [[7, 1.5]]},
                "attempt": 1 + i % 2, "submitted_at": i / 16,
                "deltas": wire.RecordList([wire.ListRecord([i, 0, 1.0])])}
        return {"t": i / 8, "type": "send", "from": i % 7, "to": i % 5, "msg_id": i,
                "kind": wire.OFFER, "digest": f"{i:016x}", "bytes": 300, "body": body}
    return {"t": i / 8, "type": "partition_start", "a": frozenset({i, i + 1}), "b": [i + 2]}


def test_trace_log_across_blocks_writes_and_reads_back_every_line(tmp_path):
    # Three full blocks and half of a fourth: more than the property above
    # ever writes, which stays inside the open block.
    recs, lines, size = [], [], 0
    while size < 3.5 * TRACE_BLOCK_BYTES:
        recs.append(_block_record(len(recs)))
        lines.append(json.dumps(recs[-1], sort_keys=True, default=str) + "\n")
        size += len(lines[-1])
    log = TraceLog()
    for rec in recs:
        log.append(rec)
    chunks = list(log.chunks())
    assert len(chunks) == 4 and 0 < len(chunks[-1]) < TRACE_BLOCK_BYTES
    path = tmp_path / "trace.jsonl"
    scen.write_trace_jsonl(log, path)
    assert path.read_text() == "".join(lines)
    assert len(log) == len(recs)
    decoded = [json.loads(line) for line in lines]
    assert list(log) == decoded
    assert list(log) == decoded  # a second pass reads the same


SHIPPED = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.yaml"))


def _record_paths(value, path):
    """Where records sit in `value`, found through dicts and lists."""
    if isinstance(value, wire.ListRecord):
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _record_paths(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _record_paths(item, f"{path}[{i}]")


def test_sent_records_sit_only_where_encode_splices_them(monkeypatch):
    """`encode` reuses a record's cached text only for a field whose value
    is a record (an OFFER's task) or a `RecordList`, and for the deltas. On
    every shipped scenario, every record sent sits there and nowhere else,
    so the cache covers all record traffic."""
    sent = {"lists": 0, "records": 0, "tasks": 0}
    encode = wire.encode

    def checked(msg):
        for path, value in [(f"{msg.kind}.deltas", msg.deltas)] + [
            (f"{msg.kind}.body.{key}", value) for key, value in msg.body.items()
        ]:
            if type(value) is wire.RecordList:
                sent["lists"] += 1
                sent["records"] += len(value)
                assert all(type(r) is wire.ListRecord for r in value), path
            elif type(value) is wire.ListRecord:
                assert path == "OFFER.body.task"
                sent["tasks"] += 1
            else:
                assert not list(_record_paths(value, path))
        return encode(msg)

    monkeypatch.setattr(wire, "encode", checked)
    for path in SHIPPED:
        scen.run(scen.load_scenario(path))
    assert sent["lists"] > 0 and sent["records"] > 0 and sent["tasks"] > 0


LIST_MUTATORS = (
    lambda batch, item: batch.append(item),
    lambda batch, item: batch.extend([item]),
    lambda batch, item: batch.insert(0, item),
    lambda batch, item: batch.__setitem__(0, item),
    lambda batch, item: batch.__delitem__(0),
    lambda batch, item: batch.__iadd__([item]),
    lambda batch, item: batch.__imul__(2),
    lambda batch, item: batch.pop(),
    lambda batch, item: batch.remove(item),
    lambda batch, item: batch.sort(),
    lambda batch, item: batch.reverse(),
    lambda batch, item: batch.clear(),
)


def test_records_and_record_lists_are_read_only():
    rec = wire.ListRecord([4, [2, 5], 2, 1.0])
    entry = wire.ListRecord([1, 0, 0, 0.0])
    batch = wire.RecordList([rec, entry])
    for target, item in ((batch, rec), (entry, 1), (rec, 4)):
        for mutate in LIST_MUTATORS:
            with pytest.raises(TypeError, match="read-only"):
                mutate(target, item)
    assert rec == [4, [2, 5], 2, 1.0]
    assert rec.wire_json == "[4,[2,5],2,1.0]"
    assert entry == [1, 0, 0, 0.0]
    assert entry.wire_json == "[1,0,0,0.0]"
    assert batch == [rec, entry]


def test_gossiped_records_are_built_once_and_read_only():
    state = MemberState(node=2, status="alive", incarnation=1, last_update_time=0.5)
    entry = RegistryEntry(node=2, profile=make_profile(node=2), version=(1, 3), stamped_time=0.5)
    catalog = CatalogRecord(
        DataSourceDescriptor(id=4, owner=2, size=1.0, replicas=frozenset({2, 5}))
    )
    for obj in (state, entry, catalog):
        rec = obj.to_dict()
        assert type(rec) is wire.ListRecord and obj.to_dict() is rec
        assert type(obj).from_dict(json.loads(rec.wire_json)) == obj
        with pytest.raises(TypeError, match="read-only"):
            rec[0] = 9
    # A member record's one wire form is its version entry, 11 bytes here.
    assert state.to_dict() is state.version_entry
    assert state.to_dict().wire_json == "[2,1,0,0.5]"


def test_adopt_shares_a_records_source_and_rebuilds_a_plain_dict():
    state = MemberState(node=2, status="alive", incarnation=1, last_update_time=0.5)
    rec = state.to_dict()
    assert rec.source is state
    assert wire.adopt(rec, MemberState.from_dict) is state
    plain = json.loads(rec.wire_json)
    assert type(plain) is list
    rebuilt = wire.adopt(plain, MemberState.from_dict)
    assert rebuilt == state and rebuilt is not state


# -- member records: the version entry is the one wire form -----------------

member_states = st.builds(
    MemberState,
    node=st.integers(0, 2**31),
    status=st.sampled_from([ALIVE, SUSPECT, DEAD, LEFT]),
    incarnation=st.integers(0, 2**31),
    last_update_time=st.floats(0.0, 1e9, allow_nan=False),
)


@given(st.lists(member_states, max_size=6), st.lists(member_states, max_size=4))
def test_member_records_survive_the_wire(sent, held):
    """Member records piggybacked on a PING decode to lists from which
    `from_dict` rebuilds equal states, and a view tells whether each would
    change it alike from the sent record and from the decoded list."""
    msg = wire.Message(wire.PING, {"token": 1}, wire.RecordList(s.to_dict() for s in sent))
    decoded = wire.decode(wire.encode(msg))
    assert decoded.deltas == msg.deltas
    assert all(type(d) is list for d in decoded.deltas)
    assert [MemberState.from_dict(d) for d in decoded.deltas] == sent
    view = SwarmView(self_node=-1)
    for state in held:
        view.apply(state)
    for state, plain in zip(sent, decoded.deltas):
        assert view.dominates(state.to_dict()) == view.dominates(plain)


finite = st.floats(-1e9, 1e9, allow_nan=False)
registry_entries = st.builds(
    lambda node, version, stamped, hw, util, battery, pos, typologies: RegistryEntry(
        node=node,
        profile=make_profile(
            node=node, perf=hw[0], memory=hw[1], bandwidth=hw[2], utilization=util,
            battery=battery, position=pos, typologies=typologies,
        ),
        version=version,
        stamped_time=stamped,
    ),
    st.integers(0, 2**31),
    st.tuples(st.integers(0, 2**31), st.integers(0, 2**31)),
    st.floats(0.0, 1e9, allow_nan=False),
    st.tuples(finite, st.integers(0, 2**40), finite),
    st.floats(0.0, 1.0),
    st.one_of(st.just(MAINS), st.floats(0.0, 1.0)),
    st.tuples(finite, finite),
    st.frozensets(st.text(max_size=6), max_size=3),
)
catalog_records = st.builds(
    lambda data_id, owner, others, size: CatalogRecord(
        DataSourceDescriptor(
            id=data_id, owner=owner, size=size, replicas=frozenset({owner, *others})
        ),
    ),
    st.integers(0, 2**31),
    st.integers(0, 64),
    st.frozensets(st.integers(0, 64), max_size=4),
    st.floats(1e-3, 1e6),
)
# One member with few distinct values, so equal keys come up often.
one_members = st.builds(
    MemberState,
    node=st.just(3),
    status=st.sampled_from([ALIVE, SUSPECT, DEAD, LEFT]),
    incarnation=st.integers(0, 2),
    last_update_time=st.sampled_from([0.0, 1.5, 2.0]),
)


@given(st.one_of(member_states, registry_entries, catalog_records), one_members, one_members)
def test_every_record_survives_the_wire(obj, a, b):
    """Every gossiped record decodes, off its wire JSON, to an equal object;
    its wire form begins with its version entry; and two members' encoded
    entries order as their states' merge keys do."""
    rec = obj.to_dict()
    assert type(obj).from_dict(json.loads(rec.wire_json)) == obj
    entry = obj.version_entry
    assert rec[:len(entry)] == entry
    wire_a, wire_b = json.loads(a.to_dict().wire_json), json.loads(b.to_dict().wire_json)
    assert membership._entry_newer(wire_a, wire_b) == (
        membership.merge_key(a.status, a.incarnation, a.last_update_time)
        > membership.merge_key(b.status, b.incarnation, b.last_update_time)
    )


def test_a_members_map_entry_is_its_piggybacked_record():
    view = SwarmView(self_node=1)
    for node in (3, 1, 2):
        view.apply(MemberState(node=node, status=ALIVE, incarnation=0, last_update_time=0.0))
    picked = view.members[2].to_dict()
    assert view.version_map()[1] is picked
    with pytest.raises(TypeError, match="read-only"):
        picked[1] = 5
    with pytest.raises(TypeError, match="read-only"):
        view.version_map().append(picked)
    assert picked == [2, 0]
    # Trailing defaults are dropped: a time of 0.0, then an Alive rank.
    dead = MemberState(node=2, status=DEAD, incarnation=1, last_update_time=0.0)
    assert dead.to_dict() == [2, 1, 2]
    alive_at = MemberState(node=2, status=ALIVE, incarnation=1, last_update_time=0.5)
    assert alive_at.to_dict() == [2, 1, 0, 0.5]


@given(st.lists(member_states, max_size=8))
def test_version_map_encodes_as_json_dumps_would(states):
    """The view's map is spliced from its entries' cached texts, and the
    bytes are those of the encoder run over the plain lists."""
    view = SwarmView(self_node=0)
    for state in states:
        view.apply(state)
    body = {"view": view.version_map()}
    plain = {"view": [list(entry) for entry in view.version_map()]}
    assert type(view.version_map()) is wire.RecordList
    for kind in (wire.DIGEST, wire.HELLO):
        expected = reference_bytes(wire.Message(kind, plain))
        assert wire.encode(wire.Message(kind, body)) == expected


entry_values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([ALIVE, SUSPECT, DEAD, LEFT]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(0, 5), max_size=3),
)
version_maps = st.dictionaries(
    st.integers(0, 20), st.lists(entry_values, min_size=1, max_size=3), max_size=6
).map(lambda entries: [[i, *rest] for i, rest in sorted(entries.items())])


def record_of(entry) -> SimpleNamespace:
    """A record whose version entry is `entry`."""
    return SimpleNamespace(version_entry=wire.ListRecord(entry))


def map_of(entries) -> wire.VersionedMap:
    """A version map holding a record of each of `entries`, put in the order
    given."""
    vmap = wire.VersionedMap()
    for entry in entries:
        vmap.put(entry[0], record_of(entry))
    return vmap


@given(version_maps, st.data())
def test_version_hash_tells_version_maps_apart(vmap, data):
    """A map's hash does not depend on the order its entries came in, nor on
    whether they are shared records or plain lists decoded off the wire;
    a put undone by a drop restores it, and any one changed entry changes it."""
    digest = map_of(vmap).version_hash()
    assert len(digest) == 16
    assert digest == reference_map_hash(vmap)
    shuffled = data.draw(st.permutations(vmap))
    assert map_of(shuffled).version_hash() == digest
    assert map_of(json.loads(json.dumps(vmap))).version_hash() == digest
    shared = map_of(vmap)
    other = wire.VersionedMap()
    for key in reversed(sorted(shared.records)):
        other.put(key, shared.records[key])
    assert other.version_hash() == digest
    extra = data.draw(st.integers(21, 30))
    other.put(extra, record_of([extra, 0]))
    assert other.version_hash() != digest
    other.drop(extra)
    assert other.version_hash() == digest
    if not vmap:
        return
    row = data.draw(st.integers(0, len(vmap) - 1))
    col = data.draw(st.integers(1, len(vmap[row]) - 1))
    old = vmap[row][col]
    new = data.draw(entry_values.filter(
        lambda v: json.dumps(v) != json.dumps(old)
    ))
    changed = [list(e) for e in vmap]
    changed[row][col] = new
    assert map_of(changed).version_hash() != digest
    other.put(vmap[row][0], record_of(changed[row]))
    assert other.version_hash() == map_of(changed).version_hash()


# -- versioned maps: the view, the registry and the catalog ------------------

# Few ids and few distinct values per owner, so mutators often hit a held
# record and often change nothing.
few = st.integers(0, 3)
view_steps = st.one_of(
    st.tuples(st.just("apply"), st.builds(
        MemberState, node=few, status=st.sampled_from([ALIVE, SUSPECT, DEAD, LEFT]),
        incarnation=st.integers(0, 2), last_update_time=st.sampled_from([0.0, 1.5]),
    )),
    st.tuples(st.just("drop"), few),
)
registry_steps = st.one_of(
    st.tuples(st.just("merge"), st.builds(
        lambda node, version, util: RegistryEntry(
            node=node, profile=make_profile(node=node, utilization=util),
            version=version, stamped_time=0.0,
        ),
        few, st.tuples(st.integers(0, 2), st.integers(0, 2)), st.sampled_from([0.0, 0.5]),
    )),
    st.tuples(st.just("evict"), few),
    st.tuples(
        st.just("local_update"),
        st.builds(lambda util: make_profile(node=0, utilization=util), st.sampled_from([0.0, 0.5])),
        st.integers(0, 2),
        st.sampled_from([1.0, 2.0]),
    ),
)
descriptors = st.builds(
    lambda data_id, owner, others: DataSourceDescriptor(
        id=data_id, owner=owner, size=1.0, replicas=frozenset({owner, *others})
    ),
    few, few, st.frozensets(few, max_size=2),
)
catalog_steps = st.one_of(
    st.tuples(st.just("merge"), st.builds(CatalogRecord, descriptors)),
    st.tuples(st.just("announce"), descriptors.map(
        lambda d: dataclasses.replace(d, owner=0, replicas=d.replicas | {0})
    ), st.just(0)),
)


@pytest.mark.parametrize("owner_type, steps", [
    (SwarmView, view_steps), (Registry, registry_steps), (lambda node: Catalog(), catalog_steps),
], ids=["view", "registry", "catalog"])
@given(data=st.data())
def test_versioned_maps_cache_what_a_rebuild_gives(owner_type, steps, data):
    """After any sequence of an owner's mutators, its version map is every
    record's version entry in id order, built from scratch, and its hash
    that map's as it reads without a cache; a mutator that changes nothing
    keeps the cached map object."""
    owner = owner_type(0)  # the node whose view, registry or catalog it is
    for name, *args in data.draw(st.lists(steps, max_size=12)):
        before = owner.version_map()
        changed = getattr(owner, name)(*args)
        rebuilt = [list(owner.records[i].version_entry) for i in sorted(owner.records)]
        assert owner.version_map() == rebuilt
        assert owner.version_hash() == reference_map_hash(rebuilt)
        if changed is False:
            assert owner.version_map() is before


# -- diff of two version maps ----------------------------------------------

# How one id stands in two maps: the same entry object, equal entries,
# a newer entry on one side, an entry on one side only, or none.
_DIFF_CASES = ["shared", "equal", "mine_newer", "theirs_newer", "mine_only", "theirs_only", "none"]


def reference_diff(mine, theirs, newer, live) -> tuple:
    """`diff_versions` id by id: an id is pushed when our live entry wins
    over the peer's or the peer has none, and wanted the other way."""
    ours, their = {e[0]: e for e in mine}, {e[0]: e for e in theirs}
    push = [i for i, a in sorted(ours.items())
            if live(a) and (i not in their or newer(a, their[i]))]
    want = [i for i, b in sorted(their.items())
            if live(b) and (i not in ours or newer(b, ours[i]))]
    return push, want


@given(
    st.lists(st.tuples(st.sampled_from(_DIFF_CASES), st.integers(0, 3),
                       st.booleans(), st.booleans()), max_size=24),
    st.booleans(),
)
def test_diff_versions_matches_a_per_id_reference(cases, decoded):
    """`diff_versions` of two maps whose entries are shared, equal but
    distinct, newer on either side or on one side only gives the per-id
    reference's ids in id order, with a `live` filter that rejects the
    entries flagged dead; also when the peer's map is decoded lists."""
    mine, theirs = [], []
    for i, (case, version, dead, their_dead) in enumerate(cases):
        entry = wire.ListRecord([i, version, dead])
        if case in ("shared", "equal", "mine_newer", "mine_only"):
            mine.append(entry)
        if case == "shared":
            theirs.append(entry)
        elif case == "equal":
            theirs.append(wire.ListRecord([i, version, dead]))
        elif case == "mine_newer":
            theirs.append(wire.ListRecord([i, version - 1, their_dead]))
        elif case == "theirs_newer":
            mine.append(entry)
            theirs.append(wire.ListRecord([i, version + 1, their_dead]))
        elif case == "theirs_only":
            theirs.append(wire.ListRecord([i, version, their_dead]))
    mine = wire.RecordList(mine)
    theirs = [list(e) for e in theirs] if decoded else wire.RecordList(theirs)

    def newer(a, b):
        return a[1] > b[1]

    def live(entry):
        return not entry[2]

    expected = reference_diff(mine, theirs, newer, live)
    assert wire.diff_versions(mine, theirs, newer, live) == expected
    assert wire.diff_versions(theirs, mine, newer, live) == expected[::-1]


def test_messages_are_read_only_values():
    msg = wire.Message(wire.PING, {"token": 1})
    with pytest.raises(dataclasses.FrozenInstanceError):
        msg.deltas = []
