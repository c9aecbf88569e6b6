import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from swarmsim import scenario as scen, wire
from swarmsim.dataplane import CatalogRecord, DataSourceDescriptor
from swarmsim.membership import MemberState
from swarmsim.registry import RegistryEntry

from conftest import make_profile


def test_round_trip():
    msg = wire.Message(
        wire.OFFER,
        {"task_id": 3, "attempt": 1, "deadline": 12.5},
        deltas=[{"node": 2, "status": "alive", "incarnation": 0, "last_update_time": 1.0}],
    )
    again = wire.decode(wire.encode(msg))
    assert again == msg


def test_encoding_is_canonical():
    a = wire.Message(wire.PING, {"b": 1, "a": 2})
    b = wire.Message(wire.PING, {"a": 2, "b": 1})
    assert wire.encode(a) == wire.encode(b)
    assert wire.digest(wire.encode(a)) == wire.digest(wire.encode(b))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        wire.decode(b'{"kind": "BOGUS", "body": {}, "deltas": []}')
    with pytest.raises(ValueError):
        wire.encode(wire.Message("BOGUS", {}))


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)


@given(
    st.sampled_from(sorted(wire.ALL_KINDS)),
    st.dictionaries(st.text(min_size=1, max_size=10), json_scalars, max_size=6),
)
def test_round_trip_property(kind, body):
    msg = wire.Message(kind, body)
    assert wire.decode(wire.encode(msg)) == msg


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
records = st.dictionaries(st.text(max_size=5), plain, max_size=4).map(wire.Record)
record_lists = st.lists(records, max_size=4).map(wire.RecordList)
# Bodies mix records, record lists and plain values, nested in plain dicts
# (spliced) and in plain lists (left to the encoder).
values = st.recursive(
    st.one_of(plain, records, record_lists),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
        st.dictionaries(st.integers(-5, 5), inner, max_size=3),
    ),
    max_leaves=10,
)
bodies = st.dictionaries(st.text(max_size=6), values, max_size=5)


@given(
    st.sampled_from(sorted(wire.ALL_KINDS)),
    bodies,
    st.one_of(record_lists, st.lists(records, max_size=3)),
)
def test_encode_with_cached_records_is_byte_identical(kind, body, deltas):
    msg = wire.Message(kind, body, deltas)
    expected = json.dumps(
        {"kind": kind, "body": body, "deltas": deltas},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    assert wire.encode(msg) == expected
    assert wire.encode(msg) == expected  # again, from the filled caches


# Trace records may hold values JSON lacks; the writer prints them with str().
trace_values = st.one_of(values, st.frozensets(st.integers(), max_size=3))


@given(trace=st.lists(
    st.dictionaries(st.text(max_size=6), trace_values, max_size=6), max_size=4
))
def test_trace_lines_with_cached_records_are_byte_identical(trace, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "trace.jsonl"
    scen.write_trace_jsonl(trace, path)
    expected = "".join(json.dumps(rec, sort_keys=True, default=str) + "\n" for rec in trace)
    assert path.read_text() == expected


def test_records_and_record_lists_are_read_only():
    rec = wire.Record({"node": 1, "status": "alive"})
    for mutate in (
        lambda: rec.__setitem__("node", 2),
        lambda: rec.__delitem__("node"),
        lambda: rec.update(node=2),
        lambda: rec.setdefault("x", 1),
        lambda: rec.pop("node"),
        lambda: rec.popitem(),
        lambda: rec.clear(),
        lambda: rec.__ior__({"node": 2}),
    ):
        with pytest.raises(TypeError, match="read-only"):
            mutate()
    assert rec == {"node": 1, "status": "alive"}
    assert rec.wire_json() == '{"node":1,"status":"alive"}'
    batch = wire.RecordList([rec])
    for mutate in (
        lambda: batch.append(rec),
        lambda: batch.extend([rec]),
        lambda: batch.insert(0, rec),
        lambda: batch.__setitem__(0, rec),
        lambda: batch.__delitem__(0),
        lambda: batch.__iadd__([rec]),
        lambda: batch.pop(),
        lambda: batch.remove(rec),
        lambda: batch.sort(),
        lambda: batch.reverse(),
        lambda: batch.clear(),
    ):
        with pytest.raises(TypeError, match="read-only"):
            mutate()
    assert batch == [rec]


def test_gossiped_records_are_built_once_and_read_only():
    state = MemberState(node=2, status="alive", incarnation=1, last_update_time=0.5)
    entry = RegistryEntry(node=2, profile=make_profile(node=2), version=(1, 3), stamped_time=0.5)
    catalog = CatalogRecord(
        DataSourceDescriptor(id=4, owner=2, size=1.0, replicas=frozenset({2, 5})), 1
    )
    for obj in (state, entry, catalog):
        rec = obj.to_dict()
        assert isinstance(rec, wire.Record) and obj.to_dict() is rec
        assert type(obj).from_dict(json.loads(rec.wire_json())) == obj
        with pytest.raises(TypeError, match="read-only"):
            rec["node"] = 9


def test_adopt_shares_a_records_source_and_rebuilds_a_plain_dict():
    state = MemberState(node=2, status="alive", incarnation=1, last_update_time=0.5)
    rec = state.to_dict()
    assert rec.source is state
    assert wire.adopt(rec, MemberState.from_dict) is state
    plain = json.loads(rec.wire_json())
    rebuilt = wire.adopt(plain, MemberState.from_dict)
    assert rebuilt == state and rebuilt is not state


def test_messages_are_read_only_values():
    msg = wire.Message(wire.PING, {"token": 1})
    with pytest.raises(dataclasses.FrozenInstanceError):
        msg.deltas = []
