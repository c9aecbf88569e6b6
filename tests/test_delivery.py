"""Handing the receiver the sent message is equivalent to decoding its bytes.

The simulator delivers the `wire.Message` object that was sent, not
`wire.decode` of its encoded bytes, and a receiver that merges a gossiped
record installs the sender's frozen object (`wire.adopt`), not a `from_dict`
rebuild. Both are sound only while every message is a value of JSON-native
types that nobody writes to, and every gossiped record is exactly what
`from_dict` would rebuild. These tests check both on every delivery and every
adoption of the shipped scenarios and of three small generated runs of
`bench/workloads.py`: two that churn and rejoin far more than the shipped
ones, and an idle swarm, the converged steady state, whose gossip is almost
all Alive records at incarnation 0 and unchanged registry entries.
"""

import dataclasses
import glob

import pytest

from swarmsim import scenario as scen, wire
from swarmsim.registry import RegistryEntry
from swarmsim.sim import Simulator

from conftest import bench_workloads

SCENARIOS = sorted(glob.glob("scenarios/*.yaml"))
# Generated runs small enough for a per-message check: (workload, seed,
# size, value), as the generated pins of `test_trace` name them.
GENERATED = [
    ("swarm64_churn", 1, "n", 16),
    ("tasks16_dense", 1, "tasks", 40),
    ("swarm64_idle", 1, "n", 16),
]
# Runs in which no node republishes its profile after joining, so every
# registry entry travels once, in full, to a peer that lacks it.
UNCHANGED_REGISTRY = {("swarm64_idle", 1, "n", 16)}


def load(case):
    """A shipped scenario by path, or a generated run by its `GENERATED` tuple."""
    if isinstance(case, str):
        return scen.load_scenario(case)
    name, seed, size, value = case
    return scen.parse_scenario(bench_workloads().generate(name, seed, **{size: value}).raw)


def case_id(case) -> str:
    return case if isinstance(case, str) else "-".join(map(str, case))

# The containers a delivered value may use where `decode` gives dict or list.
LISTS = (list, wire.ListRecord, wire.RecordList)


def assert_decoded_form(value, decoded, path="msg"):
    """`value` equals `decoded` with the same kind of container at every
    level (records count as lists), string keys, and scalars of
    exactly the decoded type (so no tuple, int key or int-for-float)."""
    if type(decoded) is dict:
        assert type(value) is dict, f"{path}: {type(value).__name__}, not a dict"
        assert all(type(k) is str for k in value), f"{path}: non-string key"
        assert sorted(value) == sorted(decoded), path
        for key in decoded:
            assert_decoded_form(value[key], decoded[key], f"{path}.{key}")
    elif type(decoded) is list:
        assert type(value) in LISTS, f"{path}: {type(value).__name__}, not a list"
        assert len(value) == len(decoded), path
        for i, (v, d) in enumerate(zip(value, decoded)):
            assert_decoded_form(v, d, f"{path}[{i}]")
    else:
        assert type(value) is type(decoded), (
            f"{path}: {type(value).__name__} where decode gives {type(decoded).__name__}"
        )
        assert value == decoded or (value != value and decoded != decoded), path


def assert_same_fields(obj, rebuilt, path):
    """Field-by-field equality of two frozen records, with exact types."""
    assert type(obj) is type(rebuilt), f"{path}: {type(obj)} vs {type(rebuilt)}"
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            assert_same_fields(
                getattr(obj, f.name), getattr(rebuilt, f.name), f"{path}.{f.name}"
            )
    elif isinstance(obj, (tuple, list)):
        assert len(obj) == len(rebuilt), path
        for i, (a, b) in enumerate(zip(obj, rebuilt)):
            assert_same_fields(a, b, f"{path}[{i}]")
    elif isinstance(obj, frozenset):
        assert obj == rebuilt, path

        def order(s):
            return sorted(s, key=lambda x: (type(x).__name__, x))

        assert_same_fields(tuple(order(obj)), tuple(order(rebuilt)), path)
    else:
        assert obj == rebuilt, path


@pytest.mark.parametrize("case", SCENARIOS + GENERATED, ids=case_id)
def test_delivered_messages_and_adopted_records_match_decoding(case, monkeypatch):
    encoded = {}  # msg_id -> bytes as sent
    counts = {"deliveries": 0, "adopted": 0, "shared": 0, "dynamic": 0, "bare": 0}
    send, deliver, adopt = Simulator.send, Simulator._deliver, wire.adopt

    def recording_send(self, frm, to, msg):
        assert type(msg) is wire.Message
        encoded[self._msg_seq] = wire.encode(msg)
        return send(self, frm, to, msg)

    def checked_deliver(self, frm, to, msg_id, msg):
        data = encoded.pop(msg_id)
        reference = wire.decode(data)
        assert msg.kind == reference.kind
        assert_decoded_form(msg.body, reference.body, f"{msg.kind}.body")
        assert_decoded_form(msg.deltas, reference.deltas, f"{msg.kind}.deltas")
        deliver(self, frm, to, msg_id, msg)
        # Nobody wrote to the message while handling it.
        assert wire.encode(msg) == data, f"{msg.kind} changed by its receiver"
        assert_decoded_form(msg.body, reference.body, f"{msg.kind}.body")
        assert_decoded_form(msg.deltas, reference.deltas, f"{msg.kind}.deltas")
        counts["deliveries"] += 1
        # Member entries of an Alive member at incarnation 0: [node].
        view = msg.body.get("view")
        entries = [*msg.deltas, *(view if type(view) is wire.RecordList else ())]
        counts["bare"] += sum(len(entry) == 1 for entry in entries)

    def checked_adopt(record, from_dict):
        obj = adopt(record, from_dict)
        rebuilt = from_dict(record)
        assert_same_fields(obj, rebuilt, type(obj).__name__)
        counts["adopted"] += 1
        counts["shared"] += obj is record.source
        # A registry entry's dynamic form, completed from the receiver's
        # own kept static part by the `from_dict` it was handed.
        counts["dynamic"] += type(obj) is RegistryEntry and record is obj.dynamic_record
        return obj

    monkeypatch.setattr(Simulator, "send", recording_send)
    monkeypatch.setattr(Simulator, "_deliver", checked_deliver)
    monkeypatch.setattr(wire, "adopt", checked_adopt)
    result = scen.run(load(case))
    assert result.report.balance_holds()
    assert counts["deliveries"] > 100
    # Every merged record came from a peer's message and is the peer's object.
    assert counts["adopted"] > 0 and counts["shared"] == counts["adopted"]
    # Every run in which profiles change gossips registry entries to peers
    # that hold their node's; a run in which none changes sends none.
    assert (counts["dynamic"] > 0) == (case not in UNCHANGED_REGISTRY)
    # Every run gossips Alive members at incarnation 0, each as [node].
    assert counts["bare"] > 0


def test_decoded_form_check_rejects_what_decoding_would_change():
    """The check above is not vacuous: a tuple or an int key fails it."""
    for body in ({"token": (1, 2)}, {"token": {1: "a"}}):
        decoded = wire.decode(wire.encode(wire.Message(wire.PING, body)))
        with pytest.raises(AssertionError):
            assert_decoded_form(body, decoded.body)
