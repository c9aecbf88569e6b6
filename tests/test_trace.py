"""The trace's `send` records describe the exact wire bytes sent.

Each `send` record carries the message's kind, a digest of its encoded
bytes and their count; only an OFFER also carries its body, which the A4
scheduling checks read. These tests hold every `send` record of the shipped
scenarios against the message the simulator was handed.
"""

import glob

import pytest

from swarmsim import scenario as scen, wire
from swarmsim.sim import Simulator

SCENARIOS = sorted(glob.glob("scenarios/*.yaml"))

SEND_KEYS = {"t", "type", "from", "to", "msg_id", "kind", "digest", "bytes"}


@pytest.mark.parametrize("path", SCENARIOS)
def test_send_records_carry_the_digest_and_size_of_the_sent_bytes(path, monkeypatch):
    sent = {}  # msg_id -> (from, to, message, its bytes), recorded before the send
    counted = {"bytes": 0, "calls": 0}
    send, encode = Simulator.send, wire.encode

    def recording_send(self, frm, to, msg):
        sent[self._msg_seq] = (frm, to, msg, encode(msg))
        return send(self, frm, to, msg)

    def counting_encode(msg):
        data = encode(msg)
        counted["bytes"] += len(data)
        counted["calls"] += 1
        return data

    monkeypatch.setattr(Simulator, "send", recording_send)
    monkeypatch.setattr(wire, "encode", counting_encode)
    result = scen.run(scen.load_scenario(path))
    records = [r for r in result.trace if r["type"] == "send"]
    assert [r["msg_id"] for r in records] == sorted(sent) and len(records) > 100
    offers = 0
    for rec in records:
        frm, to, msg, data = sent[rec["msg_id"]]
        assert (rec["from"], rec["to"], rec["kind"]) == (frm, to, msg.kind)
        assert rec["bytes"] == len(data)
        assert rec["digest"] == wire.digest(data)
        if msg.kind == wire.OFFER:
            offers += 1
            assert set(rec) == SEND_KEYS | {"body"}
            assert rec["body"] is msg.body
        else:
            assert set(rec) == SEND_KEYS, f"{msg.kind} send record keeps {set(rec) - SEND_KEYS}"
    # One encode per send, and the record's sizes add up to what was encoded.
    assert counted["calls"] == len(records)
    assert sum(rec["bytes"] for rec in records) == counted["bytes"]
    # Every shipped scenario places tasks remotely, so both cases are met.
    assert offers > 0
