"""The trace's `send` records describe the exact wire bytes sent.

Each `send` record carries the message's kind, a digest of its encoded
bytes and their count; only an OFFER also carries its body, which the A4
scheduling checks read. These tests hold every `send` record of the shipped
scenarios against the message the simulator was handed, and pin what each
shipped scenario decided apart from the bytes it sent.
"""

import glob
import hashlib
import json
import os
from collections import Counter
from itertools import islice

import pytest

from swarmsim import scenario as scen, wire
from swarmsim.sim import Simulator, TraceLog

from conftest import bench_workloads

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
            assert rec["body"] == msg.body
        else:
            assert set(rec) == SEND_KEYS, f"{msg.kind} send record keeps {set(rec) - SEND_KEYS}"
    # One encode per send, and the record's sizes add up to what was encoded.
    assert counted["calls"] == len(records)
    assert sum(rec["bytes"] for rec in records) == counted["bytes"]
    # Every shipped scenario places tasks remotely, so both cases are met.
    assert offers > 0


# sha256 of `write_trace_jsonl` output per shipped scenario at its default
# seed, with `digest`, `bytes` and OFFER `body` taken out of every `send`
# record: every event and decision of the run, but not the bytes it sent. A
# change to the wire schema alone leaves these unchanged; a change that
# moves any event re-pins them and says why.
PINNED_DECISION_SHA256 = {
    "data_locality": "f12fbe70a52549aca886eff7661a932e438afe9cb560ab7ae113793e29ad53ef",
    "heavy_churn": "24cc55a04167569fbd508e6d75239400f56eae248d1a9a10e43c0779f978ff69",
    "partition_heal": "80af6b43c4c656697425080b7df40272d134605cc33681a87b34402922152750",
    "steady_state": "c62e6eb326e21c67398b4d3b0de8fa7807ad94e423f2a59f3c75518f4981a413",
}

WIRE_BYTES_KEYS = ("digest", "bytes", "body")


def test_every_shipped_scenario_has_a_decision_pin():
    names = sorted(os.path.basename(p)[: -len(".yaml")] for p in SCENARIOS)
    assert sorted(PINNED_DECISION_SHA256) == names


def decision_sha256(result, tmp_path) -> str:
    """sha256 of a run's written trace with the wire bytes taken out."""
    decisions = TraceLog()
    for rec in result.trace:
        if rec["type"] == "send":
            rec = {k: v for k, v in rec.items() if k not in WIRE_BYTES_KEYS}
        decisions.append(rec)
    out = tmp_path / "decisions.jsonl"
    scen.write_trace_jsonl(decisions, out)
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("path", SCENARIOS)
def test_decisions_are_pinned_apart_from_wire_bytes(path, tmp_path):
    digest = decision_sha256(scen.run(scen.load_scenario(path)), tmp_path)
    name = os.path.basename(path)[: -len(".yaml")]
    assert digest == PINNED_DECISION_SHA256[name], f"{path}: an event or decision moved"


# The same pin on generated runs of `bench/workloads.py`, which re-declare
# Alive records far more often than the shipped scenarios: rejoins bump a
# node's incarnation, and refutations answer suspicions. At seed 5 the
# `swarm64_churn` run has 7 rejoins and 16 refutations. The `tasks16_dense`
# run with 120 tasks sends 1 FAILED and 2 QOS-WARN.
PINNED_GENERATED_DECISION_SHA256 = {
    ("swarm64_churn", 5, "n", 16): "6a9b660f7bd550945bbcef7b8f66b3029a97dc5ce8426d5ff7b7d2be3e1dc2d2",
    ("tasks16_dense", 5, "tasks", 30): "d4befb9cd178376036e472c062d700702413f3e6b00897807e2bf0847be5dc5a",
    ("tasks16_dense", 5, "tasks", 120): "1674cb47b97c02077b0ad7eed8e4e8fdc675d0d925d958c42dc880a33dd4d221",
}


@pytest.mark.parametrize("name, seed, size, value", sorted(PINNED_GENERATED_DECISION_SHA256))
def test_generated_decisions_are_pinned_apart_from_wire_bytes(name, seed, size, value, tmp_path):
    wl = bench_workloads().generate(name, seed, **{size: value})
    digest = decision_sha256(scen.run(scen.parse_scenario(wl.raw)), tmp_path)
    assert digest == PINNED_GENERATED_DECISION_SHA256[name, seed, size, value], (
        f"{name} seed {seed}: an event or decision moved"
    )


@pytest.mark.parametrize("path", SCENARIOS)
def test_message_counts_are_the_send_lines_of_the_written_trace(path, tmp_path):
    """The report's per-kind message counts, which the simulator keeps, are
    the per-kind counts of `send` lines in the trace file."""
    result = scen.run(scen.load_scenario(path))
    out = tmp_path / "trace.jsonl"
    scen.write_trace_jsonl(result.trace, out)
    with open(out) as fh:
        lines = [json.loads(line) for line in fh]
    sends = Counter(rec["kind"] for rec in lines if rec["type"] == "send")
    assert result.report.messages_by_type == dict(sends) and len(sends) > 5


def test_reading_the_trace_mid_run_leaves_it_unchanged(tmp_path):
    """Readers that stop part way through the trace at several instants of
    a run, and stay suspended to its end, change no byte of it: a read never
    moves where the next block is written."""
    sc = scen.load_scenario("scenarios/heavy_churn.yaml")
    whole = tmp_path / "whole.jsonl"
    scen.write_trace_jsonl(scen.run(sc).trace, whole)
    sim, agents, collector = scen.build(sc)
    readers, blocks = [], set()
    t = 0.0
    while t < sc.duration:  # as `scenario.run` steps
        t = min(sc.duration, t + sc.sample_period)
        sim.run_until(t)
        collector.sample(t, sim, agents)
        if int(t) % 7 == 0:
            blocks.add(len(list(sim.trace.chunks())))
            for _ in sim.trace:
                break
            reader = iter(sim.trace)
            assert len(list(islice(reader, len(sim.trace) // 2))) == len(sim.trace) // 2
            readers.append(reader)
    assert len(readers) > 3 and min(blocks) < max(blocks)  # reads across spills
    mid = tmp_path / "read_mid_run.jsonl"
    scen.write_trace_jsonl(sim.trace, mid)
    assert mid.read_bytes() == whole.read_bytes()
