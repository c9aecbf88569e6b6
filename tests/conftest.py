"""Shared builders for tests: quick profiles, tasks and scenarios."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from swarmsim.model import (
    MAINS,
    DynamicStatus,
    NodeProfile,
    Position,
    StaticHardwareProfile,
    TaskSpec,
)
from swarmsim.sim import Simulator


def make_profile(
    node=1,
    perf=1.0,
    memory=1024,
    bandwidth=10.0,
    drain_rate=0.0,
    utilization=0.0,
    battery=MAINS,
    position=(0.0, 0.0),
    typologies=("generic",),
):
    return NodeProfile(
        node=node,
        hw=StaticHardwareProfile(
            cpu_perf_index=perf, memory=memory, link_bandwidth=bandwidth,
            drain_rate=drain_rate,
        ),
        dyn=DynamicStatus(
            utilization=utilization,
            battery=battery,
            position=Position(*position),
        ),
        typologies=frozenset(typologies),
    )


def make_task(task_id=1, typology="generic", work=1.0, memory=64, deadline=60.0,
              origin=1, inputs=()):
    return TaskSpec(
        task_id=task_id,
        typology=typology,
        work=work,
        memory_demand=memory,
        input_data=tuple(inputs),
        deadline=deadline,
        origin_node=origin,
    )


def reference_map_hash(version_map) -> str:
    """A version map's hash from scratch: the sum mod 2^64 of 64 bits of
    blake2b of each entry dumped as compact, sorted JSON (AdHash), as 16
    hex characters."""
    total = 0
    for entry in version_map:
        doc = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        digest = hashlib.blake2b(doc.encode(), digest_size=8).digest()
        total += int.from_bytes(digest, "big")
    return format(total % 2**64, "016x")


def bench_workloads():
    """`bench/workloads.py`, the benchmark's scenario generators."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def deliver_twice(monkeypatch, kinds, delay: float) -> set:
    """Deliver every message of `kinds` a second time, `delay` seconds after
    the first, from here on. Returns the ids of the messages repeated, which
    fill in as the run goes."""
    deliver = Simulator._deliver
    repeated = set()

    def deliver_with_copies(self, frm, to, msg_id, msg):
        if msg.kind in kinds and msg_id not in repeated:
            repeated.add(msg_id)
            self.schedule(self.now + delay, self._deliver, frm, to, msg_id, msg)
        deliver(self, frm, to, msg_id, msg)

    monkeypatch.setattr(Simulator, "_deliver", deliver_with_copies)
    return repeated


@pytest.fixture
def profile():
    return make_profile()
