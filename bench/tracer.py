"""Span tracing of the swarmsim layers, installed from outside the program.

`Tracer.install()` replaces public functions of each module in
`src/swarmsim/` with wrappers that record a span per call: name, start, end
and parent span. Spans are kept in flat arrays in memory and written out by
`Tracer.dump()` once the run is over. While recording, each span's self
time (its duration minus the part its child spans cover) is added to its
name's total, so per-layer self times add up to the traced wall time.

A name is `<layer>.<function>`, where the layer is the module the function
lives in. Two exceptions follow what the spans are used for:
`NodeAgent.on_message` and `NodeAgent.on_timer` are named after the wire
kind and the timer kind they handle (`agent.msg.DIGEST`,
`agent.timer.round`), and `RegistryEntry.to_dict` counts as `model`, with
the other profile serialisers. Work in a helper that is not wrapped is
charged to the nearest wrapped caller.

Each name is patched where its callers look it up: `agent.py` imports
`compute_score`, `data_centroid` and `select_top_k` by name, so those are
patched in the agent module as well as in `scheduler`. Methods are patched
on their classes, and `MetricsCollector.on_record` is bound into
`sim.listeners` by `build`, so the tracer must be installed before `build`.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

from swarmsim import (
    agent,
    cognition,
    dataplane,
    executor,
    membership,
    metrics,
    model,
    registry,
    scenario,
    scheduler,
    sim,
    wire,
)

# (layer, owner, attribute names). Owner is a module or a class.
TARGETS = [
    ("scenario", scenario, ["load_scenario", "parse_scenario", "build", "run", "write_trace_jsonl"]),
    ("sim", sim.Simulator, ["run_until", "schedule", "set_timer", "send", "record", "discover"]),
    ("wire", wire, ["encode", "decode", "digest"]),
    ("membership", membership.SwarmView, ["apply", "member_set_digest", "alive_nodes"]),
    ("membership", membership.MemberState, ["to_dict", "from_dict"]),
    ("membership", membership, ["split_condition"]),
    ("registry", registry.Registry, ["local_update", "merge", "digest", "diff", "query", "evict", "content_hash"]),
    ("registry", registry.RegistryEntry, ["from_dict"]),
    ("model", registry.RegistryEntry, ["to_dict"]),
    ("model", model.NodeProfile, ["to_dict", "from_dict", "with_dyn"]),
    ("model", model.TaskSpec, ["to_dict", "from_dict"]),
    ("dataplane", dataplane.Catalog, ["announce", "merge", "resolve"]),
    ("dataplane", dataplane.CatalogRecord, ["to_dict", "from_dict"]),
    ("cognition", cognition, ["predict_completion", "predict_availability", "churn_survival", "forecast_load"]),
    ("scheduler", scheduler, ["compute_score", "rank_candidates", "select_top_k", "data_centroid"]),
    ("executor", executor.ExecutorEngine, [
        "integrate", "utilization", "active_count", "memory_in_use", "running_runs",
        "finished_runs", "next_finish", "projected_finish",
    ]),
    ("executor", executor.TaskRun, ["transition"]),
    ("agent", agent.NodeAgent, ["on_start", "on_leave", "on_crash", "on_move", "on_battery_tick"]),
    ("metrics", metrics.MetricsCollector, ["on_record", "sample", "report"]),
    ("metrics", metrics.MetricsReport, ["write_csv"]),
]

# Names `agent.py` imported with `from .scheduler import ...`.
AGENT_IMPORTS = ["compute_score", "data_centroid", "select_top_k"]

# Spans whose boolean result is tallied, for applied/changed ratios.
TALLY_TRUE = {"registry.merge", "membership.apply", "dataplane.merge"}

SPAN_FORMAT = (
    "spans.bin holds four arrays back to back, each `count` items long: "
    "start and end (float64 seconds, perf_counter), name index (int32, into "
    "`names`) and parent span index (int32, -1 at top level). Spans are in "
    "the order they were entered."
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name_of = array("i")
        self.parent = array("i")
        self._stack: list = []  # [span index, child time]
        self.self_s: dict = {}
        self.total_s: dict = {}
        self.calls: dict = {}
        self.true_n: dict = {}
        self.candidates = 0  # summed over select_top_k calls
        self._saved: list = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, name: str) -> list:
        idx = len(self.start)
        stack = self._stack
        self.name_of.append(self._name_id(name))
        self.parent.append(stack[-1][0] if stack else -1)
        self.end.append(0.0)
        frame = [idx, 0.0]
        stack.append(frame)
        self.start.append(perf_counter())
        return frame

    def _exit(self, name: str, frame: list) -> None:
        t1 = perf_counter()
        idx = frame[0]
        self.end[idx] = t1
        self._stack.pop()
        dur = t1 - self.start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.calls[name] = self.calls.get(name, 0) + 1

    def _wrap(self, name: str, fn):
        tracer = self
        tally = name in TALLY_TRUE

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)
            if tally and out:
                tracer.true_n[name] = tracer.true_n.get(name, 0) + 1
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_select(self, fn):
        tracer = self

        def traced(scored, k):
            frame = tracer._enter("scheduler.select_top_k")
            try:
                return fn(scored, k)
            finally:
                tracer._exit("scheduler.select_top_k", frame)
                tracer.candidates += len(scored)

        return traced

    def _wrap_dispatch(self, prefix: str, fn):
        """on_message / on_timer: one span name per message or timer kind."""
        tracer = self
        names = {}

        def traced(agent_self, arg0, arg1):
            kind = arg1.kind if prefix == "agent.msg." else arg0
            name = names.get(kind)
            if name is None:
                name = names[kind] = prefix + kind
            frame = tracer._enter(name)
            try:
                return fn(agent_self, arg0, arg1)
            finally:
                tracer._exit(name, frame)

        return traced

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        # Read through __dict__ so classmethods are saved as descriptors.
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for layer, owner, attrs in TARGETS:
            for attr in attrs:
                raw = owner.__dict__[attr]
                name = f"{layer}.{attr}"
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                elif name == "scheduler.select_top_k":
                    new = self._wrap_select(raw)
                else:
                    new = self._wrap(name, raw)
                self._patch(owner, attr, new)
        for attr in AGENT_IMPORTS:
            self._patch(agent, attr, getattr(scheduler, attr))
        self._patch(agent.NodeAgent, "on_message",
                    self._wrap_dispatch("agent.msg.", agent.NodeAgent.on_message))
        self._patch(agent.NodeAgent, "on_timer",
                    self._wrap_dispatch("agent.timer.", agent.NodeAgent.on_timer))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def reset_totals(self) -> None:
        """Drop per-name totals (spans stay), e.g. after an untimed prologue."""
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.true_n.clear()
        self.candidates = 0

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> dict:
        out: dict = {}
        for name, secs in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + secs
        return out

    def dump(self, directory) -> None:
        """Write the spans as `spans.bin` plus a `spans.json` header."""
        with open(f"{directory}/spans.bin", "wb") as fh:
            for arr in (self.start, self.end, self.name_of, self.parent):
                arr.tofile(fh)
        header = {"format": SPAN_FORMAT, "count": len(self.start), "names": self.names}
        with open(f"{directory}/spans.json", "w") as fh:
            json.dump(header, fh, indent=1)
