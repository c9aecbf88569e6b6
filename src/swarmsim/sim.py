"""Deterministic discrete-event simulation of the mesh network.

Single-threaded core: events are processed strictly in (time, seq) order and
agents are written as pure event handlers, so two runs with the same seed and
scenario produce identical traces. Virtual time only; nothing here reads a
wall clock.

An event is a `(time, seq, action, args)` tuple on a heap, as in the
stdlib `sched`: `schedule(time, action, *args)` queues one, and `run_until`
calls `action(*args)` at its time. `seq` counts schedules, so events at one
instant fire in the order they were scheduled. The actions are `Simulator`
methods: `join`, `leave`, `crash`, `move`, a partition edge, `fire_timer`
(to the agent's `on_timer`) and `_deliver` (to its `on_message`). Each looks
the agent up when it fires. An action that raises becomes a `SimFault`
naming the time and the action.

Message transport is a disk model: a send is dropped when the receiver is out
of radio range, an active partition window separates the pair, or the
per-sender loss draw fires. Otherwise delivery happens after an affine
distance latency.

Reachability is kept, not scanned per call. Per node the simulator keeps
the set of nodes it cannot reach now: out of radio range, or across an
active partition window; up or down does not count in it. Where every node
is in range of every other and no window is active, every set is empty. A
set is filled lazily on its first read and kept until the clock leaves the
span between two partition edges or a node is added. Reach is symmetric, so
a move rebuilds the mover's set and puts the mover in, or takes it out of,
each other kept set by whether that node is in the mover's. Liveness is the
set of up nodes: `discover` is that set less the node's unreachable set and
itself, sorted, and `send` drops a message to an unreachable node, naming
"range" when it is out of range and "partition" when it is not. The span is
checked against the clock on every read, not moved by the edge events,
since an event at an edge's instant can run before that edge's own event.

Each send is encoded once (`wire.encode`) for the byte count and digest the
trace records; the receiver is handed the sent `wire.Message` itself, not a
decode of those bytes. A message is a value once sent: neither the sender
nor any receiver writes to it, and the records in it are shared across
agents (see `wire`). A `send` line keeps the body only for OFFER, whose
task and attempt the trace-level scheduling checks read; any other body is
known by its digest and byte size alone.

The trace (`TraceLog`) is held as JSONL bytes, not as record objects: each
record is encoded to its trace line as it is recorded, and full blocks are
spilled to an unlinked temporary file. A record reads back as its JSON
decodes, so a value JSON lacks (a frozenset, say) reads back as its `str`, a
tuple as a list and an integer mapping key as a string. `send` and
`_deliver` format the transport lines (`send` without a body, `deliver` and
`drop`: most of a trace) from fixed positional templates, byte for byte as
the encoder would, and hand them to the trace alone: listeners hear only
the other records (`record`), and `sent` counts the sends per kind.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import random
import tempfile
import weakref
from bisect import bisect_right, insort
from dataclasses import dataclass

from . import wire
from .model import NodeId, Position, distance


@dataclass(frozen=True)
class NetModel:
    base_latency: float = 0.01  # seconds
    latency_per_meter: float = 0.0001  # seconds per meter
    loss_prob: float = 0.0
    radio_range: float = 1.0e9  # meters

    def __post_init__(self):
        # A NaN or infinite latency delivers nothing, and nothing is in
        # range of a NaN radio range; an infinite range is no limit.
        for name in ("base_latency", "latency_per_meter"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not self.radio_range >= 0:
            raise ValueError(f"radio_range must be >= 0, got {self.radio_range!r}")
        if not (0.0 <= self.loss_prob <= 1.0):
            raise ValueError("loss_prob must be in [0,1]")

    def latency(self, dist: float) -> float:
        return self.base_latency + self.latency_per_meter * dist


def substream(seed: int, label: str) -> random.Random:
    """Independent, reproducible RNG stream for one purpose label.

    Python's Mersenne Twister seeded from a SHA-256 hash of (seed, label), so
    the draw sequence is identical across runs and platforms.
    """
    h = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


# The trace lines of the transport records, as `TraceLog`'s encoder writes
# them (sorted keys, ", " and ": "), filled positionally in key order. A
# node id, a message id, a byte count and the clock are ints or finite
# floats, whose `repr` is their JSON; a kind, a digest and a drop reason are
# ASCII with nothing to escape.
SEND_LINE = (
    '{"bytes": %r, "digest": "%s", "from": %r, "kind": "%s", '
    '"msg_id": %r, "t": %r, "to": %r, "type": "send"}\n'
)  # bytes, digest, from, kind, msg_id, t, to
DELIVER_LINE = (
    '{"from": %r, "kind": "%s", "msg_id": %r, "t": %r, "to": %r, "type": "deliver"}\n'
)  # from, kind, msg_id, t, to
DROP_LINE = '{"msg_id": %r, "reason": "%s", "t": %r, "type": "drop"}\n'  # msg_id, reason, t

# A trace block is spilled to the file once its open bytes reach this size.
TRACE_BLOCK_BYTES = 1 << 16


class TraceLog:
    """The run's trace records as JSONL bytes, spilled to a file in blocks.

    `append` encodes a record to its line at once, so no record object
    outlives the call; `line` adds a line already formatted. A full block
    is appended to an unlinked temporary file, opened at the first full
    block and closed with the log. `chunks` yields the JSONL bytes block by
    block, read back with `os.pread`, so a reader never moves the write
    position; `write_trace_jsonl` copies them to the file. Iterating yields
    one dict per line.
    """

    def __init__(self):
        self._dumps = wire.encode_fn(json.JSONEncoder(sort_keys=True, default=str))
        self._file = None  # the spilled blocks, back to back
        self._sizes: list = []  # bytes of each spilled block, in order
        self._open = bytearray()
        self._count = 0

    def append(self, rec: dict) -> None:
        """Add `rec`'s line, as the encoder writes it."""
        self.line(self._dumps(rec) + "\n")

    def line(self, text: str) -> None:
        """Add one ASCII trace line, `text`, which ends in its newline."""
        block = self._open
        block += text.encode()
        self._count += 1
        if len(block) >= TRACE_BLOCK_BYTES:
            if self._file is None:
                self._file = tempfile.TemporaryFile()
                weakref.finalize(self, self._file.close)
            self._file.write(block)
            self._file.flush()
            self._sizes.append(len(block))
            block.clear()

    def __len__(self) -> int:
        return self._count

    def chunks(self):
        """The JSONL bytes, one block at a time, in record order."""
        offset = 0
        for size in self._sizes:
            yield os.pread(self._file.fileno(), size, offset)
            offset += size
        yield bytes(self._open)

    def __iter__(self):
        for chunk in self.chunks():
            # Trace lines are ASCII and hold no raw newline, so a block's
            # lines joined by commas are one JSON array.
            yield from json.loads(b"[" + chunk[:-1].replace(b"\n", b",") + b"]")


@dataclass(frozen=True)
class PartitionWindow:
    group_a: frozenset
    group_b: frozenset
    start: float
    end: float


class SimFault(Exception):
    """An event's action raised; `event` is its (time, action name)."""

    def __init__(self, time: float, action, cause: BaseException):
        name = action.__name__
        super().__init__(f"handler fault at t={time} on {name}: {cause!r}")
        self.event = (time, name)
        self.cause = cause


class Simulator:
    """Event queue, transport and node lifecycle bookkeeping."""

    def __init__(self, seed: int, net: NetModel):
        self.seed = seed
        self.net = net
        self.now = 0.0
        self._queue: list = []
        self._seq = 0
        self._msg_seq = 0
        self.nodes: dict = {}  # NodeId -> Position
        self._up: set = set()  # the nodes up now
        self.agents: dict = {}  # NodeId -> agent (see agent.NodeAgent)
        self.partitions: list = []
        self._edges: list = []  # every partition's start and end, sorted
        self._unreach: dict = {}  # NodeId -> unreachable(node), for `_unreach_span`
        self._unreach_span = (math.inf, -math.inf)  # [lo, hi): no partition edge inside
        self.trace = TraceLog()
        self.listeners: list = []  # callables invoked per non-transport record
        self.sent: dict = {}  # wire kind -> messages sent
        self._loss_rngs: dict = {}

    # -- infrastructure -----------------------------------------------------

    def add_node(self, node: NodeId, position: Position) -> None:
        if node in self.nodes:
            raise ValueError(f"duplicate node {node}")
        self.nodes[node] = position
        self._unreach_span = (math.inf, -math.inf)  # the kept sets lack `node`

    def register_agent(self, node: NodeId, agent) -> None:
        self.agents[node] = agent

    def node_up(self, node: NodeId) -> bool:
        return node in self._up

    def _is_up(self, node: NodeId) -> bool:
        """`node_up`, but a node never added raises."""
        if node not in self.nodes:
            raise ValueError(f"unknown node {node}")
        return node in self._up

    def position_of(self, node: NodeId) -> Position:
        return self.nodes[node]

    def _loss_rng(self, node: NodeId) -> random.Random:
        rng = self._loss_rngs.get(node)
        if rng is None:
            rng = substream(self.seed, f"loss:{node}")
            self._loss_rngs[node] = rng
        return rng

    def record(self, rec: dict) -> None:
        """Trace `rec` and hand it to the listeners."""
        self.trace.append(rec)
        for listener in self.listeners:
            listener(rec)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, time: float, action, *args) -> None:
        """Call `action(*args)` at `time`, after every event already queued
        for that instant."""
        if not time >= self.now:  # NaN too
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue, (time, self._seq, action, args))
        self._seq += 1

    def set_timer(self, node: NodeId, delay: float, timer_kind: str, data: dict = None) -> None:
        self.schedule(self.now + delay, self.fire_timer, node, timer_kind, data or {})

    # -- partitions ---------------------------------------------------------

    def inject_partition(self, group_a, group_b, start: float, end: float) -> None:
        ga, gb = frozenset(group_a), frozenset(group_b)
        if ga & gb:
            raise ValueError("partition groups must be disjoint")
        if not start < end:
            raise ValueError("partition start must precede end")
        self.partitions.append(PartitionWindow(ga, gb, start, end))
        insort(self._edges, start)
        insort(self._edges, end)
        self._unreach_span = (math.inf, -math.inf)
        self.schedule(start, self._partition_edge, "partition_start", sorted(ga), sorted(gb))
        self.schedule(end, self._partition_edge, "partition_end", sorted(ga), sorted(gb))

    def unreachable(self, node: NodeId) -> set:
        """The nodes `node` cannot reach in one hop now, up or down: out of
        range, or across an active partition. Kept per node until `now`
        leaves the span between two partition edges or a node is added, and
        corrected per move (see `move`); read-only."""
        now = self.now
        lo, hi = self._unreach_span
        if not lo <= now < hi:
            self._unreach.clear()
            edges = self._edges
            i = bisect_right(edges, now)
            self._unreach_span = (
                edges[i - 1] if i else -math.inf, edges[i] if i < len(edges) else math.inf
            )
        cut = self._unreach.get(node)
        if cut is None:
            pos, radio_range = self.nodes[node], self.net.radio_range
            cut = self._unreach[node] = {
                other
                for other, other_pos in self.nodes.items()
                if not distance(pos, other_pos) <= radio_range  # NaN too
            }
            for w in self.partitions:
                if w.start <= now < w.end:
                    if node in w.group_a:
                        cut |= w.group_b
                    elif node in w.group_b:
                        cut |= w.group_a
        return cut

    def discover(self, node: NodeId) -> list:
        """All live nodes reachable in one hop: in range, same partition side.

        Deterministic given sim state (no loss draw); sorted by NodeId.
        """
        peers = self._up - self.unreachable(node)
        peers.discard(node)
        return sorted(peers)

    # -- transport ----------------------------------------------------------

    def send(self, frm: NodeId, to: NodeId, msg: wire.Message) -> str:
        """Returns "scheduled" or "dropped"."""
        if frm not in self.nodes or to not in self.nodes:
            raise ValueError(f"send between unknown nodes {frm}->{to}")
        encoded = wire.encode(msg)
        msg_id = self._msg_seq
        self._msg_seq = msg_id + 1
        kind = msg.kind
        self.sent[kind] = self.sent.get(kind, 0) + 1
        if kind == wire.OFFER:
            self.trace.append({
                "t": self.now, "type": "send", "from": frm, "to": to, "msg_id": msg_id,
                "kind": kind, "digest": wire.digest(encoded), "bytes": len(encoded),
                "body": msg.body,
            })
        else:
            self.trace.line(SEND_LINE % (
                len(encoded), wire.digest(encoded), frm, kind, msg_id, self.now, to
            ))
        dist = distance(self.nodes[frm], self.nodes[to])
        reason = None
        if to in self.unreachable(frm):
            reason = "partition" if dist <= self.net.radio_range else "range"
        elif self.net.loss_prob > 0 and self._loss_rng(frm).random() < self.net.loss_prob:
            reason = "loss"
        if reason is not None:
            self.trace.line(DROP_LINE % (msg_id, reason, self.now))
            return "dropped"
        delivery = self.now + self.net.latency(dist)
        self.schedule(delivery, self._deliver, frm, to, msg_id, msg)
        return "scheduled"

    # -- main loop ----------------------------------------------------------

    def run_until(self, t_end: float) -> None:
        """Process all events with time <= t_end."""
        queue = self._queue
        while queue and queue[0][0] <= t_end:
            time, _, action, args = heapq.heappop(queue)
            self.now = time
            try:
                action(*args)
            except SimFault:
                raise
            except Exception as exc:  # attach the offending event
                raise SimFault(time, action, exc) from exc
        self.now = max(self.now, t_end)

    # -- event actions: each runs at `self.now`, the time it was queued for --

    def join(self, node: NodeId) -> None:
        if self._is_up(node):
            return
        self._up.add(node)
        self.record({"t": self.now, "type": "join", "node": node})
        self.agents[node].on_start()

    def leave(self, node: NodeId) -> None:
        if not self._is_up(node):
            return
        self.record({"t": self.now, "type": "leave", "node": node})
        self.agents[node].on_leave()
        self._up.discard(node)

    def crash(self, node: NodeId) -> None:
        if not self._is_up(node):
            return
        self._up.discard(node)
        self.record({"t": self.now, "type": "crash", "node": node})
        self.agents[node].on_crash()

    def crash_node(self, node: NodeId) -> None:
        """Schedule an immediate crash (battery depletion path)."""
        self.schedule(self.now, self.crash, node)

    def move(self, node: NodeId, pos: Position) -> None:
        up = self._is_up(node)
        self.nodes[node] = pos
        # Only the mover's pairs change: rebuild its set, and put it in or
        # take it out of every other kept set, as reach is symmetric.
        self._unreach.pop(node, None)
        mine = self.unreachable(node)
        for other, others in self._unreach.items():
            if other in mine:
                others.add(node)
            else:
                others.discard(node)
        self.record({"t": self.now, "type": "move", "node": node, "x": pos.x, "y": pos.y})
        if up:
            self.agents[node].on_move(pos)

    def _partition_edge(self, edge: str, a: list, b: list) -> None:
        self.record({"t": self.now, "type": edge, "a": a, "b": b})

    def fire_timer(self, node: NodeId, kind: str, data: dict) -> None:
        # Looked up now, not when set: a handler patched on the agent's
        # class in between still runs.
        if self.node_up(node):
            self.agents[node].on_timer(kind, data)

    def _deliver(self, frm: NodeId, to: NodeId, msg_id: int, msg: wire.Message) -> None:
        if to not in self._up:
            self.trace.line(DROP_LINE % (msg_id, "down", self.now))
            return
        self.trace.line(DELIVER_LINE % (frm, msg.kind, msg_id, self.now, to))
        self.agents[to].on_message(frm, msg)


def battery_step(battery: float, drain_rate: float, dt: float) -> float:
    """Linear drain clamped at zero. MAINS handling lives with the caller."""
    return max(0.0, battery - drain_rate * dt)
