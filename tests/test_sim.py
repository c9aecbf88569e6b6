import math
import random
from itertools import islice

import pytest
from hypothesis import example, given, strategies as st

from swarmsim import sim as simlib
from swarmsim import wire
from swarmsim.model import Position, distance
from swarmsim.sim import NetModel, Simulator, TraceLog, battery_step, substream


class Recorder:
    """Minimal agent that logs delivered messages and fired timers."""

    def __init__(self, sim, node):
        self.sim = sim
        self.node = node
        self.log = []

    def on_start(self):
        self.log.append(("start", self.sim.now))

    def on_leave(self):
        pass

    def on_crash(self):
        pass

    def on_message(self, frm, msg):
        self.log.append(("msg", frm, msg.kind, self.sim.now))

    def on_timer(self, kind, data):
        self.log.append(("timer", kind, self.sim.now))


def two_node_sim(seed=1, **net):
    s = Simulator(seed=seed, net=NetModel(**net))
    agents = {}
    for node, pos in ((1, Position(0, 0)), (2, Position(100, 0))):
        s.add_node(node, pos)
        agents[node] = Recorder(s, node)
        s.register_agent(node, agents[node])
        s.schedule(0.0, s.join, node)
    return s, agents


def test_empty_queue_empty_trace():
    s = Simulator(seed=0, net=NetModel())
    s.run_until(10.0)
    assert len(s.trace) == 0
    assert s.now == 10.0


def test_events_fire_in_time_then_insertion_order():
    s, agents = two_node_sim()
    s.set_timer(1, 5.0, "b")
    s.set_timer(1, 5.0, "c")  # same instant: insertion order decides
    s.set_timer(1, 2.0, "a")
    s.run_until(10.0)
    timers = [e for e in agents[1].log if e[0] == "timer"]
    assert [t[1] for t in timers] == ["a", "b", "c"]


def test_events_of_every_kind_at_one_instant_fire_in_schedule_order():
    s = Simulator(seed=0, net=NetModel(base_latency=1.0, latency_per_meter=0.0))
    agents = {}
    for node in (1, 2, 3):
        s.add_node(node, Position(0, 0))
        agents[node] = Recorder(s, node)
        s.register_agent(node, agents[node])
    s.schedule(0.0, s.join, 1)
    s.schedule(0.0, s.join, 2)
    s.run_until(0.0)
    s.set_timer(2, 1.0, "before")
    s.send(1, 2, wire.Message(wire.PING, {}))  # delivered at t=1.0
    s.schedule(1.0, s.join, 3)
    s.set_timer(2, 1.0, "after")
    mark = len(s.trace)
    agents[2].on_timer = lambda kind, data: s.record({"t": s.now, "type": kind})
    s.run_until(1.0)
    order = [rec["type"] for rec in islice(s.trace, mark, None)]
    assert order == ["before", "deliver", "join", "after"]


def test_latency_is_base_plus_distance_term():
    s, agents = two_node_sim(base_latency=0.01, latency_per_meter=0.0001)
    s.run_until(0.0)
    s.send(1, 2, wire.Message(wire.PING, {}))
    s.run_until(1.0)
    msg = [e for e in agents[2].log if e[0] == "msg"][0]
    assert msg[3] == pytest.approx(0.01 + 0.0001 * 100)


def test_out_of_range_drop():
    s, _ = two_node_sim(radio_range=50.0)
    s.run_until(0.0)
    assert s.send(1, 2, wire.Message(wire.PING, {})) == "dropped"
    drops = [r for r in s.trace if r["type"] == "drop"]
    assert drops and drops[0]["reason"] == "range"


def test_delivery_to_down_node_dropped():
    s, _ = two_node_sim()
    s.run_until(0.0)
    s.send(1, 2, wire.Message(wire.PING, {}))
    s.schedule(s.now, s.crash, 2)
    s.run_until(1.0)
    drops = [r for r in s.trace if r["type"] == "drop"]
    assert [d["reason"] for d in drops] == ["down"]


def test_partition_interval_union_oracle():
    """Three overlapping windows block a pair during the union of intervals."""
    windows = [(1.0, 4.0), (3.0, 6.0), (10.0, 12.0)]
    s, _ = two_node_sim()
    for start, end in windows:
        s.inject_partition([1], [2], start, end)

    def union_blocked(t):
        return any(a <= t < b for a, b in windows)

    for i in range(0, 140):
        t = i * 0.1
        s.run_until(t)
        assert (2 in s.unreachable(1)) == union_blocked(t), f"t={t}"


def test_partition_groups_must_be_disjoint():
    s, _ = two_node_sim()
    with pytest.raises(ValueError):
        s.inject_partition([1], [1, 2], 0.0, 1.0)
    with pytest.raises(ValueError):
        s.inject_partition([1], [2], 5.0, 5.0)


def drop_reasons(s):
    """The reasons of the drops in `s`'s trace, which then starts anew."""
    reasons = [rec["reason"] for rec in s.trace if rec["type"] == "drop"]
    s.trace = TraceLog()
    return reasons


def test_partition_window_only_separates_across_groups():
    """Groups {1, 2} and {3}: node 4 is in neither, so it reaches all."""
    s = Simulator(seed=0, net=NetModel())
    for node in range(1, 5):
        s.add_node(node, Position(node, 0))
        s.register_agent(node, Recorder(s, node))
        s.schedule(0.0, s.join, node)
    s.inject_partition([1, 2], [3], 0.0, 10.0)
    s.run_until(5.0)
    drop_reasons(s)
    assert [sorted(s.unreachable(n)) for n in range(1, 5)] == [[3], [3], [1, 2], []]
    sent = {pair: s.send(*pair, wire.Message(wire.PING, {}))
            for pair in ((1, 3), (3, 2), (1, 2), (4, 3), (3, 4), (4, 1))}
    assert [pair for pair, outcome in sent.items() if outcome == "dropped"] == [(1, 3), (3, 2)]
    assert drop_reasons(s) == ["partition", "partition"]
    s.run_until(10.0)  # end exclusive
    assert [s.unreachable(n) for n in range(1, 5)] == [set()] * 4
    assert s.send(1, 3, wire.Message(wire.PING, {})) == "scheduled"
    assert s.discover(3) == [1, 2, 4]


def test_a_node_added_after_a_read_is_heard_where_in_range():
    """Sets kept before an `add_node` are dropped: the new node is heard
    where it is in range, and only there."""
    s = Simulator(seed=0, net=NetModel(radio_range=50.0))

    def add_and_join(node, x):
        s.add_node(node, Position(x, 0))
        s.register_agent(node, Recorder(s, node))
        s.join(node)

    add_and_join(1, 0.0)
    add_and_join(2, 10.0)
    assert s.discover(1) == [2]
    add_and_join(3, 20.0)
    add_and_join(4, 1000.0)
    assert s.discover(1) == [2, 3]
    assert s.discover(3) == [1, 2]
    assert s.discover(4) == []
    drop_reasons(s)
    assert s.send(1, 3, wire.Message(wire.PING, {})) == "scheduled"
    assert s.send(1, 4, wire.Message(wire.PING, {})) == "dropped"
    assert drop_reasons(s) == ["range"]


@pytest.mark.parametrize("action", ["move", "join", "leave", "crash"])
def test_an_unknown_node_raises_and_changes_nothing(action):
    s, _ = two_node_sim()
    s.run_until(0.0)
    assert s.discover(1) == [2]  # a kept set to spoil
    nodes, trace = dict(s.nodes), b"".join(s.trace.chunks())
    args = (Position(5.0, 0.0),) if action == "move" else ()
    with pytest.raises(ValueError, match="unknown node 9"):
        getattr(s, action)(9, *args)
    assert s.nodes == nodes and b"".join(s.trace.chunks()) == trace
    assert [n for n in (1, 2, 9) if s.node_up(n)] == [1, 2]
    assert s.discover(1) == [2] and s.discover(2) == [1]


def test_discover_respects_range_graph():
    """Chain A(0) - B(60) - C(120) with 80 m radios: A sees only B."""
    s = Simulator(seed=0, net=NetModel(radio_range=80.0))
    for node, x in ((1, 0.0), (2, 60.0), (3, 120.0)):
        s.add_node(node, Position(x, 0))
        s.register_agent(node, Recorder(s, node))
        s.schedule(0.0, s.join, node)
    s.run_until(0.0)
    assert s.discover(1) == [2]
    assert s.discover(2) == [1, 3]
    assert s.discover(3) == [2]


def test_discover_isolated_node_empty():
    s = Simulator(seed=0, net=NetModel(radio_range=10.0))
    s.add_node(1, Position(0, 0))
    s.register_agent(1, Recorder(s, 1))
    s.schedule(0.0, s.join, 1)
    s.add_node(2, Position(1000, 0))
    s.register_agent(2, Recorder(s, 2))
    s.schedule(0.0, s.join, 2)
    s.run_until(0.0)
    assert s.discover(1) == []


def test_loss_draws_deterministic_per_seed():
    def outcomes(seed):
        s, _ = two_node_sim(seed=seed, loss_prob=0.4)
        s.run_until(0.0)
        return [s.send(1, 2, wire.Message(wire.PING, {})) for _ in range(50)]

    assert outcomes(3) == outcomes(3)
    assert outcomes(3) != outcomes(4)  # vanishingly unlikely to collide


def test_substream_independent_and_reproducible():
    a1 = [substream(9, "x").random() for _ in range(3)]
    a2 = [substream(9, "x").random() for _ in range(3)]
    b = [substream(9, "y").random() for _ in range(3)]
    assert a1 == a2
    assert a1 != b


def test_battery_step_floors_at_zero():
    assert battery_step(0.5, 0.1, 2.0) == pytest.approx(0.3)
    assert battery_step(0.1, 0.1, 5.0) == 0.0


def test_cannot_schedule_into_past():
    s, _ = two_node_sim()
    s.run_until(5.0)
    with pytest.raises(ValueError):
        s.schedule(1.0, s.fire_timer, 1, "x", {})


def test_nan_time_is_refused_and_an_infinite_one_never_fires():
    # A NaN event would sit at the top of the heap and stop every run_until
    # at once, since `nan <= t_end` is False.
    s, agents = two_node_sim()
    with pytest.raises(ValueError):
        s.schedule(math.nan, s.fire_timer, 1, "x", {})
    s.set_timer(1, math.inf, "never")  # a partition may end at .inf
    s.set_timer(1, 2.0, "a")
    s.run_until(5.0)
    assert [e[1] for e in agents[1].log if e[0] == "timer"] == ["a"]


def test_handler_errors_carry_the_event():
    class Exploder(Recorder):
        def on_timer(self, kind, data):
            raise RuntimeError("boom")

    s = Simulator(seed=0, net=NetModel())
    s.add_node(1, Position(0, 0))
    s.register_agent(1, Exploder(s, 1))
    s.schedule(0.0, s.join, 1)
    s.set_timer(1, 1.0, "x")
    with pytest.raises(simlib.SimFault) as exc:
        s.run_until(2.0)
    assert exc.value.event == (1.0, "fire_timer")
    assert str(exc.value).startswith("handler fault at t=1.0 on fire_timer: ")
    assert isinstance(exc.value.cause, RuntimeError)


# -- cached reachability against a from-scratch scan --------------------------

EDGES = [0.5, 1.0, 2.0, 3.0]  # every start and end a drawn window can have


class Mover(Recorder):
    def on_move(self, pos):
        pass


def scan_reason(s, a, b):
    """Why a send from `a` to `b` is dropped before any loss draw, read from
    the positions and the windows alone: "range", "partition" or None."""
    if distance(s.position_of(a), s.position_of(b)) > s.net.radio_range:
        return "range"
    for w in s.partitions:
        if w.start <= s.now < w.end and (
            (a in w.group_a and b in w.group_b) or (a in w.group_b and b in w.group_a)
        ):
            return "partition"
    return None


# Two groups each; `group_b` loses what it shares with `group_a`, so a node
# may be in neither.
windows = st.lists(
    st.tuples(
        st.frozensets(st.integers(1, 5), max_size=4),
        st.frozensets(st.integers(1, 5), max_size=4),
        st.sampled_from(EDGES[:-1]),
        st.sampled_from(EDGES[1:] + [math.inf]),
    ).filter(lambda w: w[2] < w[3]),
    max_size=3,
)
reach_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["join", "crash", "leave"]), st.integers(1, 5)),
        st.tuples(
            st.just("move"), st.integers(1, 5),
            st.sampled_from([0.0, 30.0, 60.0, 100.0]), st.sampled_from([0.0, 40.0]),
        ),
        # Forwards and backwards, onto every partition edge and between.
        st.tuples(st.just("clock"), st.sampled_from([0.0, 0.75, 1.5, 2.5, 4.0] + EDGES)),
    ),
    max_size=20,
)


@given(windows, reach_steps)
# A move inside an active window: the mover stays in range but cut off.
@example([(frozenset({1}), frozenset({2, 3, 4, 5}), 0.5, 2.0)],
         [("clock", 1.0), ("move", 2, 30.0, 0.0)])
def test_cached_reachability_matches_a_scan(partitions, steps):
    """After any sequence of lifecycle events, moves and clock changes,
    `discover` and the drop reason of a send are what a scan of the
    positions, the windows and the up nodes gives."""
    s = Simulator(seed=0, net=NetModel(radio_range=50.0))
    for node in range(1, 6):
        s.add_node(node, Position(node * 20.0, 0.0))
        s.register_agent(node, Mover(s, node))
    for group_a, group_b, start, end in partitions:
        s.inject_partition(group_a, group_b - group_a, start, end)
    for step, *args in steps:
        if step == "move":
            s.move(args[0], Position(args[1], args[2]))
        elif step == "clock":
            s.now = args[0]
        else:
            getattr(s, step)(*args)
        for a in s.nodes:
            assert s.discover(a) == sorted(
                b for b in s.nodes
                if b != a and s.node_up(b) and scan_reason(s, a, b) is None
            )
            for b in s.nodes:
                drop_reasons(s)
                s.send(a, b, wire.Message(wire.PING, {}))
                assert drop_reasons(s) == [r for r in [scan_reason(s, a, b)] if r is not None]


# -- transport trace lines from templates ------------------------------------

ints = st.integers()
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 1e-300, 0.1, 1.0, 2.0**53, 1e16, 1e300, -0.0]),
)


@given(
    st.one_of(ints, floats), ints, ints, ints, ints,
    st.sampled_from(sorted(wire.ALL_KINDS)),
    st.integers(0, 2**32 - 1).map(lambda crc: format(crc, "08x")),
    st.sampled_from(["range", "partition", "loss", "down"]),
)
def test_transport_templates_write_the_encoders_line(
    t, frm, to, msg_id, size, kind, digest, reason
):
    send = {"t": t, "type": "send", "from": frm, "to": to, "msg_id": msg_id,
            "kind": kind, "digest": digest, "bytes": size}
    deliver = {"t": t, "type": "deliver", "from": frm, "to": to, "msg_id": msg_id, "kind": kind}
    drop = {"t": t, "type": "drop", "msg_id": msg_id, "reason": reason}
    log = TraceLog()
    for rec, line in (
        (send, simlib.SEND_LINE % (size, digest, frm, kind, msg_id, t, to)),
        (deliver, simlib.DELIVER_LINE % (frm, kind, msg_id, t, to)),
        (drop, simlib.DROP_LINE % (msg_id, reason, t)),
    ):
        log.append(rec)
        log.line(line)
    lines = b"".join(log.chunks()).splitlines()
    assert lines[1::2] == lines[0::2]

