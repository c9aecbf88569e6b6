import glob
import json

from hypothesis import example, given, settings, strategies as st

from unittest import mock

from conftest import bench_workloads, reference_map_hash

from swarmsim import gossip, membership
from swarmsim import scenario as scen
from swarmsim import sim as simlib
from swarmsim.membership import (
    ALIVE,
    DEAD,
    LEFT,
    SUSPECT,
    MemberState,
    SwarmView,
    merge_views,
    split_condition,
)
from swarmsim.model import Position


def ms(node=1, status=ALIVE, inc=0, t=0.0):
    return MemberState(node=node, status=status, incarnation=inc, last_update_time=t)


def applied(*records):
    """The record a view holds for node 1 after applying `records` in order."""
    view = SwarmView(self_node=9)
    for r in records:
        view.apply(r)
    return view.members[1]


def test_higher_incarnation_wins_regardless_of_status():
    dead = ms(status=DEAD, inc=1)
    alive = ms(status=ALIVE, inc=2)
    assert applied(dead, alive) is alive
    assert applied(alive, dead) is alive


def test_status_precedence_at_equal_incarnation():
    # Left > Dead > Suspect > Alive
    order = [ALIVE, SUSPECT, DEAD, LEFT]
    for lo, hi in zip(order, order[1:]):
        assert applied(ms(status=lo), ms(status=hi)).status == hi
        assert applied(ms(status=hi), ms(status=lo)).status == hi


def test_equal_records_keep_earliest_timestamp():
    a, b = ms(status=DEAD, t=5.0), ms(status=DEAD, t=3.0)
    assert applied(a, b).last_update_time == 3.0
    assert applied(b, a).last_update_time == 3.0


def test_no_resurrection_without_new_incarnation():
    view = SwarmView(self_node=1)
    view.apply(ms(node=2, status=DEAD, inc=3, t=10.0))
    assert not view.apply(ms(node=2, status=ALIVE, inc=3, t=11.0))
    assert view.members[2].status == DEAD
    # refutation with a bumped incarnation does resurrect
    assert view.apply(ms(node=2, status=ALIVE, inc=4, t=12.0))
    assert view.members[2].status == ALIVE


def test_swarm_id_is_min_alive_node():
    view = SwarmView(self_node=5)
    view.apply(ms(node=5))
    view.apply(ms(node=2))
    view.apply(ms(node=1, status=DEAD))
    assert view.swarm_id == 2
    view.apply(ms(node=1, status=ALIVE, inc=1))
    assert view.swarm_id == 1


def test_swarm_id_falls_back_to_self_when_view_empty():
    assert SwarmView(self_node=9).swarm_id == 9


def test_digest_tells_tombstone_times_apart_until_merged():
    """The digest is the version map's hash, so two Suspect records that
    differ only in time differ until both views hold the earliest; a status
    change differs too. (An Alive record has no time to differ in.)"""
    a = SwarmView(self_node=1)
    b = SwarmView(self_node=2)
    a.apply(ms(node=3, status=SUSPECT, t=1.0))
    b.apply(ms(node=3, status=SUSPECT, t=9.0))
    assert a.member_set_digest() != b.member_set_digest()
    assert b.apply(a.members[3])  # the earliest time wins the merge
    assert not a.apply(b.members[3])
    assert a.member_set_digest() == b.member_set_digest()
    b.apply(ms(node=3, status=DEAD, t=9.0))
    assert a.member_set_digest() != b.member_set_digest()


def test_split_condition():
    view = SwarmView(self_node=1)
    view.apply(ms(node=1, status=ALIVE, t=0.0))
    view.apply(ms(node=2, status=DEAD, t=0.0))
    view.apply(ms(node=3, status=SUSPECT, t=0.0))
    view.apply(ms(node=4, status=ALIVE, t=0.0))
    # 2 of 4 stale past t_split -> half -> split
    assert split_condition(view, now=5.0, t_split=1.5)
    assert not split_condition(view, now=1.0, t_split=1.5)
    assert not split_condition(SwarmView(self_node=1), now=5.0, t_split=1.5)


# -- semilattice properties ------------------------------------------------

states = st.builds(
    MemberState,
    node=st.integers(1, 6),
    status=st.sampled_from([ALIVE, SUSPECT, DEAD, LEFT]),
    incarnation=st.integers(0, 4),
    last_update_time=st.floats(0, 100, allow_nan=False),
)


def view_from(records, self_node=1):
    v = SwarmView(self_node=self_node)
    for r in records:
        v.apply(r)
    return v


views = st.lists(states, max_size=10).map(view_from)


def canon(view):
    return {n: (m.status, m.incarnation, m.last_update_time) for n, m in view.members.items()}


@settings(max_examples=300)
@given(views, views)
def test_merge_commutative(a, b):
    assert canon(merge_views(a, b)) == canon(merge_views(b, a))


@settings(max_examples=300)
@given(views, views, views)
def test_merge_associative(a, b, c):
    left = merge_views(merge_views(a, b), c)
    right = merge_views(a, merge_views(b, c))
    assert canon(left) == canon(right)


@settings(max_examples=300)
@given(views)
def test_merge_idempotent(a):
    assert canon(merge_views(a, a)) == canon(a)


@settings(max_examples=300)
@given(views, views)
def test_merge_never_regresses(a, b):
    merged = merge_views(a, b)
    rank = membership._STATUS_RANK
    for node, m in a.members.items():
        out = merged.members[node]
        assert (out.incarnation, rank[out.status]) >= (m.incarnation, rank[m.status])


# -- pre-decode skip and per-version caches ---------------------------------

# Few distinct values, so equal keys (the same record) come up often.
records = st.builds(
    MemberState,
    node=st.just(2),
    status=st.sampled_from([ALIVE, SUSPECT, DEAD, LEFT]),
    incarnation=st.integers(0, 2),
    last_update_time=st.sampled_from([0.0, 1.0, 2.5]),
)


@settings(max_examples=500)
@given(st.one_of(st.none(), records), records)
def test_dominates_fires_exactly_when_apply_is_a_noop(current, incoming):
    view = SwarmView(self_node=1)
    if current is not None:
        view.apply(current)
    wire_form = json.loads(json.dumps(incoming.to_dict()))
    skipped = view.dominates(wire_form)
    assert skipped == (not view.apply(MemberState.from_dict(wire_form)))


def uncached(view):
    """Version map and probe targets of a fresh view with the same records,
    the alive list as a scan of the view finds it, and the map's hash from
    scratch."""
    fresh = view_from(view.members.values(), self_node=view.self_node)
    alive = sorted(n for n, m in view.members.items() if m.status == ALIVE)
    return (fresh.version_map(), alive, fresh.probe_targets(),
            reference_map_hash(fresh.version_map()))


def cached(view):
    assert view.member_set_digest() == view.version_hash()
    return (view.version_map(), view.alive_nodes(), view.probe_targets(),
            view.version_hash())


def test_view_mutators_refresh_cached_values():
    view = view_from([ms(node=1), ms(node=2)])
    before = cached(view)
    assert not view.apply(ms(node=2))  # no change keeps the shared values
    after = cached(view)
    assert all(a is b for a, b in zip(after[:3], before[:3]))
    assert after[3] == before[3]
    steps = [
        lambda: view.apply(ms(node=3)),  # new member
        lambda: view.apply(ms(node=2, status=SUSPECT, t=4.0)),
        lambda: view.apply(ms(node=2, status=SUSPECT, t=3.0)),  # earlier time
        lambda: view.drop(3),
    ]
    for mutate in steps:
        before = cached(view)
        assert mutate()
        after = cached(view)
        assert after == uncached(view)
        # Each change changes the map, and with it the map's hash.
        assert after[0] != before[0]
        assert after[3] != before[3]
    assert not view.drop(3)
    assert view.alive_nodes() == [1]
    assert view.probe_targets() == [2]  # Suspect is probed; self never is


# -- derived state kept by delta --------------------------------------------

# Few distinct values, so ties in time and repeated records come up often.
view_steps = st.lists(
    st.one_of(
        st.tuples(st.just("apply"), st.builds(
            MemberState, node=st.integers(1, 6),
            status=st.sampled_from([ALIVE, SUSPECT, DEAD, LEFT]),
            incarnation=st.integers(0, 2), last_update_time=st.sampled_from([0.0, 1.0, 2.5]),
        )),
        st.tuples(st.just("drop"), st.integers(1, 6)),
    ),
    max_size=30,
)


@given(view_steps)
def test_member_digest_is_the_sum_over_the_current_members(steps):
    view = SwarmView(self_node=1)
    for name, arg in steps:
        getattr(view, name)(arg)
        members = list(view.members.values())
        assert view.member_set_digest() == reference_map_hash(
            m.version_entry for m in members
        )
        # Equal member sets give equal digests, whatever built them.
        other = view_from(reversed(members), self_node=2)
        assert other.member_set_digest() == view.member_set_digest()


def test_dominates_the_held_records_own_dict():
    held = ms(node=2, status=SUSPECT, inc=1, t=2.0)
    view = view_from([held])
    assert view.dominates(held.to_dict())
    assert not view.dominates(ms(node=2, status=DEAD, inc=1, t=3.0).to_dict())
    assert not view.dominates(ms(node=3).to_dict())


# -- digest-first exchange ---------------------------------------------------

NOW = membership.RETENTION + 1.0  # Dead/Left records declared at t <= 1.0 expired

# Few distinct values, so equal keys and expired tombstones come up often.
exchange_states = st.builds(
    MemberState,
    node=st.integers(1, 5),
    status=st.sampled_from([ALIVE, SUSPECT, DEAD, LEFT]),
    incarnation=st.integers(0, 2),
    last_update_time=st.sampled_from([0.0, 1.0, 5.0, 20.0]),
)
exchange_views = st.lists(exchange_states, max_size=8).map(view_from)


def is_expired(state):
    return membership.expired(state.status, state.last_update_time, NOW)


def without_expired(view):
    return view_from(
        (m for m in view.members.values() if not is_expired(m)), view.self_node
    )


@settings(max_examples=500)
@given(exchange_views, exchange_views)
def test_digest_exchange_leaves_both_views_at_the_merge(a, b):
    """`a` answers `b`'s version map (as decoded off the wire): `b` applies
    what `a` pushes, then `a` applies `b`'s records for what it wants. Each
    side ends at `merge_views` of itself and the other side without its
    expired tombstones, which neither leg carries; then nothing is left to
    exchange."""
    a_expected = canon(merge_views(a, without_expired(b)))
    b_expected = canon(merge_views(without_expired(a), b))
    push, want = a.diff(json.loads(json.dumps(b.version_map())), NOW)
    assert not any(is_expired(m) for m in push)
    assert not any(is_expired(b.members[n]) for n in want)
    for state in push:
        assert b.apply(state)
    for node in want:
        assert a.apply(b.members[node])
    assert canon(a) == a_expected and canon(b) == b_expected
    assert a.diff(b.version_map(), NOW) == ([], [])


def test_version_map_entries_are_shared_per_record():
    held = ms(node=2, status=SUSPECT, inc=1, t=2.0)
    a, b = view_from([ms(node=1), held]), view_from([held], self_node=2)
    assert a.version_map()[1] is b.version_map()[0] is held.version_entry
    assert held.version_entry is held.to_dict()  # the record's one wire form
    assert held.version_entry == [2, 1, 1, 2.0]  # Suspect goes as its rank
    # Shared entries are equal without a walk; our own newer record is pushed.
    assert a.diff(a.version_map(), NOW) == ([], [])
    assert a.diff(b.version_map(), NOW) == ([a.members[1]], [])


# -- piggyback selection ----------------------------------------------------

def reference_pick_deltas(node, self_record, buffer, gossip_k, retransmit_limit):
    """The selection as first written: sort the whole buffer, then sweep it."""
    picks = [self_record.to_dict()]
    order = sorted(buffer.items(), key=lambda kv: (kv[1][1], kv[0]))
    for n, slot in order:
        if n == node:
            continue
        if len(picks) >= gossip_k:
            break
        picks.append(slot[0].to_dict())
        slot[1] += 1
    for n in [n for n, slot in buffer.items() if slot[1] >= retransmit_limit]:
        del buffer[n]
    return picks


def running_agent(node=1, absent=()):
    """A started agent of a one-node simulation (nothing else runs). The
    nodes in `absent` exist but never start: what is sent to them is
    dropped as sent to a node that is down."""
    raw = {"name": "one", "duration": 1.0,
           "nodes": [{"id": node, "position": [0, 0], "typologies": ["generic"]}]}
    sim, agents, _ = scen.build(scen.parse_scenario(raw))
    for peer in absent:
        sim.add_node(peer, Position(0.0, 0.0))
    sim.run_until(0.0)  # the node joins at t=0
    return agents[node]


gossip_ops = st.lists(
    st.one_of(
        st.tuples(st.just("queue"), st.integers(2, 12), st.integers(0, 3)),
        st.tuples(st.just("gc"), st.integers(2, 12)),
        st.tuples(st.just("pick")),
    ),
    max_size=40,
)


@given(st.integers(1, 6), st.integers(1, 5), gossip_ops)
def test_pick_deltas_matches_reference(gossip_k, retransmit_limit, ops):
    """Slots are queued and collected as a running agent does it: a merged
    peer record is queued, and GC of its tombstone drops the slot. Our own
    record is never queued (it rides first in every message)."""
    with (
        mock.patch.object(gossip, "GOSSIP_K", gossip_k),
        mock.patch.object(gossip, "RETRANSMIT_LIMIT", retransmit_limit),
    ):
        me = 1
        agent = running_agent(me)
        self_record = agent.view.members[me]
        reference = {}
        for op in ops:
            if op[0] == "queue":
                state = ms(node=op[1], status=DEAD, inc=op[2])
                agent.view.apply(state)
                agent.gossip._queue_delta(state)
                reference[state.node] = [state, 0]
            elif op[0] == "gc":
                state = agent.view.members.get(op[1])
                if state is not None:
                    agent.gossip._collect(state.node)
                    reference.pop(state.node, None)
            else:
                picks = agent.gossip.pick_deltas()
                assert picks == reference_pick_deltas(
                    me, self_record, reference, gossip_k, retransmit_limit
                )
            assert agent.gossip._buffer == reference
            assert agent.gossip._order == sorted(
                (slot[1], n) for n, slot in reference.items()
            )


swarm_records = st.lists(
    st.tuples(
        st.integers(-3, 3),  # id, relative to the current swarm id
        st.sampled_from([ALIVE, SUSPECT, DEAD, LEFT]),
        st.integers(0, 3),
        st.sampled_from([0.0, 0.25, 0.5]),
    ),
    max_size=30,
)


@given(swarm_records)
def test_swarm_id_is_tracked_across_merges(records):
    """`_merge_member` re-reads the swarm id only for ids up to the last
    one; what it remembers is still the view's swarm id after every merge."""
    agent = running_agent(5)
    assert agent.gossip.last_swarm_id == agent.view.swarm_id == 5
    for offset, status, inc, t in records:
        node = max(1, agent.gossip.last_swarm_id + offset)
        agent.gossip._merge_member(ms(node=node, status=status, inc=inc, t=t))
        assert agent.gossip.last_swarm_id == agent.view.swarm_id


def test_swarm_id_is_tracked_in_runs_with_splits():
    """Splits and merges are traced only where `_merge_member` finds the
    swarm id changed. Stepped 0.25 s at a time through `partition_heal`,
    `heavy_churn` and a churn run of `bench/workloads.py`, every up agent
    remembers its view's swarm id, and `partition_heal` counts its 7
    splits."""
    runs = [scen.load_scenario(f"scenarios/{name}.yaml")
            for name in ("partition_heal", "heavy_churn")]
    runs.append(scen.parse_scenario(bench_workloads().swarm64_churn(5, n=16).raw))
    splits = {}
    for sc in runs:
        sim, agents, collector = scen.build(sc)
        t = 0.0
        while t < sc.duration:
            t = min(sc.duration, t + 0.25)
            sim.run_until(t)
            for a in agents.values():
                if sim.node_up(a.node):
                    assert a.gossip.last_swarm_id == a.view.swarm_id, (sc.name, t, a.node)
        splits[sc.name] = collector.report().swarm_splits
    assert splits["partition_heal"] == 7


# -- tombstone GC -------------------------------------------------------------

tombstone_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("merge"),
            st.integers(2, 5),
            st.sampled_from([ALIVE, SUSPECT, DEAD, LEFT]),
            st.integers(0, 2),
            st.one_of(st.sampled_from([0.0, 0.5, 10.0, 29.5, 30.0]),  # record age
                      st.floats(0.0, 31.0)),
        ),
        st.tuples(
            st.just("run"),
            st.one_of(st.sampled_from([0.0, 0.25, 1.0, 10.0, 29.5, 30.0, 31.0]),
                      st.floats(0.0, 31.0)),
        ),
    ),
    max_size=25,
)


@settings(deadline=None)
@given(tombstone_ops)
# Installed at 9.22 with last_update_time 9.22 - 7.35, the record is due at
# 31.869999999999997, an ulp before last_update_time + RETENTION: collected
# then, though `membership.expired` does not hold yet.
@example([("run", 9.22), ("merge", 2, DEAD, 0, 7.35), ("run", 30.0)])
def test_tombstones_are_collected_at_their_reference_instants(ops):
    """After every merge and every step of the simulation, the view holds
    exactly the tombstones whose collection instant has not passed: the
    install time plus `max(0, last_update_time + RETENTION - install time)`,
    in floats, as each holder computes it. Records arrive, change and come
    back in any order, several share a due time, and the agent's own probes
    of its absent peers add Suspect and Dead records of their own."""
    agent = running_agent(1, absent=range(2, 6))
    sim, view = agent.sim, agent.view
    installed = {}  # node -> (tombstone, collection instant), or None
    apply = view.apply

    def observed_apply(state):
        changed = apply(state)
        if changed and state.node != agent.node:
            now = sim.now
            installed[state.node] = (
                (state, now + max(0.0, state.last_update_time + membership.RETENTION - now))
                if state.status in (DEAD, LEFT) else None
            )
        return changed

    view.apply = observed_apply
    for op in ops:
        if op[0] == "merge":
            _, node, status, inc, age = op
            agent.gossip._merge_member(
                ms(node=node, status=status, inc=inc, t=max(0.0, sim.now - age))
            )
        else:
            sim.run_until(sim.now + op[1])
        pending = {n: entry for n, entry in installed.items()
                   if entry is not None and entry[1] > sim.now}
        held = {n: m for n, m in view.members.items() if m.status in (DEAD, LEFT)}
        assert held == {n: entry[0] for n, entry in pending.items()}, sim.now
        # One collection time per held tombstone, and nothing stale.
        assert agent.gossip._gc_due == {n: entry[1] for n, entry in pending.items()}, sim.now


def test_member_gc_timers_are_few_beside_tombstone_changes():
    """One member_gc timer per life waits at its earliest tombstone, so a
    tombstone that changes or returns to Alive before its time queues
    nothing. On A2's generator (`bench/workloads.py` `swarm64_churn`, seed
    701) at N=16, the agents install 274 tombstones, and one timer per
    tombstone change queued 274 timers; one timer per life, re-armed at the
    earliest due, queues 24."""
    wl = bench_workloads().swarm64_churn(701, n=16)
    counts = {"member_gc": 0, "tombstones": 0}
    schedule, apply = simlib.Simulator.schedule, SwarmView.apply

    def counting_schedule(self, time, action, *args):
        counts["member_gc"] += args[1:2] == ("member_gc",)
        schedule(self, time, action, *args)

    def counting_apply(self, state):
        changed = apply(self, state)
        counts["tombstones"] += (changed and state.node != self.self_node
                                 and state.status in (DEAD, LEFT))
        return changed

    with (
        mock.patch.object(simlib.Simulator, "schedule", counting_schedule),
        mock.patch.object(SwarmView, "apply", counting_apply),
    ):
        scen.run(scen.parse_scenario(wl.raw))
    assert counts["tombstones"] == 274
    assert counts["member_gc"] <= counts["tombstones"] // 4, counts


# -- the member wire form: trailing defaults dropped ---------------------------

wire_states = st.builds(
    MemberState,
    node=st.integers(0, 2**31),
    status=st.sampled_from([ALIVE, SUSPECT, DEAD, LEFT]),
    incarnation=st.integers(0, 2**31),
    last_update_time=st.one_of(st.just(0.0), st.floats(0.0, 1e9, allow_nan=False)),
)


@settings(max_examples=300)
@given(wire_states)
def test_a_member_entry_drops_its_trailing_defaults_losslessly(state):
    """An entry leaves out a time of 0.0, then an Alive rank that ends it,
    and both readers of an entry put them back."""
    entry = state.version_entry
    if state.last_update_time:
        assert len(entry) == 4
    else:
        assert len(entry) == (2 if state.status == ALIVE else 3)
    assert MemberState.from_dict(json.loads(state.to_dict().wire_json())) == state
    assert membership._entry_key(entry) == state.key


@given(st.sampled_from([DEAD, LEFT]), st.integers(0, 2),
       st.floats(membership.RETENTION, 1e6), st.sampled_from([None, ms(node=2)]))
def test_a_tombstone_declared_at_zero_leaves_the_diff_once_expired(status, inc, now, other):
    """A Dead or Left entry without a time (3 elements) is a tombstone
    declared at 0.0: past RETENTION it is neither pushed nor wanted, against
    a peer that holds no record of the node or an Alive one."""
    tomb = ms(node=2, status=status, inc=inc)
    assert len(tomb.version_entry) == 3
    plain = json.loads(tomb.version_entry.wire_json())
    others = [] if other is None else [other]
    theirs = json.loads(json.dumps(view_from(others).version_map()))
    assert view_from([tomb]).diff(theirs, now) == ([], [])
    assert view_from(others).diff([plain], now) == ([], [])
    # Before RETENTION has passed, the same tombstone is wanted.
    assert view_from(others).diff([plain], membership.RETENTION / 2) == ([], [2])


def test_alive_records_are_declared_without_a_time():
    """The invariant the member wire form rests on, over the shipped
    scenarios and a churn run of `bench/workloads.py` (7 rejoins and 16
    refutations): every Alive record a view installs has time 0.0, so all
    Alive records of one (node, incarnation) are equal, and one travels as
    [node, incarnation]."""
    alive = {}  # (node, incarnation) -> the first Alive record installed in a run
    put = SwarmView.put

    def checking_put(self, key, record):
        if record.status == ALIVE:
            assert record.last_update_time == 0.0, record
            assert alive.setdefault((record.node, record.incarnation), record) == record
        put(self, key, record)

    runs = [scen.load_scenario(path) for path in sorted(glob.glob("scenarios/*.yaml"))]
    runs.append(scen.parse_scenario(bench_workloads().swarm64_churn(5, n=16).raw))
    with mock.patch.object(SwarmView, "put", checking_put):
        for sc in runs:
            alive.clear()
            scen.run(sc)
    # The churn run's 7 rejoins and 16 refutations each declare one record.
    assert sum(inc > 0 for _, inc in alive) == 23
