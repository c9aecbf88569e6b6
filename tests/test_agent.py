"""NodeAgent dispatch tables, bench's patch points and the executor -> origin report."""

import ast
import importlib
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest

from swarmsim import agent, execution, executor, gossip, membership, wire
from swarmsim import scenario as scen
from swarmsim.dataplane import DataSourceDescriptor
from swarmsim.sim import SimFault, Simulator

from conftest import bench_workloads, make_task

ROOT = Path(__file__).resolve().parents[1]

PAIR = {
    "name": "pair",
    "duration": 6.0,
    "nodes": [
        {"id": 1, "position": [0, 0], "typologies": ["generic"]},
        {"id": 2, "position": [10, 0], "typologies": ["generic"]},
    ],
    "tasks": [
        {"id": 1, "origin": 1, "at": 2.0, "typology": "generic", "work": 0.5,
         "memory": 64, "deadline": 10.0},
    ],
}


@pytest.fixture
def sent(monkeypatch) -> list:
    """(from, to, message) of every send from here on, in order."""
    sends = []
    send = Simulator.send

    def recording_send(self, frm, to, msg):
        sends.append((frm, to, msg))
        return send(self, frm, to, msg)

    monkeypatch.setattr(Simulator, "send", recording_send)
    return sends


def _bench_value(name: str, script: str = "run.py") -> ast.expr:
    """The expression assigned to `name` at the top of `bench/<script>`,
    read unimported."""
    for node in ast.parse((ROOT / "bench" / script).read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise KeyError(name)


def _bench_list(name: str, script: str = "run.py") -> list:
    """A list literal assigned at the top of `bench/<script>`."""
    return ast.literal_eval(_bench_value(name, script))


def _bench_targets() -> list:
    """(owner, attribute name) for every name `bench/tracer.py` `TARGETS`
    patches, its owner (`sim.Simulator`, `wire`) looked up in `swarmsim`."""
    out = []
    for row in _bench_value("TARGETS", "tracer.py").elts:
        _, owner, names = row.elts
        path = ast.unparse(owner).split(".")
        obj = importlib.import_module(f"swarmsim.{path[0]}")
        for attr in path[1:]:
            obj = getattr(obj, attr)
        out += [(obj, name) for name in ast.literal_eval(names)]
    return out


def test_message_table_covers_every_wire_kind():
    assert set(agent._MESSAGE_HANDLERS) == wire.ALL_KINDS


def test_timer_table_covers_the_benchmarked_timer_kinds():
    assert sorted(agent._TIMER_HANDLERS) == sorted(_bench_list("TIMER_KINDS"))


def test_bench_patch_points_exist():
    """Every name `bench/tracer.py` patches is where it patches it: a
    `TARGETS` name in its owner's own `__dict__` (a module's globals, a
    class's own attributes, not inherited ones), an `AGENT_IMPORTS` name a
    global of `agent`, and the two dispatch entry points `NodeAgent`'s own.
    The traced smoke test finds the same, slower."""
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name in _bench_targets() if name not in vars(owner)
    ]
    missing += [
        f"agent.{name}" for name in _bench_list("AGENT_IMPORTS", "tracer.py")
        if name not in vars(agent)
    ]
    missing += [
        f"NodeAgent.{name}" for name in ("on_message", "on_timer")
        if name not in vars(agent.NodeAgent)
    ]
    assert not missing, f"bench/tracer.py patches names that are gone: {missing}"


def test_a_reservation_outlives_its_offer_round():
    # One that expired before the origin's offer round ends would be gone
    # when its CLAIM arrives, so no remote run would ever be admitted.
    assert agent.OFFER_TIMEOUT < execution.RESERVATION_TTL


def test_unknown_timer_kind_is_a_sim_fault():
    sim, _, _ = scen.build(scen.parse_scenario(PAIR))
    sim.run_until(0.5)
    sim.set_timer(1, 0.1, "bogus")
    with pytest.raises(SimFault) as exc:
        sim.run_until(1.0)
    assert isinstance(exc.value.cause, ValueError)
    assert "unknown timer bogus" in str(exc.value.cause)


def test_origin_that_runs_its_own_task_reports_done_in_place():
    result = scen.run(scen.parse_scenario(PAIR))
    trace = result.trace
    assert [r["node"] for r in trace if r["type"] == "local_admit"] == [1]
    done = [r for r in trace if r["type"] == "task_done"]
    assert [(r["node"], r["executor"]) for r in done] == [(1, 1)]
    assert not any(r["type"] == "send" and r["kind"] == wire.DONE for r in trace)
    assert result.report.balance_holds()


def test_origin_holds_only_open_tasks_and_undecided_offers():
    """An origin's `tasks` are the tasks it submitted in this life that are
    still open: a task leaves on its DONE or its permanent failure. On
    `heavy_churn`, stepped 0.25 s at a time, every up agent's `tasks` keys
    are those the collector still counts open. An offer round lives until
    it is decided, so none is left once a `tasks16_dense` run has ended."""
    sc = scen.load_scenario(ROOT / "scenarios" / "heavy_churn.yaml")
    sim, agents, collector = scen.build(sc)
    submitted_by = {}  # task id -> (origin, origin's epoch then)

    def on_record(rec):
        if rec["type"] == "task_submitted":
            submitted_by[rec["task"]] = (rec["node"], agents[rec["node"]].epoch)

    sim.listeners.append(on_record)
    held = 0
    t = 0.0
    while t < sc.duration:
        t = min(sc.duration, t + 0.25)
        sim.run_until(t)
        for a in agents.values():
            if sim.node_up(a.node):
                assert set(a.tasks) == {
                    task_id for task_id in collector.open_tasks
                    if submitted_by[task_id] == (a.node, a.epoch)
                }, (t, a.node)
                held += len(a.tasks)
    assert held > 0 and len(submitted_by) > len(collector.open_tasks)

    wl = bench_workloads().tasks16_dense(7)
    result = scen.run(scen.parse_scenario(wl.raw))
    assert result.report.tasks_done > 0
    assert all(not a.offers for a in result.agents.values())


# An origin that can run nothing itself, two executors. Task 1 cannot meet
# its deadline behind tasks 2 and 3, so its executor warns; tasks 2 and 3 run
# to the end; task 4 runs when both executors leave.
FAILURE_PATHS = {
    "name": "origin_failure_paths",
    "duration": 40.0,
    "nodes": [
        {"id": 1, "position": [0, 0], "typologies": ["other"]},
        {"id": 2, "position": [10, 0], "typologies": ["generic"]},
        {"id": 3, "position": [0, 10], "typologies": ["generic"]},
    ],
    "tasks": [
        {"id": 1, "origin": 1, "at": 5.0, "typology": "generic", "work": 4.0,
         "memory": 64, "deadline": 6.0},
        {"id": 2, "origin": 1, "at": 5.5, "typology": "generic", "work": 4.0,
         "memory": 64, "deadline": 60.0},
        {"id": 3, "origin": 1, "at": 5.6, "typology": "generic", "work": 4.0,
         "memory": 64, "deadline": 60.0},
        {"id": 4, "origin": 1, "at": 20.0, "typology": "generic", "work": 6.0,
         "memory": 64, "deadline": 60.0},
    ],
    "events": [
        {"type": "leave", "node": 2, "at": 22.0},
        {"type": "leave", "node": 3, "at": 22.0},
    ],
}


def _decision_after(trace, t: float, task: int) -> dict:
    """The origin's first placement decision for `task` after time `t`."""
    return next(r for r in trace if r["type"] == "sched_decision"
                and r["task"] == task and r["t"] > t)


def test_origin_replaces_away_from_a_warning_and_a_failed_executor():
    """A QOS-WARN starts a second attempt on another node, and a FAILED run
    (its executor left) is placed again without that executor."""
    result = scen.run(scen.parse_scenario(FAILURE_PATHS))
    trace = result.trace
    warns = [r for r in trace if r["type"] == "qos_warn"]
    assert [(r["node"], r["task"]) for r in warns] == [(2, 1)]
    retry = _decision_after(trace, warns[0]["t"], task=1)
    assert retry["attempt"] == 2
    assert [c["node"] for c in retry["candidates"]] == retry["chosen"] == [3]

    failed = [r for r in trace if r["type"] == "run_failed"]
    assert [(r["node"], r["task"], r["cause"]) for r in failed] == [(2, 4, "leave")]
    retry = _decision_after(trace, failed[0]["t"], task=4)
    assert retry["attempt"] == 2
    assert 2 not in [c["node"] for c in retry["candidates"]]

    kinds = [r["kind"] for r in trace if r["type"] == "send" and r["to"] == 1]
    assert kinds.count(wire.QOS_WARN) == kinds.count(wire.FAILED) == 1
    done = [r["task"] for r in trace if r["type"] == "task_done"]
    assert sorted(done) == [1, 2, 3]  # each once
    report = result.report
    assert (report.tasks_done, report.tasks_failed_permanent) == (3, 1)
    assert report.balance_holds()


def test_a_claim_without_a_reservation_is_nacked_and_placed_again():
    sim, agents, _ = scen.build(scen.parse_scenario(FAILURE_PATHS))
    sim.run_until(5.015)  # task 1 reserved on 2 and 3, its CLAIM not yet sent
    assert agents[1].offers[1]["attempt"] == 1
    agents[2].execution.cancel(1, 1)
    mark = len(sim.trace)
    sim.run_until(5.2)
    trace = list(islice(sim.trace, mark, None))
    claim = next(r for r in trace if r["type"] == "claim")
    assert (claim["task"], claim["executor"]) == (1, 2)
    nacks = [r for r in trace if r["type"] == "send" and r["kind"] == wire.NACK]
    assert [(r["from"], r["to"]) for r in nacks] == [(2, 1)]
    retry = _decision_after(trace, nacks[0]["t"], task=1)
    assert retry["attempt"] == 2 and retry["node"] == 1


@pytest.mark.parametrize("candidate_fails", ["leaves", "rejects"])
def test_a_speculative_round_with_no_accept_leaves_the_running_attempt_be(candidate_fails):
    """The origin runs task 1 itself, and its run warns: the speculative
    attempt 2 excludes the origin and goes to node 2, which leaves before
    the OFFER arrives or is too slow to accept it. The round ends with no
    accept while attempt 1 still runs, so nothing is placed again: attempt 1
    is neither reserved over nor failed for good by spent attempts, and it
    finishes and closes the task."""
    pair = dict(PAIR, duration=8.0, tasks=[dict(PAIR["tasks"][0], work=2.0)])
    if candidate_fails == "rejects":
        pair["nodes"] = [PAIR["nodes"][0], dict(PAIR["nodes"][1], cpu_perf_index=0.01)]
    sim, agents, _ = scen.build(scen.parse_scenario(pair))
    sim.run_until(2.5)
    origin = agents[1]
    assert origin.engine.runs[1].attempt == 1
    # What the origin's own run reports in place when it warns.
    origin._handle_qos_warn(1, {"task_id": 1, "attempt": 1, "projected": 99.0})
    assert origin.offers[1]["sent"] == {2}
    if candidate_fails == "leaves":
        sim.leave(2)
    sim.run_until(2.5 + agent.OFFER_TIMEOUT + 0.01)
    assert 1 not in origin.offers and origin.tasks[1].executors == {1: 1}
    sim.run_until(pair["duration"])
    trace = list(sim.trace)
    assert [r["attempt"] for r in trace if r["type"] == "reserve" and r["node"] == 1] == [1]
    assert [r["attempt"] for r in trace if r["type"] == "sched_decision"] == [2]
    assert not [r for r in trace if r["type"] == "task_failed_permanent"]
    assert [(r["task"], r["attempt"]) for r in trace if r["type"] == "task_done"] == [(1, 1)]


# An origin that can run nothing itself, and one battery executor whose
# charge does not last the 40 s of either task at its drain rate.
DRAINING_PEER = {
    "name": "draining_peer",
    "duration": 6.0,
    "nodes": [
        {"id": 1, "position": [0, 0], "typologies": ["other"]},
        {"id": 2, "position": [10, 0], "typologies": ["generic"],
         "battery": 0.3, "drain_rate": 0.01},
    ],
    "tasks": [
        {"id": task_id, "origin": 1, "at": at, "typology": "generic", "work": 40.0,
         "memory": 64, "deadline": 120.0}
        for task_id, at in ((1, 2.0), (2, 2.5))
    ],
}


def test_an_origin_reads_a_peers_drain_rate_from_the_entry_it_scores():
    """The origin gates a peer's availability on the drain rate published in
    the peer's registry entry: once it holds a newer entry of the peer that
    says 0, the same peer is available, whatever the peer's scenario says."""
    sim, agents, _ = scen.build(scen.parse_scenario(DRAINING_PEER))
    sim.run_until(2.49)
    first = _decision_after(sim.trace, 0.0, task=1)
    assert [(c["node"], c["availability"]) for c in first["candidates"]] == [(2, 0.0)]
    registry = agents[1].registry
    held = registry.entries[2]
    assert held.profile.hw.drain_rate == 0.01
    inc, sv = held.version
    newer = replace(held, profile=replace(held.profile, hw=replace(held.profile.hw, drain_rate=0.0)),
                    version=(inc, sv + 1))
    assert registry.merge(newer)
    sim.run_until(2.5)
    second = _decision_after(sim.trace, 2.49, task=2)
    assert registry.entries[2] is newer
    assert [c["node"] for c in second["candidates"]] == [2]
    assert second["candidates"][0]["availability"] > 0.0


def _grid(n: int, seed: int = 3) -> dict:
    """n nodes on a lossless 4-wide grid, all joining at t=0."""
    return {
        "name": f"grid{n}",
        "duration": 30.0,
        "seed": seed,
        "nodes": [
            {"id": i, "position": [(i % 4) * 10, (i // 4) * 10], "typologies": ["generic"]}
            for i in range(1, n + 1)
        ],
    }


def test_digest_between_agents_in_sync_is_not_answered(sent):
    sim, agents, _ = scen.build(scen.parse_scenario(_grid(4)))
    sim.run_until(20.2)  # converged
    a = agents[1]
    for other in agents.values():
        assert other.view.version_map() == a.view.version_map()
        assert other.catalog.version_map() == a.catalog.version_map()
        assert other.registry.version_map() == a.registry.version_map()
    mark, first = len(sim.trace), len(sent)
    a.antientropy.send_digest(a.round_no)
    sim.run_until(20.25)
    sends = [r for r in islice(sim.trace, mark, None) if r["type"] == "send"]
    digests = [r for r in sends if r["from"] == 1 and r["kind"] == wire.DIGEST]
    assert len(digests) == 1
    # It holds one hash per version map, not the maps.
    body = sent[first][2].body
    assert sent[first][2].kind == wire.DIGEST
    assert sorted(body) == ["catalog", "registry", "view"]
    assert all(type(h) is str for h in body.values())
    assert any(r["type"] == "deliver" and r["msg_id"] == digests[0]["msg_id"]
               for r in islice(sim.trace, mark, None))
    # Other nodes' rounds run at their own phases: their probes may fall in
    # the window, but no exchange in it carries records.
    assert not any(r["kind"] in (wire.DELTA, wire.HELLO_ACK) for r in sends)


def _make_newer(a, part: str) -> None:
    """Give agent `a` a registry entry or catalog record its peers lack."""
    if part == "registry":
        a.antientropy.publish_profile(force=True)
    else:
        a.catalog.announce(
            DataSourceDescriptor(id=99, owner=a.node, size=1.0, replicas=frozenset({a.node})),
            by=a.node,
        )


@pytest.mark.parametrize("part", ["registry", "catalog"])
def test_a_differing_part_travels_as_its_map_then_as_a_delta(sent, part):
    sim, agents, _ = scen.build(scen.parse_scenario(_grid(4)))
    sim.run_until(20.2)  # converged, as in the test above
    a = agents[1]
    _make_newer(a, part)
    first = len(sent)
    a.antientropy.send_digest(a.round_no)
    peer = sent[first][1]
    sim.run_until(20.3)
    exchange = [
        (frm, msg.kind, msg.body) for frm, to, msg in sent[first:]
        if {frm, to} == {1, peer} and msg.kind in (wire.DIGEST, wire.DELTA)
    ]
    # Hashes out; the peer's map of the one part that differs back, in one
    # DIGEST; that map answered by one DELTA with the record, no DIGEST.
    assert [(frm, kind) for frm, kind, _ in exchange] == [
        (1, wire.DIGEST), (peer, wire.DIGEST), (1, wire.DELTA),
    ]
    reply, delta = exchange[1][2], exchange[2][2]
    assert list(reply) == [part]
    assert type(reply[part]) is not str
    held = getattr(a, part)
    assert list(delta) == [part]
    assert [record.source for record in delta[part]] == [
        held.entries[1] if part == "registry" else held.records[99]
    ]
    assert getattr(agents[peer], part).version_map() == held.version_map()


def test_a_digest_of_maps_is_answered_by_one_delta(sent):
    sim, agents, _ = scen.build(scen.parse_scenario(_grid(4)))
    sim.run_until(20.2)
    a, peer = agents[1], agents[2]
    _make_newer(a, "registry")
    first = len(sent)
    a.send(2, wire.DIGEST, {
        "view": a.view.version_map(),
        "catalog": a.catalog.version_map(),
        "registry": a.registry.version_map(),
    })
    sim.run_until(20.3)
    answers = [msg for frm, to, msg in sent[first:] if (frm, to) == (2, 1)
               and msg.kind in (wire.DIGEST, wire.DELTA)]
    assert [(msg.kind, msg.body) for msg in answers] == [
        (wire.DELTA, {"want_registry": [1]}),
    ]
    assert peer.registry.version_map() == a.registry.version_map()


def test_a_hash_digest_has_the_same_size_at_any_swarm_size(sent):
    """The unit form of "DIGEST bytes per node-second flat in N"."""
    sizes = []
    for n in (4, 64):
        first = len(sent)
        sim, agents, _ = scen.build(scen.parse_scenario(_grid(n)))
        sim.run_until(8.0)  # every view holds every node
        assert all(len(a.view.members) == n for a in agents.values())
        # The last periodic DIGEST: a reply DIGEST holds maps instead.
        body = [msg.body for _, _, msg in sent[first:] if msg.kind == wire.DIGEST
                and all(type(v) is str for v in msg.body.values())][-1]
        sizes.append(len(wire.encode(wire.Message(wire.DIGEST, body))))
    assert sizes[0] == sizes[1]


def test_a_probe_timeout_does_not_suspect_a_life_it_never_probed(monkeypatch):
    sim, agents, _ = scen.build(scen.parse_scenario(_grid(2)))
    sim.run_until(5.0)
    g = agents[1].gossip
    probed = g.view.members[2]
    assert probed.status == membership.ALIVE
    timers = []  # (kind, data) as armed; the run stays at 5.0, so no ACK
    monkeypatch.setattr(agents[1], "set_timer",
                        lambda delay, kind, data=None: timers.append((kind, data)))

    def probe_and_miss(learn_first=None):
        g.probe(2)
        for _ in range(gossip.PROBE_RETRIES - 1):
            g.on_probe_timeout(timers[-1][1])  # a miss: PING again
        if learn_first is not None:
            g.merge_deltas([learn_first.to_dict()])
        assert timers[-1][0] == "probe_timeout"
        g.on_probe_timeout(timers[-1][1])  # the last miss

    # Node 2's next life arrives by gossip while the probes of its old one
    # are out: the last timeout leaves it Alive.
    reborn = membership.MemberState(
        node=2, status=membership.ALIVE,
        incarnation=probed.incarnation + 1, last_update_time=sim.now,
    )
    probe_and_miss(learn_first=reborn)
    assert g.view.members[2] is reborn
    # Probes of that life itself that all miss do suspect it.
    probe_and_miss()
    assert g.view.members[2].status == membership.SUSPECT
    assert g.view.members[2].incarnation == reborn.incarnation


def _start_hellos(seed: int) -> dict:
    """node -> the peers it sends HELLO at t=0, when all join at once."""
    sim, _, _ = scen.build(scen.parse_scenario(_grid(12, seed)))
    sim.run_until(0.0)
    hellos = {}
    for r in sim.trace:
        if r["type"] == "send" and r["kind"] == wire.HELLO:
            hellos.setdefault(r["from"], []).append(r["to"])
    return hellos


def test_join_sends_at_most_join_fanout_hellos_with_seeded_picks():
    hellos = _start_hellos(seed=3)
    # Node k finds the k - 1 nodes that joined before it reachable.
    assert sorted(hellos) == list(range(2, 13))
    for node, peers in hellos.items():
        assert len(peers) == min(node - 1, gossip.JOIN_FANOUT)
        assert all(peer < node for peer in peers)
    assert _start_hellos(seed=3) == hellos
    # Drawn, not the lowest ids: joins spread over the swarm.
    targets = {peer for peers in hellos.values() for peer in peers}
    assert len(targets) > gossip.JOIN_FANOUT


def _first_rounds(seed: int) -> dict:
    """node -> the 10 ms step in which its first round ran, all joining at t=0."""
    sim, agents, _ = scen.build(scen.parse_scenario(_grid(12, seed)))
    first = {}
    for step in range(1, 101):
        sim.run_until(step / 100)
        for node, a in agents.items():
            if a.round_no and node not in first:
                first[node] = step
    return first


def test_nodes_started_together_do_not_run_rounds_in_lockstep():
    first = _first_rounds(seed=3)
    # Every first round falls within one probe period of the start ...
    assert sorted(first) == list(range(1, 13))
    # ... at a phase of its own, drawn from the node's stream for this life.
    assert len(set(first.values())) > 6
    assert _first_rounds(seed=3) == first


def test_hello_is_answered_by_hello_ack_with_the_records_its_map_lacks(sent):
    sim, agents, _ = scen.build(scen.parse_scenario(_grid(2)))
    sim.run_until(0.1)
    # Node 2 joins after node 1 and HELLOs it; the HELLO's piggybacked
    # deltas already carry node 2's record, so only node 1's goes back.
    assert [(frm, to, msg.kind) for frm, to, msg in sent[:2]] == [
        (2, 1, wire.HELLO), (1, 2, wire.HELLO_ACK),
    ]
    ack = sent[1][2]
    assert [entry[0] for entry in ack.body["view"]] == [1]
    assert "want_view" not in ack.body
    assert sorted(agents[2].view.members) == [1, 2]


def test_refutation_bumps_the_incarnation_and_leaves_the_registry_entry():
    sim, agents, _ = scen.build(scen.parse_scenario(_grid(4)))
    sim.run_until(10.0)
    a = agents[2]
    entry, inc = a.registry.entries[2], a.incarnation
    a.gossip._merge_member(membership.MemberState(
        node=2, status=membership.SUSPECT, incarnation=inc, last_update_time=sim.now,
    ))
    assert a.incarnation == inc + 1
    assert a.view.members[2].status == membership.ALIVE
    assert a.view.members[2].incarnation == inc + 1
    # The profile did not change, so neither does the entry peers hold.
    assert a.registry.entries[2] is entry


def test_a_change_of_the_run_set_republishes_the_profile():
    """Reserving, releasing and finishing a run each bump the executor's own
    registry version while its published utilization and battery stay put;
    publishing again with nothing changed keeps the version."""
    sim, agents, _ = scen.build(scen.parse_scenario(dict(PAIR, tasks=[])))
    sim.run_until(1.0)
    executor_agent = agents[2]
    execution = executor_agent.execution
    entries = executor_agent.registry.entries

    def published():
        entry = entries[2]
        return entry.version, entry.profile.dyn.utilization, entry.profile.dyn.battery

    def bumped(before):
        version, util, battery = published()
        assert version > before[0] and (util, battery) == before[1:]
        return version, util, battery

    state = published()
    executor_agent.antientropy.publish_profile()
    assert published() == state
    task = make_task(task_id=7, work=0.5)
    execution.reserve(task, 1, sim.now, origin=1)
    state = bumped(state)
    execution._release(executor_agent.engine.runs[7], "cancel", executor.EVICTED)
    state = bumped(state)
    execution.reserve(task, 2, sim.now, origin=1)
    state = bumped(state)
    run = executor_agent.engine.runs[7]
    run.transition(executor.RUNNING)
    run.remaining_work = 0.0
    execution.on_completion(executor_agent.engine.generation)
    assert 7 not in executor_agent.engine.runs
    state = bumped(state)
    executor_agent.antientropy.publish_profile()
    assert published() == state


def test_a_run_due_at_now_finishes_in_its_completion_handler():
    """At 1e17 work/s, work 0.5 takes 5e-18 s, below the float resolution of
    t=2.5: the run is due at `now` itself. A completion timer re-armed at
    `now` would integrate over no time and fire again forever."""
    fast = dict(PAIR["nodes"][1], cpu_perf_index=1.0e17)
    sim, agents, _ = scen.build(scen.parse_scenario(dict(PAIR, nodes=[PAIR["nodes"][0], fast],
                                                         tasks=[])))
    sim.run_until(2.5)
    execution = agents[2].execution
    execution.reserve(make_task(task_id=7, work=0.5), 1, sim.now, origin=1)
    run = execution.engine.runs[7]
    run.transition(executor.RUNNING)
    assert execution.engine.next_finish(sim.now) == (sim.now, 7)
    execution.on_completion(execution.engine.generation)
    assert run.state == executor.DONE and 7 not in execution.engine.runs
    assert run.progressed == 0.5
    assert [r["task"] for r in sim.trace if r["type"] == "run_done"] == [7]


@pytest.mark.parametrize("name", ["heavy_churn", "data_locality", "steady_state"])
def test_a_repeated_claim_changes_no_task_outcome(monkeypatch, name):
    """Every CLAIM delivered a second time 50 ms after the first: the
    executor that admitted the attempt ignores the copy, so as many tasks
    finish as without the copies, and none is NACKed into failure."""
    sc = scen.load_scenario(ROOT / "scenarios" / f"{name}.yaml")
    plain = scen.run(sc).report
    deliver = Simulator._deliver
    repeated = set()

    def deliver_claims_twice(self, frm, to, msg_id, msg):
        if msg.kind == wire.CLAIM and msg_id not in repeated:
            repeated.add(msg_id)
            self.schedule(self.now + 0.05, self._deliver, frm, to, msg_id, msg)
        deliver(self, frm, to, msg_id, msg)

    monkeypatch.setattr(Simulator, "_deliver", deliver_claims_twice)
    doubled = scen.run(sc).report
    assert repeated
    assert (doubled.tasks_done, doubled.tasks_failed_permanent) == (
        plain.tasks_done, plain.tasks_failed_permanent,
    )
    assert doubled.tasks_failed_permanent == 0
    assert doubled.balance_holds()
