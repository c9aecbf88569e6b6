import copy
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from swarmsim import scenario as scen


BASE = {
    "name": "t",
    "duration": 20.0,
    "seed": 3,
    "nodes": [
        {"id": 1, "position": [0, 0], "typologies": ["generic"], "battery": "MAINS"},
        {"id": 2, "position": [10, 0], "typologies": ["generic"], "battery": "MAINS"},
    ],
}


def with_extras(**extras):
    raw = dict(BASE)
    raw.update(extras)
    return scen.parse_scenario(raw)


def test_shipped_scenarios_are_valid():
    import glob

    paths = sorted(glob.glob("scenarios/*.yaml"))
    assert len(paths) >= 4
    for path in paths:
        sc = scen.load_scenario(path)
        assert sc.validate() == [], path


def test_arrival_after_duration_rejected():
    sc = with_extras(tasks=[{"id": 1, "origin": 1, "at": 99.0,
                             "typology": "generic", "work": 1.0}])
    assert any("outside run window" in p for p in sc.validate())


@pytest.mark.parametrize("duration", [math.inf, -math.inf, math.nan, 0.0])
def test_a_duration_the_run_cannot_reach_is_one_problem(duration):
    sc = with_extras(
        duration=duration,
        tasks=[{"id": 1, "origin": 1, "at": 5.0, "typology": "generic", "work": 1.0}],
        events=[{"type": "crash", "node": 2, "at": 5.0}],
    )
    assert sc.validate() == ["duration: must be positive and finite"]


def test_unknown_churn_node_rejected():
    sc = with_extras(events=[{"type": "crash", "node": 42, "at": 5.0}])
    assert any("unknown node 42" in p for p in sc.validate())


def test_unknown_task_origin_and_source_rejected():
    sc = with_extras(tasks=[{"id": 1, "origin": 9, "at": 1.0, "typology": "x",
                             "work": 1.0, "inputs": [{"source": 5, "size": 1.0}]}])
    problems = sc.validate()
    assert any("unknown origin 9" in p for p in problems)
    assert any("unknown data source 5" in p for p in problems)


def test_overlapping_partition_groups_rejected():
    sc = with_extras(partitions=[{"a": [1], "b": [1, 2], "start": 1.0, "end": 2.0}])
    assert any("groups overlap" in p for p in sc.validate())


def test_unknown_event_type_and_move_without_target_rejected():
    sc = with_extras(events=[
        {"type": "explode", "node": 1, "at": 5.0},
        {"type": "move", "node": 2, "at": 6.0},
        {"type": "move", "node": 2, "at": 7.0, "to": {"x": 3.0}},
        {"type": "move", "node": 2, "at": 8.0, "to": [3.0, 4.0]},
        {"type": "move", "node": 2, "at": 9.0, "to": {"x": 3.0, "y": 4.0}},
    ])
    assert sc.validate() == [
        "event explode: unknown event type (expected one of join, leave, crash, move)",
        "events[1]: to: required",
        "events[2]: to: expected [x, y] or {x: .., y: ..}, got {'x': 3.0}",
    ]


def test_missing_duration_is_a_value_error():
    """A missing duration is one listed problem, and the walk goes on to
    the next; `run` refuses the scenario with the whole list."""
    raw = {k: v for k, v in BASE.items() if k != "duration"}
    sc = scen.parse_scenario(dict(raw, events=[{"type": "crash", "node": 42, "at": 5.0}]))
    assert sc.validate() == ["duration: required", "event crash: unknown node 42"]
    with pytest.raises(
        ValueError,
        match="^invalid scenario: duration: required; event crash: unknown node 42$",
    ):
        scen.run(sc)


def test_run_refuses_invalid_scenario():
    sc = with_extras(events=[{"type": "crash", "node": 42, "at": 5.0}])
    with pytest.raises(ValueError, match="invalid scenario"):
        scen.run(sc)


def test_empty_workload_zero_task_metrics():
    res = scen.run(with_extras())
    r = res.report
    assert r.tasks_submitted == 0
    assert r.tasks_done == 0
    assert r.tasks_failed_permanent == 0
    assert math.isnan(r.mean_task_latency)
    assert r.balance_holds()


def test_generated_workload_is_deterministic_and_round_robin():
    sc1 = with_extras(workload={"count": 6, "start": 1.0, "interval": 1.0,
                                "jitter": 0.3, "origins": [1, 2],
                                "typology": "generic", "work": 0.5})
    sc2 = with_extras(workload={"count": 6, "start": 1.0, "interval": 1.0,
                                "jitter": 0.3, "origins": [1, 2],
                                "typology": "generic", "work": 0.5})
    assert [(at, t.task_id, t.origin_node) for at, t in sc1.tasks] == [
        (at, t.task_id, t.origin_node) for at, t in sc2.tasks
    ]
    origins = [t.origin_node for _, t in sc1.tasks]
    assert origins == [1, 2, 1, 2, 1, 2]


def test_scheduler_override_replaces_weights():
    sc = with_extras(scheduler={"w_availability": 0.2, "w_qos": 0.6})
    weights = (sc.scheduler.w_availability, sc.scheduler.w_qos, sc.scheduler.w_locality)
    assert weights == (0.2, 0.6, 0.2) and not sc.validate()
    problems = []
    params = scen.override(
        sc.scheduler, {"w_availability": 0.0, "w_qos": 0.8}, "variant v", problems,
    )
    assert problems == []
    assert (params.w_availability, params.w_qos, params.w_locality) == (0.0, 0.8, 0.2)
    assert sc.scheduler.w_availability == 0.2  # original untouched
    # A variant passes the checks a scenario's `scheduler:` block does;
    # protocol timing is no setting.
    for overrides, problem in (
        ({"w_qos_": 3}, "variant v: unknown field w_qos_"),
        ({"probe_period": 2.0}, "variant v: unknown field probe_period"),
        ({"w_qos": "three"}, "variant v: w_qos: expected a number, got 'three'"),
        # Top-k, attempts and the locality scale are constants.
        ({"top_k": 2}, "variant v: unknown field top_k"),
        ({"max_attempts": 2}, "variant v: unknown field max_attempts"),
        ({"locality_scale": 50.0}, "variant v: unknown field locality_scale"),
        ({"w_qos": 0.9}, "variant v: score weights must sum to 1"),
        (5, "variant v: expected a mapping, got 5"),
    ):
        problems = []
        assert scen.override(sc.scheduler, overrides, "variant v", problems) == sc.scheduler
        assert len(problems) == 1 and problems[0].startswith(problem)


def test_run_result_trace_serializes(tmp_path):
    sc = with_extras(tasks=[{"id": 1, "origin": 1, "at": 1.0,
                             "typology": "generic", "work": 0.5}])
    res = scen.run(sc)
    out = tmp_path / "trace.jsonl"
    scen.write_trace_jsonl(res.trace, out)
    lines = out.read_text().splitlines()
    assert len(lines) == len(res.trace)
    for line in lines[:50]:
        json.loads(line)


def test_same_seed_same_trace_different_seed_differs():
    sc = with_extras(
        net={"loss_prob": 0.1},
        workload={"count": 5, "start": 1.0, "interval": 1.0, "origins": [1],
                  "typology": "generic", "work": 0.5},
    )
    t1 = list(scen.run(sc, seed=5).trace)
    t2 = list(scen.run(sc, seed=5).trace)
    t3 = list(scen.run(sc, seed=6).trace)
    assert t1 == t2
    assert t1 != t3


def test_node_without_id_and_wrong_field_types_are_problems():
    raw = dict(BASE, duration="ten", nodes=[
        {"position": [0, 0]},
        {"id": 2, "cpu_perf_index": "fast", "battery": "full"},
        {"id": 3, "memory": 2.5e3},
    ])
    sc = scen.parse_scenario(raw)
    assert sc.validate() == [
        "duration: expected a number, got 'ten'",
        "nodes[0]: id: required",
        "node 2: cpu_perf_index: expected a number, got 'fast'",
        "node 2: battery: expected a number or MAINS, got 'full'",
    ]
    assert [n.profile.node for n in sc.nodes] == [2, 3]
    with pytest.raises(
        ValueError, match="invalid scenario: duration: expected a number, got 'ten'; nodes\\[0\\]"
    ):
        scen.run(sc)


def test_malformed_items_and_settings_are_problems():
    sc = with_extras(
        # Keys no reader knows: deleted fields (os_tag, runtimes,
        # min_success_replicas) and blocks (agent), and one typo per kind
        # of mapping.
        nodes=[
            dict(BASE["nodes"][0], os_tag="linux", runtimes=["py3"], cpu_perf_idx=3),
            BASE["nodes"][1],
        ],
        tasks=[{"id": 1, "origin": 1, "at": 1.0, "typology": "generic", "work": "lots",
                "dedline": 5, "min_success_replicas": 2,
                "inputs": [{"source": 7, "sise": 1.0}]}],
        workload={"count": 3, "origins": [1], "memory": "big", "intervall": 2.0,
                  "template": {"origin": 2}},
        events=[{"type": "crash", "node": "x", "at": 1.0, "whne": 3, "to": [1, 1]}],
        partitions=[{"a": [1], "b": [2], "start": "soon", "end": 2.0, "ends": 3.0}],
        data_sources=[{"id": 7, "owner": 1, "size": -1.0, "replica": [2]}],
        net={"loss_prob": "high", "jitter": 0.1},
        agent={"probe_period": 2.0},
        scheduler={"w_availability": "three", "w_qos": 0.9},
        sampel_period=2.0,
        sample_period=2.0,
    )
    assert sc.validate() == [
        "node 1: unknown field os_tag",
        "node 1: unknown field runtimes",
        "node 1: unknown field cpu_perf_idx",
        "data source 7: unknown field replica",
        "data source 7: data source size must be positive",
        "tasks[0]: inputs[0]: unknown field sise",
        "tasks[0]: work: expected a number, got 'lots'",
        "tasks[0]: unknown field dedline",
        "tasks[0]: unknown field min_success_replicas",
        "workload: template: unknown field origin",
        "workload: unknown field intervall",
        "workload: memory: expected an integer, got 'big'",
        "events[0]: node: expected an integer, got 'x'",
        "events[0]: unknown field whne",
        "events[0]: unknown field to",
        "partitions[0]: start: expected a number, got 'soon'",
        "partitions[0]: unknown field ends",
        "net: loss_prob: expected a number, got 'high'",
        "net: unknown field jitter",
        "scheduler: w_availability: expected a number, got 'three'",
        "scheduler: score weights must sum to 1, got 1.5",
        "unknown field agent",
        "unknown field sampel_period",
        "unknown field sample_period",
    ]
    assert len(sc.tasks) == 3 and not sc.events and not sc.partitions
    assert with_extras(nodes=5).validate() == ["nodes: expected a list, got 5"]
    # A typology that is not a string, and an integer field that is a bool,
    # a fraction or not finite, is a problem, not a crash or a silent cast.
    node, other = BASE["nodes"]
    task = {"id": 1, "origin": 1, "at": 1.0, "typology": "generic", "work": 1.0}
    for extras, problems in (
        ({"nodes": [dict(node, typologies=["generic", 3]), other]},
         ["node 1: typologies: expected a list of strings, got ['generic', 3]"]),
        ({"nodes": [dict(node, typologies=[{"a": 1}]), other]},
         ["node 1: typologies: expected a list of strings, got [{'a': 1}]"]),
        ({"tasks": [dict(task, typology=5)]},
         ["tasks[0]: typology: expected a string, got 5"]),
        ({"nodes": [dict(node, memory=512.5), other]},
         ["node 1: memory: expected an integer, got 512.5"]),
        ({"tasks": [dict(task, memory=100.9)]},
         ["tasks[0]: memory: expected an integer, got 100.9"]),
        ({"nodes": [node, dict(other, id=1.7)]},
         ["nodes[1]: id: expected an integer, got 1.7"]),
        ({"nodes": [dict(node, id=True), other]},
         ["nodes[0]: id: expected an integer, got True"]),
        ({"tasks": [dict(task, id=math.inf, origin=math.nan)]},
         ["tasks[0]: id: expected an integer, got inf",
          "tasks[0]: origin: expected an integer, got nan"]),
        ({"partitions": [{"a": [1], "b": [2, False], "start": 1.0, "end": 2.0}]},
         ["partitions[0]: b: expected a list of integers, got [2, False]"]),
        # A bool is not a number either, where a float or a setting is read.
        ({"nodes": [dict(node, cpu_perf_index=True), other]},
         ["node 1: cpu_perf_index: expected a number, got True"]),
        ({"nodes": [dict(node, battery=True), other]},
         ["node 1: battery: expected a number or MAINS, got True"]),
        ({"nodes": [dict(node, position={"x": True, "y": 0}), other]},
         ["node 1: position: expected [x, y] or {x: .., y: ..}, got {'x': True, 'y': 0}"]),
        # A position is two numbers in a list, or exactly x and y: no other
        # key, and no string, which would unpack into its characters.
        ({"nodes": [dict(node, position={"x": 1, "y": 0, "z": 5}), other]},
         ["node 1: position: expected [x, y] or {x: .., y: ..}, got {'x': 1, 'y': 0, 'z': 5}"]),
        ({"nodes": [dict(node, position="12"), other]},
         ["node 1: position: expected [x, y] or {x: .., y: ..}, got '12'"]),
        ({"events": [{"type": "move", "node": 1, "at": 1.0, "to": "34"}]},
         ["events[0]: to: expected [x, y] or {x: .., y: ..}, got '34'"]),
        # An integer too large for a float is a problem, not an OverflowError.
        ({"nodes": [dict(node, start_time=10**400), other]},
         [f"node 1: start_time: expected a number, got {10**400}"]),
        ({"nodes": [dict(node, position=[10**400, 0]), other]},
         [f"node 1: position: expected [x, y] or {{x: .., y: ..}}, got [{10**400}, 0]"]),
        # A number that is read, but NaN or infinite where no run can use
        # it: NaN never drains, a NaN start never joins and freezes the
        # event loop, a move cannot leave the plane.
        ({"nodes": [dict(node, drain_rate=math.nan), other]},
         ["node 1: hw.drain_rate not finite or negative"]),
        ({"nodes": [dict(node, drain_rate=math.inf), other]},
         ["node 1: hw.drain_rate not finite or negative"]),
        ({"nodes": [dict(node, start_time=math.nan), other]},
         ["node 1: start_time outside run window"]),
        ({"events": [{"type": "move", "node": 1, "at": 1.0, "to": [math.nan, 0]}]},
         ["event move: to: not finite"]),
        ({"events": [{"type": "move", "node": 1, "at": 1.0, "to": {"x": 0, "y": -math.inf}}]},
         ["event move: to: not finite"]),
        ({"partitions": [{"a": [1], "b": [2], "start": -5.0, "end": 2.0}]},
         ["partition: start outside run window"]),
        # A negative count, which would generate no task without a word.
        ({"workload": {"count": -5, "origins": [1]}},
         ["workload: count: must be >= 0"]),
        # An infinite speed finishes a run in no time, which once re-armed
        # its completion timer at one instant forever.
        ({"nodes": [dict(node, cpu_perf_index=math.inf, link_bandwidth=math.inf), other]},
         ["node 1: hw.cpu_perf_index not finite", "node 1: hw.link_bandwidth not finite"]),
        ({"tasks": [dict(task, work=math.inf)]}, ["task 1: work not finite"]),
        # A size no transfer could take, on a source or on a task input.
        ({"data_sources": [{"id": 7, "owner": 1, "size": math.inf}]},
         ["data source 7: data source size must be finite"]),
        ({"data_sources": [{"id": 7, "owner": 1, "size": math.nan}]},
         ["data source 7: data source size must be positive"]),
        ({"data_sources": [{"id": 7, "owner": 1, "size": 1.0}],
          "tasks": [dict(task, inputs=[{"source": 7, "size": math.inf}])]},
         ["task 1: input_data size not finite"]),
        ({"data_sources": [{"id": 7, "owner": 1, "size": 1.0}],
          "tasks": [dict(task, inputs=[{"source": 7, "size": math.nan}])]},
         ["task 1: input_data size not positive"]),
        ({"net": {"loss_prob": True}},
         ["net: loss_prob: expected a number, got True"]),
        ({"scheduler": {"w_availability": True, "w_qos": False, "w_locality": 0}},
         ["scheduler: w_availability: expected a number, got True",
          "scheduler: w_qos: expected a number, got False",
          "scheduler: score weights must sum to 1, got 0.8"]),
    ):
        assert with_extras(**extras).validate() == problems, extras
    # A numeric string is still a number, and an integral float an integer.
    sc = with_extras(nodes=[dict(node, cpu_perf_index="1.5", position={"x": "2", "y": 0}),
                            other])
    assert sc.validate() == []
    profile = sc.nodes[0].profile
    assert (profile.hw.cpu_perf_index, profile.dyn.position.x) == (1.5, 2.0)
    # Settings blocks read their numbers the same way.
    sc = with_extras(net={"loss_prob": "0.5"}, scheduler={"w_qos": "0.4"})
    assert sc.validate() == [] and (sc.net.loss_prob, sc.scheduler.w_qos) == (0.5, 0.4)
    sc = with_extras(nodes=[dict(node, id=1.0, memory=512.0), other],
                     tasks=[dict(task, id=2.0, origin=1.0, memory=64.0)])
    assert sc.validate() == []
    profile = sc.nodes[0].profile
    assert (profile.node, profile.hw.memory) == (1, 512)
    assert type(profile.node) is int and type(sc.tasks[0][1].task_id) is int


# A 2-node scenario that uses every numeric field the intake schedules or
# places by; the property below replaces a few of them at a time.
INTAKE = dict(
    BASE,
    nodes=[
        dict(BASE["nodes"][0], battery=0.8, drain_rate=0.01, start_time=0.0),
        dict(BASE["nodes"][1], start_time=1.0),
    ],
    data_sources=[{"id": 1, "owner": 2, "size": 4.0}],
    tasks=[{"id": 1, "origin": 1, "at": 2.0, "typology": "generic", "work": 1.0,
            "deadline": 10.0, "inputs": [{"source": 1, "size": 2.0}]}],
    events=[{"type": "crash", "node": 2, "at": 10.0},
            {"type": "move", "node": 1, "at": 5.0, "to": [20.0, 0.0]}],
    partitions=[{"a": [1], "b": [2], "start": 3.0, "end": 6.0}],
    net={"base_latency": 0.01, "latency_per_meter": 0.0001, "radio_range": 500.0,
         "loss_prob": 0.0},
)
INTAKE_FIELDS = [
    ("duration",),
    ("nodes", 0, "start_time"), ("nodes", 1, "start_time"), ("nodes", 0, "drain_rate"),
    ("nodes", 0, "battery"), ("nodes", 0, "cpu_perf_index"), ("nodes", 0, "utilization"),
    ("nodes", 0, "position", 0), ("nodes", 1, "position", 1),
    ("tasks", 0, "at"), ("tasks", 0, "work"), ("tasks", 0, "deadline"),
    ("events", 0, "at"), ("events", 1, "at"), ("events", 1, "to", 0), ("events", 1, "to", 1),
    ("partitions", 0, "start"), ("partitions", 0, "end"),
    ("net", "base_latency"), ("net", "latency_per_meter"), ("net", "radio_range"),
    ("net", "loss_prob"), ("nodes", 0, "link_bandwidth"),
    ("nodes", 0, "memory"), ("tasks", 0, "memory"),
    ("data_sources", 0, "size"), ("tasks", 0, "inputs", 0, "size"),
]
NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -5.0, -0.0, 1e17, 5e-324, 10**400]),
    st.floats(min_value=0.0, max_value=40.0),
)
INTAKE_CHANGES = st.lists(st.tuples(st.sampled_from(INTAKE_FIELDS), NUMBERS),
                          min_size=1, max_size=3)


def intake_with(changes) -> scen.Scenario:
    raw = copy.deepcopy(INTAKE)
    for path, value in changes:
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return scen.parse_scenario(raw)


@settings(max_examples=200, deadline=None)
@given(INTAKE_CHANGES)
def test_a_scenario_that_validates_builds_into_a_runnable_queue(changes):
    sc = intake_with(changes)
    if sc.validate():
        return
    sim, _, _ = scen.build(sc)
    for time, _, action, args in sim._queue:
        # NaN fails this too; an infinite partition end may stay queued.
        assert time >= 0, (time, action.__name__)
        if action == sim.move:
            to = args[1]
            assert math.isfinite(to.x) and math.isfinite(to.y), args


# Simulated seconds each drawn scenario runs: past the task's arrival at
# t=2 and its 1 s of work, not to a drawn duration of up to 1e17 s.
RUN_HORIZON = 6.0


@settings(max_examples=100, deadline=None)
@given(INTAKE_CHANGES)
def test_a_scenario_that_validates_runs_and_accounts_for_its_tasks(changes):
    sc = intake_with(changes)
    if sc.validate():
        return
    sim, _, collector = scen.build(sc)
    sim.run_until(min(sc.duration, RUN_HORIZON))
    report = collector.report()
    assert report.balance_holds() and report.tasks_in_flight >= 0, report
