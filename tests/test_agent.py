"""NodeAgent dispatch tables and the executor -> origin report."""

import ast
from pathlib import Path

import pytest

from swarmsim import agent, wire
from swarmsim import scenario as scen
from swarmsim.sim import SimFault

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


def _bench_list(name: str) -> list:
    """A list literal assigned at the top of `bench/run.py`, read unimported."""
    for node in ast.parse((ROOT / "bench" / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise KeyError(name)


def test_message_table_covers_every_wire_kind():
    assert set(agent._MESSAGE_HANDLERS) == wire.ALL_KINDS


def test_timer_table_covers_the_benchmarked_timer_kinds():
    assert sorted(agent._TIMER_HANDLERS) == sorted(_bench_list("TIMER_KINDS"))


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


def test_open_tasks_index_is_the_open_subset_of_tasks():
    sc = scen.load_scenario(ROOT / "scenarios" / "heavy_churn.yaml")
    sim, agents, _ = scen.build(sc)
    seen_open = seen_closed = 0
    t = 0.0
    while t < sc.duration:
        t = min(sc.duration, t + 0.25)
        sim.run_until(t)
        for a in agents.values():
            expected = {
                task_id: ot
                for task_id, ot in a.tasks.items()
                if not (ot.done or ot.failed)
            }
            assert list(a.open_tasks) == list(expected)
            assert all(a.open_tasks[k] is ot for k, ot in expected.items())
            seen_open += len(expected)
            seen_closed += len(a.tasks) - len(expected)
    assert seen_open > 0 and seen_closed > 0
