import pytest

from swarmsim import executor
from swarmsim.executor import ExecutorEngine, TaskRun


def run_of(task_id, work, state=executor.RUNNING, memory=64):
    return TaskRun(
        task_id=task_id,
        attempt=1,
        state=state,
        remaining_work=work,
        memory=memory,
        origin=1,
        submitted_at=0.0,
        deadline=60.0,
    )


def test_sole_task_finishes_after_work_over_perf():
    eng = ExecutorEngine(10.0)
    eng.runs[1] = run_of(1, 100.0)
    t, task = eng.next_finish(0.0)
    assert task == 1 and t == pytest.approx(10.0)
    eng.integrate(10.0)
    assert eng.runs[1].remaining_work <= executor.FINISH_EPS
    assert eng.finished_runs() == [eng.runs[1]]


def test_two_tasks_fair_share_hand_computation():
    """perf 2, works 4 and 8: both at rate 1 until t=4, then task 2 alone.

    Task 1 done at t=4; task 2 has 4 left, runs at rate 2, done at t=6.
    """
    eng = ExecutorEngine(2.0)
    eng.runs[1] = run_of(1, 4.0)
    eng.runs[2] = run_of(2, 8.0)
    t, first = eng.next_finish(0.0)
    assert (t, first) == (pytest.approx(4.0), 1)
    eng.integrate(4.0)
    assert eng.runs[1].remaining_work == pytest.approx(0.0, abs=1e-9)
    assert eng.runs[2].remaining_work == pytest.approx(4.0, abs=1e-9)
    eng.runs[1].transition(executor.DONE)
    t2, second = eng.next_finish(4.0)
    assert (t2, second) == (pytest.approx(6.0), 2)
    eng.integrate(6.0)
    assert eng.runs[2].remaining_work == pytest.approx(0.0, abs=1e-9)


def test_work_conservation_across_many_change_points():
    eng = ExecutorEngine(3.0)
    works = {1: 2.0, 2: 5.0, 3: 1.5, 4: 7.25}
    for tid, w in works.items():
        eng.runs[tid] = run_of(tid, w)
    now = 0.0
    while True:
        nxt = eng.next_finish(now)
        if nxt is None:
            break
        now = nxt[0]
        eng.integrate(now)
        for run in eng.finished_runs():
            run.transition(executor.DONE)
    for tid, w in works.items():
        assert eng.runs[tid].progressed == pytest.approx(w, abs=1e-9)


def test_integration_never_overshoots():
    eng = ExecutorEngine(10.0)
    eng.runs[1] = run_of(1, 1.0)
    eng.integrate(100.0)  # way past completion
    assert eng.runs[1].remaining_work == 0.0
    assert eng.runs[1].progressed == pytest.approx(1.0)


def test_utilization_counts_reserved_and_transferring():
    """Every run held is live, Reserved and Transferring ones too; a run
    that ends leaves the table."""
    eng = ExecutorEngine(1.0)
    assert eng.utilization() == 0.0
    eng.runs[1] = run_of(1, 1.0, state=executor.RESERVED)
    assert eng.utilization() == pytest.approx(0.5)
    eng.runs[2] = run_of(2, 1.0, state=executor.TRANSFERRING)
    assert eng.utilization() == pytest.approx(2 / 3)
    del eng.runs[1]
    assert eng.utilization() == pytest.approx(0.5)


def test_memory_accounting():
    """Every run held holds its memory, whatever its live state, until it
    leaves the table."""
    eng = ExecutorEngine(1.0)
    eng.runs[1] = run_of(1, 1.0, memory=100)
    eng.runs[2] = run_of(2, 1.0, state=executor.RESERVED, memory=50)
    eng.runs[3] = run_of(3, 1.0, state=executor.TRANSFERRING, memory=25)
    assert eng.memory_in_use() == 175
    del eng.runs[1]
    assert (eng.memory_in_use(), eng.active_count()) == (75, 2)


def test_illegal_transitions_raise():
    run = run_of(1, 1.0, state=executor.RESERVED)
    with pytest.raises(ValueError):
        run.transition(executor.DONE)  # must pass through Running
    run.transition(executor.TRANSFERRING)
    run.transition(executor.RUNNING)
    run.transition(executor.DONE)
    with pytest.raises(ValueError):
        run.transition(executor.RUNNING)  # terminal


def test_generation_bumps_on_integrate():
    eng = ExecutorEngine(1.0)
    g0 = eng.generation
    eng.integrate(1.0)
    assert eng.generation == g0 + 1


def test_projected_finish_uses_current_share():
    eng = ExecutorEngine(2.0)
    eng.runs[1] = run_of(1, 4.0)
    eng.runs[2] = run_of(2, 4.0)
    # two runners share perf 2 -> rate 1 each -> 4 seconds from now
    assert eng.projected_finish(eng.runs[1], 10.0) == pytest.approx(14.0)


def test_finish_first_completes_the_run_due_at_now_at_the_fair_share():
    # Share 5e16 each: 0.5 work is due within the resolution of t=2.5,
    # 1000 work is not; both progress by 0.5.
    eng = ExecutorEngine(1.0e17)
    eng.integrate(2.5)
    eng.runs[1] = run_of(1, 0.5)
    eng.runs[2] = run_of(2, 1000.0)
    assert eng.next_finish(2.5) == (2.5, 1)
    eng.finish_first()
    assert eng.finished_runs() == [eng.runs[1]]
    assert (eng.runs[1].progressed, eng.runs[2].remaining_work) == (0.5, 999.5)
    eng.runs[1].transition(executor.DONE)
    assert eng.next_finish(2.5)[0] > 2.5
