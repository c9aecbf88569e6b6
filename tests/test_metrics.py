import csv
import math

from swarmsim import wire
from swarmsim.metrics import MetricsCollector, MetricsReport, p95
from swarmsim.model import Position
from swarmsim.sim import NetModel, Simulator


def feed(collector, records):
    for rec in records:
        collector.on_record(rec)


def test_task_accounting_and_balance():
    c = MetricsCollector()
    feed(c, [
        {"type": "task_submitted", "t": 1.0, "task": 1},
        {"type": "task_submitted", "t": 2.0, "task": 2},
        {"type": "task_submitted", "t": 3.0, "task": 3},
        {"type": "task_done", "t": 4.0, "task": 1, "latency": 3.0,
         "deadline_violation": False},
        {"type": "task_failed_permanent", "t": 5.0, "task": 2},
    ])
    r = c.report()
    assert (r.tasks_submitted, r.tasks_done, r.tasks_failed_permanent) == (3, 1, 1)
    assert r.tasks_in_flight == 1
    assert r.balance_holds()


def test_balance_fails_on_a_task_closed_twice_or_never_submitted():
    """`tasks_in_flight` counts open task ids, not a remainder, so the
    balance is a check: a second DONE for one task breaks it, and so does a
    DONE for a task never submitted."""
    submitted = [{"type": "task_submitted", "t": 1.0, "task": n} for n in (1, 2)]
    done = {"type": "task_done", "t": 2.0, "task": 1, "latency": 1.0,
            "deadline_violation": False}
    for closes in (
        [done, done],
        [done, {"type": "task_failed_permanent", "t": 3.0, "task": 1}],
        [dict(done, task=7)],
    ):
        c = MetricsCollector()
        feed(c, submitted + closes)
        r = c.report()
        assert r.tasks_in_flight >= 0
        assert not r.balance_holds(), closes


def test_latency_stats_and_violations():
    c = MetricsCollector()
    for i in range(1, 21):
        c.on_record({"type": "task_done", "t": float(i), "task": i, "latency": float(i),
                     "deadline_violation": i > 18})
    r = c.report()
    assert r.mean_task_latency == 10.5
    assert r.p95_task_latency == 19.0
    assert r.deadline_violations == 2


def test_p95_edge_cases():
    assert math.isnan(p95([]))
    assert p95([7.0]) == 7.0
    assert p95([1.0, 2.0]) == 2.0


def test_message_counts_and_reschedules():
    """Message counts are the simulator's per-kind send count."""
    sim = Simulator(seed=0, net=NetModel())
    for node in (1, 2):
        sim.add_node(node, Position(0, 0))
    c = MetricsCollector(sim.sent)
    for kind in (wire.PING, wire.PING, wire.OFFER):
        sim.send(1, 2, wire.Message(kind, {}))
    feed(c, [
        {"type": "sched_decision", "t": 1.0, "attempt": 1},
        {"type": "sched_decision", "t": 2.0, "attempt": 2},
        {"type": "local_admit", "t": 3.0, "attempt": 3},
    ])
    r = c.report()
    assert r.messages_by_type == {"PING": 2, "OFFER": 1}
    assert r.reschedule_attempts == 2


def test_failure_rate():
    r = MetricsReport(tasks_submitted=10, tasks_failed_permanent=1,
                      reschedule_attempts=3)
    assert r.failure_rate() == 0.4
    assert MetricsReport().failure_rate() == 0.0


def test_disturbance_resets_convergence():
    c = MetricsCollector()

    class FakeAgent:
        def __init__(self, node, digest):
            self.node = node
            self._d = digest
            self.engine = type("E", (), {"utilization": staticmethod(lambda: 0.0)})()
            self.view = type("V", (), {"member_set_digest": lambda s: digest})()
            self.registry = type("R", (), {"content_hash": lambda s: digest})()

    class FakeSim:
        def node_up(self, n):
            return True

    agents = {1: FakeAgent(1, "x"), 2: FakeAgent(2, "x")}
    c.sample(1.0, FakeSim(), agents)
    assert c.membership_converged_at == 1.0
    c.on_record({"type": "crash", "t": 2.0, "node": 1})
    assert math.isnan(c.membership_converged_at)
    c.sample(3.0, FakeSim(), agents)
    assert c.membership_converged_at == 3.0


def test_csv_round_trip(tmp_path):
    r = MetricsReport(tasks_submitted=2, tasks_done=2,
                      messages_by_type={"PING": 4},
                      per_node_utilization={1: 0.25})
    path = tmp_path / "m.csv"
    r.write_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "value"]
    d = dict(rows[1:])
    assert d["tasks_submitted"] == "2"
    assert d["messages_PING"] == "4"
    assert d["utilization_mean_node_1"] == "0.25"
