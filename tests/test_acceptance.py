"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria (run with `pytest -v -s tests/test_acceptance.py` to see the lines):
  A1 determinism of the reference scenarios
  A2 membership/registry convergence bound after churn, N in {8,16,32,64}
  A3 partition tolerance: per-side progress, single swarm after heal
  A4 local-first + scoring-oracle + claim/capacity invariants on all traces
  A5 availability-aware scoring beats availability-blind under churn
  A6 locality-aware scoring lowers transfer time on the data-locality layout
  A7 re-placement within T_dead + one probe round after an executor crash
  A8 semilattice properties of view and registry merges (>= 10^4 cases)
  A9 cognition oracles: survival counting, completion formula, ewma bound
"""

import dataclasses
import glob
import hashlib
import json
import math
import os
import random
import time

import pytest

from swarmsim import agent, gossip, membership, scenario as scen
from swarmsim.cognition import (
    EWMA_ALPHA,
    LoadForecast,
    SessionHistory,
    churn_survival,
    forecast_load,
    predict_completion,
)
from swarmsim.membership import MemberState, SwarmView, merge_views
from swarmsim.registry import Registry, RegistryEntry
from swarmsim.scheduler import SchedulerParams

from conftest import make_profile, make_task

SCENARIOS = sorted(glob.glob("scenarios/*.yaml"))

BLIND_AVAILABILITY = SchedulerParams(w_availability=0.0, w_qos=2 / 3, w_locality=1 / 3)
BLIND_LOCALITY = SchedulerParams(w_availability=0.5, w_qos=0.5, w_locality=0.0)


def report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def reference_runs():
    """One run of each shipped scenario, reused across criteria."""
    runs = {}
    for path in SCENARIOS:
        sc = scen.load_scenario(path)
        t0 = time.time()
        res = scen.run(sc)
        runs[path] = (sc, res, time.time() - t0)
    return runs


# -- A1 ---------------------------------------------------------------------

# sha256 of `write_trace_jsonl` output per shipped scenario at its default
# seed. A change that claims to keep behaviour must leave these unchanged; a
# change that alters traces on purpose re-pins them and says why.
PINNED_TRACE_SHA256 = {
    "data_locality": "8178dc9fcdf7442b9377e26fcd31220e5e59b2e63a6cab1ffa0c49e73fdde804",
    "heavy_churn": "73e0f348fa3a93fdc2e21109584f8bcb5b6729534e274072e43f1cbb17f296f2",
    "partition_heal": "02cc8dcac99c580899ddb13e22ba80caa1336bdc855e6481933d5d7756de7561",
    "steady_state": "1868b346d8ba1140824e107e9292ce055c91627cdc6ded7c43af0c7748dd944d",
}

# sha256 of `MetricsReport.write_csv` output, pinned on the same terms.
PINNED_METRICS_SHA256 = {
    "data_locality": "bd0dda78b50000c1306a3ce82426706f5f371d63d42ce767672a4613e94f3b38",
    "heavy_churn": "54a3690f4c012efe1a402ceebe1d87d8872a0e154c7a3a794c11b3c21c10f56a",
    "partition_heal": "351fe72b0a3b679d9c657660795b2c6bde0653b7ccabf40b09c01e9e489ceaf1",
    "steady_state": "6a5cafae31437d5f71c3191422f55b5ce81753c10386dc5816c699520bbe5f02",
}


def test_a1_determinism(reference_runs, tmp_path):
    worst = 0.0
    shipped = sorted(os.path.basename(p)[: -len(".yaml")] for p in reference_runs)
    assert sorted(PINNED_TRACE_SHA256) == sorted(PINNED_METRICS_SHA256) == shipped, (
        "every shipped scenario needs pinned trace and metrics hashes"
    )
    for path, (sc, first, elapsed) in reference_runs.items():
        worst = max(worst, elapsed)
        again = scen.run(sc)
        m1 = json.dumps(first.report.rows(), sort_keys=True)
        m2 = json.dumps(again.report.rows(), sort_keys=True)
        name = os.path.basename(path)[: -len(".yaml")]
        out = tmp_path / f"{name}.jsonl"
        scen.write_trace_jsonl(first.trace, out)
        out_again = tmp_path / f"{name}.again.jsonl"
        scen.write_trace_jsonl(again.trace, out_again)
        assert out.read_bytes() == out_again.read_bytes(), (
            f"{path}: traces differ between identical runs"
        )
        assert m1 == m2, f"{path}: metrics differ between identical runs"
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == PINNED_TRACE_SHA256[name], f"{path}: trace sha256 changed"
        csv_out = tmp_path / f"{name}.csv"
        first.report.write_csv(csv_out)
        digest = hashlib.sha256(csv_out.read_bytes()).hexdigest()
        assert digest == PINNED_METRICS_SHA256[name], f"{path}: metrics sha256 changed"
    report(
        "A1 determinism",
        worst < 10.0,
        f"{len(reference_runs)} scenarios byte-identical on re-run and to their "
        f"pinned trace and metrics sha256, slowest {worst:.2f}s",
    )


# -- A2 ---------------------------------------------------------------------

def _churn_scenario(n):
    nodes = [
        {"id": i, "position": [(i % 8) * 10, (i // 8) * 10],
         "typologies": ["generic"], "battery": "MAINS"}
        for i in range(1, n + 1)
    ]
    events = []
    for k, i in enumerate(range(2, n + 1, 3)):
        events.append({"type": "crash", "node": i, "at": 5.0 + k % 10})
        if k % 2 == 0:
            events.append({"type": "join", "node": i, "at": 16.0 + k % 10})
    for i in range(3, n + 1, 7):
        events.append({"type": "leave", "node": i, "at": 12.0 + i % 5})
    churn_end = 30.0
    bound_rounds = 3 * math.ceil(math.log2(n)) + 5
    sc = scen.parse_scenario({
        "name": f"churn{n}",
        "duration": churn_end + bound_rounds * agent.PROBE_PERIOD,
        "seed": n,
        "net": {"loss_prob": 0.02},
        "nodes": nodes,
        "events": events,
    })
    return sc, bound_rounds


def test_a2_convergence_bound():
    details = []
    for n in (8, 16, 32, 64):
        sc, bound = _churn_scenario(n)
        res = scen.run(sc)
        up = [a for node, a in sorted(res.agents.items()) if res.sim.node_up(node)]
        views = {a.view.member_set_digest() for a in up}
        regs = {a.registry.content_hash() for a in up}
        assert len(views) == 1, f"N={n}: {len(views)} distinct views at bound"
        assert len(regs) == 1, f"N={n}: {len(regs)} distinct registries at bound"
        details.append(f"N={n}<= {bound} rounds")
    report("A2 convergence", True, "; ".join(details))


# -- A3 ---------------------------------------------------------------------

def test_a3_partition_tolerance():
    sc = scen.load_scenario("scenarios/partition_heal.yaml")
    res = scen.run(sc)
    start = next(r["t"] for r in res.trace if r["type"] == "partition_start")
    end = next(r["t"] for r in res.trace if r["type"] == "partition_end")
    side_a = set(sc.partitions[0][0])
    side_b = set(sc.partitions[0][1])
    done = [r for r in res.trace if r["type"] == "task_done" and start <= r["t"] < end]
    a_done = sum(1 for r in done if r["node"] in side_a)
    b_done = sum(1 for r in done if r["node"] in side_b)
    assert a_done >= 1 and b_done >= 1, "a side finished nothing mid-partition"

    # Distinct swarm identities while split.
    sim_mid, agents_mid, _ = scen.build(sc)
    sim_mid.run_until(end - 5.0)
    mid_ids = {agents_mid[n].view.swarm_id for n in agents_mid if sim_mid.node_up(n)}
    assert len(mid_ids) == 2, f"expected 2 swarms during partition, saw {mid_ids}"

    # One identity and converged replicas within 20 probe rounds of the heal.
    sim2, agents2, _ = scen.build(sc)
    sim2.run_until(end + 20 * agent.PROBE_PERIOD)
    up = [agents2[n] for n in sorted(agents2) if sim2.node_up(n)]
    ids = {a.view.swarm_id for a in up}
    regs = {a.registry.content_hash() for a in up}
    assert len(ids) == 1, f"swarm ids after heal: {ids}"
    assert len(regs) == 1, "registries did not converge after heal"
    report(
        "A3 partition tolerance",
        True,
        f"split completions {a_done}/{b_done}, swarms {sorted(mid_ids)} -> {ids}",
    )


# -- A4 ---------------------------------------------------------------------

def _oracle_rank(candidates, weights, k):
    """Independent re-implementation of the scoring rule over raw inputs."""
    w_a, w_q, w_l = weights
    rows = []
    for c in candidates:
        qos = max(0.0, min(1.0, c["deadline_remaining"] / c["completion"]))
        loc = 1.0 / (1.0 + c["distance"] / 100.0)
        avail = max(0.0, min(1.0, c["availability"]))
        rows.append((c["node"], w_a * avail + w_q * qos + w_l * loc))
    rows.sort(key=lambda nt: (-nt[1], nt[0]))
    return [n for n, _ in rows[:k]]


def test_a4_scheduling_invariants(reference_runs):
    decisions = offers_checked = 0
    for path, (sc, res, _) in reference_runs.items():
        trace = res.trace
        weights = (
            sc.scheduler.w_availability,
            sc.scheduler.w_qos,
            sc.scheduler.w_locality,
        )
        k = agent.TOP_K

        # Local-first: an attempt admitted locally must emit no OFFERs.
        local = {(r["task"], r["attempt"]) for r in trace if r["type"] == "local_admit"}
        remote = {(r["task"], r["attempt"]) for r in trace if r["type"] == "sched_decision"}
        assert not (local & remote), f"{path}: attempt both local and offered"
        for r in trace:
            if r["type"] == "send" and r["kind"] == "OFFER":
                # The task travels in its positional form, its id first.
                key = (r["body"]["task"][0], r["body"]["attempt"])
                assert key not in local, f"{path}: OFFER for locally-admitted {key}"
                offers_checked += 1

        # Scoring oracle on every decision with <= 6 candidates.
        for r in trace:
            if r["type"] != "sched_decision" or len(r["candidates"]) > 6:
                continue
            expected = _oracle_rank(r["candidates"], weights, k)
            assert r["chosen"] == expected, (
                f"{path}: decision t={r['t']} task={r['task']} "
                f"chose {r['chosen']}, oracle {expected}"
            )
            decisions += 1

        # At most one CLAIM per attempt; at most one DONE per task.
        claims = {}
        for r in trace:
            if r["type"] == "claim":
                key = (r["task"], r["attempt"])
                claims[key] = claims.get(key, 0) + 1
        assert all(v == 1 for v in claims.values()), f"{path}: duplicated CLAIM"
        done_counts = {}
        for r in trace:
            if r["type"] == "task_done":
                done_counts[r["task"]] = done_counts.get(r["task"], 0) + 1
        assert all(v == 1 for v in done_counts.values()), f"{path}: double DONE"

        # Capacity safety: replay reservations against each node's memory.
        memory_of = {n.profile.node: n.profile.hw.memory for n in sc.nodes}
        held = {}  # node -> {(task, attempt): memory}
        for r in trace:
            node = r.get("node")
            if r["type"] == "reserve":
                held.setdefault(node, {})[(r["task"], r["attempt"])] = r["memory"]
                used = sum(held[node].values())
                assert used <= memory_of[node], (
                    f"{path}: node {node} over memory at t={r['t']}"
                )
            elif r["type"] in ("release", "run_done", "run_failed", "run_evicted"):
                held.get(node, {}).pop((r["task"], r["attempt"]), None)
    report(
        "A4 scheduling invariants",
        True,
        f"{decisions} decisions matched oracle, {offers_checked} OFFERs local-first-clean",
    )


# -- A5 ---------------------------------------------------------------------

def test_a5_availability_benefit():
    sc = scen.load_scenario("scenarios/heavy_churn.yaml")
    wins, diffs = 0, []
    for seed in range(20):
        aware = scen.run(sc, seed=seed).report.failure_rate()
        blind = scen.run(dataclasses.replace(sc, scheduler=BLIND_AVAILABILITY), seed=seed)
        blind = blind.report.failure_rate()
        diffs.append(aware - blind)
        wins += aware < blind
    mean_diff = sum(diffs) / len(diffs)
    ok = mean_diff < 0 and wins >= 14  # 70% of 20 seeds
    report(
        "A5 availability benefit",
        ok,
        f"aware better in {wins}/20 seeds, mean failure-rate diff {mean_diff:+.3f}",
    )


# -- A6 ---------------------------------------------------------------------

def test_a6_locality_benefit():
    sc = scen.load_scenario("scenarios/data_locality.yaml")
    wins, diffs = 0, []
    for seed in range(20):
        aware = scen.run(sc, seed=seed).report.mean_transfer_time
        blind = scen.run(dataclasses.replace(sc, scheduler=BLIND_LOCALITY), seed=seed)
        blind = blind.report.mean_transfer_time
        diffs.append(aware - blind)
        wins += aware < blind
    mean_diff = sum(diffs) / len(diffs)
    ok = mean_diff < 0 and wins >= 14
    report(
        "A6 locality benefit",
        ok,
        f"lower transfer in {wins}/20 seeds, mean diff {mean_diff:+.3f}s",
    )


# -- A7 ---------------------------------------------------------------------

def test_a7_self_healing_latency():
    hits, worst = 0, 0.0
    for rep in range(20):
        raw = {
            "name": "kill-executor",
            "duration": 30.0,
            "seed": rep,
            # Lossless link: the single capable nearby executor then wins the
            # offer round deterministically, so the crash always hits it.
            "net": {"loss_prob": 0.0},
            "nodes": [
                {"id": 1, "position": [0, 0], "typologies": [], "battery": "MAINS"},
                {"id": 2, "position": [5, 0], "cpu_perf_index": 1.0, "memory": 2048,
                 "typologies": ["generic"], "battery": "MAINS"},
                {"id": 3, "position": [50, 0], "cpu_perf_index": 1.0, "memory": 2048,
                 "typologies": ["generic"], "battery": "MAINS"},
            ],
            "tasks": [{"id": 1, "origin": 1, "at": 5.0 + 0.1 * rep,
                       "typology": "generic", "work": 12.0, "memory": 128,
                       "deadline": 25.0}],
            "events": [{"type": "crash", "node": 2, "at": 8.0}],
        }
        sc = scen.parse_scenario(raw)
        res = scen.run(sc, seed=rep)
        crash_t = next(r["t"] for r in res.trace if r["type"] == "crash")
        claimed = [r for r in res.trace if r["type"] == "claim" and r["attempt"] == 1]
        assert claimed and claimed[0]["executor"] == 2, "setup: wrong executor"
        budget = gossip.T_DEAD + agent.PROBE_PERIOD
        replaced = [
            r for r in res.trace
            if r["type"] in ("sched_decision", "local_admit", "unschedulable")
            and r.get("task") == 1 and r["attempt"] >= 2 and r["t"] >= crash_t
        ]
        assert replaced, f"rep {rep}: no re-placement after executor crash"
        latency = replaced[0]["t"] - crash_t
        worst = max(worst, latency)
        hits += latency <= budget
    report(
        "A7 self-healing latency",
        hits == 20,
        f"{hits}/20 within T_dead + probe round, worst {worst:.2f}s (budget 1.60s)",
    )


# -- A8 ---------------------------------------------------------------------

def _random_state(rng):
    return MemberState(
        node=rng.randrange(1, 7),
        status=rng.choice([membership.ALIVE, membership.SUSPECT,
                           membership.DEAD, membership.LEFT]),
        incarnation=rng.randrange(0, 5),
        last_update_time=rng.uniform(0.0, 100.0),
    )


def _random_view(rng):
    v = SwarmView(self_node=1)
    for _ in range(rng.randrange(0, 10)):
        v.apply(_random_state(rng))
    return v


def _canon_view(v):
    return {
        n: (m.status, m.incarnation, m.last_update_time)
        for n, m in v.members.items()
    }


def _random_entry(rng, node):
    # A version uniquely identifies an entry's content in the protocol, so
    # derive the payload from (node, version) instead of sampling it freely.
    version = (rng.randrange(0, 4), rng.randrange(0, 6))
    return RegistryEntry(
        node=node,
        profile=make_profile(node=node, utilization=0.5 if version[1] % 2 else 0.0),
        version=version,
        stamped_time=float(10 * version[0] + version[1]),
    )


def _reg_with(entries):
    reg = Registry(owner=0)
    for e in entries:
        reg.merge(e)
    return reg


def _canon_reg(reg):
    return {n: (e.version, e.stamped_time) for n, e in reg.entries.items()}


def test_a8_semilattice_properties():
    rng = random.Random(2024)
    rank = membership._STATUS_RANK
    view_cases = 6000
    for _ in range(view_cases):
        a, b, c = _random_view(rng), _random_view(rng), _random_view(rng)
        ab, ba = merge_views(a, b), merge_views(b, a)
        assert _canon_view(ab) == _canon_view(ba), "view merge not commutative"
        left = merge_views(merge_views(a, b), c)
        right = merge_views(a, merge_views(b, c))
        assert _canon_view(left) == _canon_view(right), "view merge not associative"
        assert _canon_view(merge_views(a, a)) == _canon_view(a), "not idempotent"
        for node, m in a.members.items():
            out = ab.members[node]
            assert (out.incarnation, rank[out.status]) >= (
                m.incarnation, rank[m.status]
            ), "view merge regressed a record"

    reg_cases = 6000
    for _ in range(reg_cases):
        pool = [_random_entry(rng, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 7))]
        split = rng.randrange(0, len(pool) + 1)
        xs, ys = pool[:split], pool[split:]
        ab = _reg_with(xs + ys)
        ba = _reg_with(ys + xs)
        assert _canon_reg(ab) == _canon_reg(ba), "registry merge order-dependent"
        twice = _reg_with(xs + xs + ys)
        assert _canon_reg(twice) == _canon_reg(ab), "registry merge not idempotent"
        for e in pool:
            assert ab.entries[e.node].version >= e.version, "version regressed"
    report(
        "A8 semilattice properties",
        True,
        f"{view_cases} view-merge + {reg_cases} registry-merge cases, 0 counterexamples",
    )


# -- A9 ---------------------------------------------------------------------

def test_a9_cognition_oracles():
    rng = random.Random(11)
    # Survival counting oracle, exact, >= 10^3 randomized histories.
    cases = 1500
    for _ in range(cases):
        durations = tuple(rng.uniform(0, 100) for _ in range(rng.randrange(0, 15)))
        age, horizon = rng.uniform(0, 60), rng.uniform(0, 60)
        h = SessionHistory(durations=durations, current_session_age=age)
        survived = sum(1 for d in durations if d >= age + horizon)
        reached = sum(1 for d in durations if d >= age)
        assert churn_survival(h, horizon) == (survived + 1) / (reached + 2)

    # Completion formula within 1e-9.
    for _ in range(500):
        perf, util = rng.uniform(0.1, 8.0), rng.uniform(0.0, 1.0)
        bw, work = rng.uniform(0.5, 50.0), rng.uniform(0.01, 50.0)
        inputs = [(rng.uniform(0.1, 40.0), rng.uniform(0.0, 400.0))
                  for _ in range(rng.randrange(0, 4))]
        p = make_profile(perf=perf, bandwidth=bw, utilization=util)
        expected = sum(s / bw + 0.01 + 0.0001 * d for s, d in inputs)
        expected += work / (perf * max(0.05, 1.0 - util))
        got = predict_completion(make_task(work=work), p, inputs,
                                 base_latency=0.01, latency_per_meter=0.0001)
        assert abs(got - expected) <= 1e-9

    # EWMA geometric-decay bound.
    target, alpha = 0.9, EWMA_ALPHA
    state = LoadForecast(ewma_utilization=0.1)
    steps = math.ceil(math.log(1e-6 / abs(target - 0.1)) / math.log(1 - alpha))
    for _ in range(steps):
        state = forecast_load(target, state)
    assert abs(state.ewma_utilization - target) < 1e-6
    report(
        "A9 cognition oracles",
        True,
        f"{cases} survival cases exact, 500 completion cases within 1e-9, "
        f"ewma bound in {steps} steps",
    )
