"""Seconds-long smoke test of the benchmark's generators, checks and tracer.

Runs every workload generator at a tiny size through the same passes the
benchmark uses, in this process, and checks that `run.py` refuses to run
outside a source checkout.
"""

import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest
import yaml

import workloads
import worker
from swarmsim import scenario as scen, wire

HERE = os.path.dirname(os.path.abspath(__file__))

TINY = {
    "swarm64_idle": {"n": 8},
    "swarm64_churn": {"n": 8},
    "tasks16_dense": {"tasks": 16},
}


def _write(tmp_path, wl):
    path = tmp_path / "scenario.yaml"
    path.write_text(wl.yaml_text())
    return str(path)


@pytest.mark.parametrize("name", sorted(TINY))
def test_generator_is_seeded_and_valid(name):
    first = workloads.generate(name, 5, **TINY[name])
    again = workloads.generate(name, 5, **TINY[name])
    assert first.yaml_text() == again.yaml_text()
    assert workloads.generate(name, 6, **TINY[name]).yaml_text() != first.yaml_text()
    sc = scen.parse_scenario(yaml.safe_load(first.yaml_text()))
    assert sc.validate() == []
    for ep, nxt in zip(first.episodes, first.episodes[1:]):
        assert ep.first <= ep.last < ep.until == nxt.first
    if first.episodes:
        assert first.episodes[-1].until == first.duration


@pytest.mark.parametrize("name", sorted(TINY))
def test_check_and_timed_passes_agree(name, tmp_path):
    wl = workloads.generate(name, 2, **TINY[name])
    path = _write(tmp_path, wl)
    episodes = [vars(ep) for ep in wl.episodes]
    encode = wire.encode
    check = worker.check_pass(path, str(tmp_path / "check"), episodes)
    assert wire.encode is encode
    assert all(check["checks"].values()), check["checks"]
    assert check["sim"]["msgs_per_node_s"] > 0 and check["sim"]["trace_mib"] > 0
    assert sum(g["msgs"] for g in check["by_group"].values()) == check["sends"]
    if episodes:
        assert check["ops"]["attempted"] == len(episodes)
        assert "registry_convergence_s" in check["sim"]
    else:
        assert check["ops"]["attempted"] == TINY[name]["tasks"]
        assert "registry_convergence_s" in check["omitted"]
    timed = worker.timed_pass(path, str(tmp_path / "timed"))
    assert timed["sha256"] == check["sha256"]
    assert len(timed["setup_s"]) >= worker.SETUP_REPS


def test_traced_self_times_add_up(tmp_path):
    wl = workloads.generate("tasks16_dense", 1, tasks=16)
    path = _write(tmp_path, wl)
    encode = wire.encode
    traced = worker.traced_pass(path, str(tmp_path / "traced"))
    assert wire.encode is encode
    layers = traced["layers"]
    assert 0 <= traced["wall_s"] - sum(layers.values()) < 0.05 * traced["wall_s"]
    assert layers["scheduler"] > 0 and layers["cognition"] > 0
    assert traced["calls"]["agent.msg.OFFER"] > 0
    assert traced["calls"]["agent.timer.round"] > 0
    assert (tmp_path / "traced" / "spans.bin").stat().st_size == 24 * traced["spans"]


def _agent(entry="r", peers=()):
    """A running agent holding registry entry `entry` for node 1 and the
    membership records `peers`, each (node, status, incarnation)."""
    members = {peer: SimpleNamespace(status=status, incarnation=inc)
               for peer, status, inc in peers}
    entries = {1: SimpleNamespace(to_dict=lambda: {"profile": entry})}
    return SimpleNamespace(view=SimpleNamespace(members=members),
                           registry=SimpleNamespace(entries=entries))


PEERS = [(1, "alive", 0), (2, "alive", 0)]
AGREE = {1: _agent(peers=PEERS), 2: _agent(peers=PEERS)}


def _watch_two_episodes(at_end, suspicions=()):
    """Two episodes sampled every second: 0-0 until 3, then 3-4 until the
    end at 8. Both converge at once; `at_end` is the state at 8, and each
    (time, node) in `suspicions` a false suspicion."""
    episodes = [{"first": 0.0, "last": 0.0, "until": 3.0},
                {"first": 3.0, "last": 4.0, "until": 8.0}]
    watch = worker.EpisodeWatch(episodes, 8.0, 1.0)
    col = SimpleNamespace(last_disturbance=0.0, membership_converged_at=1.0,
                          registry_converged_at=1.0)
    sim = SimpleNamespace(node_up=lambda node: True)
    for now in (1.0, 2.0):
        watch.observe(now, col, sim, AGREE)
    col.last_disturbance = 4.0
    col.membership_converged_at = col.registry_converged_at = 5.0
    for now in (5.0, 6.0, 7.0):
        watch.observe(now, col, sim, AGREE)
    for at, node in suspicions:
        watch.suspicion(at, node)
    watch.observe(8.0, col, sim, at_end)
    assert watch.converged == [{"membership": 1.0, "registry": 1.0},
                               {"membership": 1.0, "registry": 1.0}]
    return watch


def test_episode_fails_unless_agreement_holds_to_its_end():
    # A late registry change that has not spread by the end, with no
    # false suspicion to account for it.
    watch = _watch_two_episodes({1: _agent("r2", PEERS), 2: AGREE[2]})
    assert watch.agree_at_end == [True, False]
    assert watch.split_nodes == [[], [1]]
    assert watch.failed() == [False, True]
    assert watch.unexplained() == [False, True]


def test_false_suspicion_explains_only_disagreement_about_its_node():
    # Node 1 refuted a suspicion raised at 7.4 and republished its entry;
    # node 2 has not heard yet. The suspicion at 3.5 is part of the burst.
    refuted = {1: _agent("r2", [(1, "alive", 1), (2, "alive", 0)]), 2: AGREE[2]}
    watch = _watch_two_episodes(refuted, [(3.5, 2), (7.4, 1)])
    assert watch.suspected == [set(), {1}]
    assert watch.split_nodes == [[], [1]]
    assert watch.failed() == [False, True]
    assert watch.unexplained() == [False, False]
    # The nodes also differ on node 2, which nobody suspected in the window.
    also = {1: _agent("r2", [(1, "alive", 1), (2, "dead", 0)]), 2: AGREE[2]}
    watch = _watch_two_episodes(also, [(3.5, 2), (7.4, 1)])
    assert watch.split_nodes == [[], [1, 2]]
    assert watch.unexplained() == [False, True]


def test_run_refuses_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "swarm64_idle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
