import csv
import json
from pathlib import Path

import pytest
import yaml

from swarmsim import agent, scenario as scen
from swarmsim.cli import main

SMALL = {
    "name": "cli_small",
    "duration": 15.0,
    "seed": 4,
    "nodes": [
        {"id": 1, "position": [0, 0], "typologies": ["generic"], "battery": "MAINS"},
        {"id": 2, "position": [10, 0], "typologies": ["generic"], "battery": "MAINS"},
    ],
    "tasks": [
        {"id": 1, "origin": 1, "at": 2.0, "typology": "generic", "work": 0.5,
         "memory": 64, "deadline": 10.0},
    ],
}


def write_config(tmp_path, raw=SMALL, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", write_config(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("OK")


def test_validate_rejects_bad_config(tmp_path, capsys):
    bad = dict(SMALL, events=[{"type": "crash", "node": 42, "at": 1.0}])
    assert main(["validate", write_config(tmp_path, bad)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_unknown_event_type_fails_validate_and_run_cleanly(tmp_path, capsys):
    bad = dict(SMALL, events=[{"type": "explode", "node": 1, "at": 1.0}])
    cfg = write_config(tmp_path, bad)
    assert main(["validate", cfg]) == 1
    assert "unknown event type" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario") and "unknown event type" in err
    assert not out.exists()


def test_node_without_id_or_mistyped_field_fails_cleanly(tmp_path, capsys):
    nodes = [{"position": [5, 5]}, dict(SMALL["nodes"][0], cpu_perf_index="fast")]
    for bad, problem in (
        (dict(SMALL, nodes=SMALL["nodes"] + nodes[:1]), "nodes[2]: id: required"),
        (dict(SMALL, nodes=nodes[1:]), "node 1: cpu_perf_index: expected a number"),
        (dict(SMALL, duration="ten"), "duration: expected a number, got 'ten'"),
        # Once `validate` stopped here with "error: duration: required" and exit 2.
        ({k: v for k, v in SMALL.items() if k != "duration"}, "duration: required"),
        (dict(SMALL, nodes=[dict(SMALL["nodes"][0], os_tag="linux")]),
         "node 1: unknown field os_tag"),
        (dict(SMALL, nodes=[dict(SMALL["nodes"][0], typologies=["generic", 3])]),
         "node 1: typologies: expected a list of strings, got ['generic', 3]"),
        (dict(SMALL, nodes=[dict(SMALL["nodes"][0], typologies=[{"a": 1}])]),
         "node 1: typologies: expected a list of strings, got [{'a': 1}]"),
        (dict(SMALL, tasks=[dict(SMALL["tasks"][0], typology=5)]),
         "tasks[0]: typology: expected a string, got 5"),
        (dict(SMALL, nodes=[dict(SMALL["nodes"][0], memory=512.5)]),
         "node 1: memory: expected an integer, got 512.5"),
        (dict(SMALL, tasks=[dict(SMALL["tasks"][0], memory=100.9)]),
         "tasks[0]: memory: expected an integer, got 100.9"),
        (dict(SMALL, nodes=[SMALL["nodes"][0], dict(SMALL["nodes"][1], id=1.7)]),
         "nodes[1]: id: expected an integer, got 1.7"),
        (dict(SMALL, nodes=[dict(SMALL["nodes"][0], id=True)]),
         "nodes[0]: id: expected an integer, got True"),
        (dict(SMALL, nodes=[dict(SMALL["nodes"][0], cpu_perf_index=True)]),
         "node 1: cpu_perf_index: expected a number, got True"),
        # Once a traceback: an OverflowError from an integer too large for a float.
        (dict(SMALL, nodes=[dict(SMALL["nodes"][0], start_time=10**400)]),
         f"node 1: start_time: expected a number, got {10**400}"),
        # Once `run` failed here with "cannot schedule into the past", which
        # names no item.
        (dict(SMALL, partitions=[{"a": [1], "b": [2], "start": -5.0, "end": 2.0}]),
         "partition: start outside run window"),
        # Once `run` never returned here: the task's finish rounded to its
        # start, and its completion timer was re-armed at that instant.
        (dict(SMALL, nodes=[dict(SMALL["nodes"][0], cpu_perf_index=float("inf")),
                            SMALL["nodes"][1]]),
         "node 1: hw.cpu_perf_index not finite"),
    ):
        cfg = write_config(tmp_path, bad)
        assert main(["validate", cfg]) == 1
        assert f"INVALID: {problem}" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario") and problem in err
        assert not out.exists()


def test_missing_file_is_an_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.yaml")]) == 2
    assert "error" in capsys.readouterr().err


def test_run_writes_trace_and_metrics(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", write_config(tmp_path), "--out", str(out)])
    assert code == 0
    lines = (out / "trace.jsonl").read_text().splitlines()
    assert lines and all(json.loads(l) for l in lines[:20])
    with open(out / "metrics.csv") as fh:
        rows = dict(list(csv.reader(fh))[1:])
    assert rows["tasks_submitted"] == "1"
    assert rows["tasks_done"] == "1"
    assert "tasks_done: 1" in capsys.readouterr().out


def test_a_task_due_at_its_start_instant_runs_to_its_end(tmp_path, capsys):
    # At 1e17 work/s the task's 0.5 work takes less than the float resolution
    # of t=2.5; `run` used to re-arm its completion timer at t=2.5 forever.
    fast = dict(SMALL["nodes"][0], cpu_perf_index=1.0e17)
    raw = dict(SMALL, nodes=[fast, SMALL["nodes"][1]], tasks=[dict(SMALL["tasks"][0], at=2.5)])
    cfg = write_config(tmp_path, raw)
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert "tasks_done: 1\n" in capsys.readouterr().out


# Once `run` failed with a ZeroDivisionError at the task's arrival: a
# completion predicted at 0 s divided the qos score, and a capacity that
# underflows to 0 divided the predicted completion.
@pytest.mark.parametrize("node_2, work, outcome", [
    ({"cpu_perf_index": 2.0}, 5.0e-324, "tasks_done: 1\n"),
    ({"cpu_perf_index": 5.0e-324, "utilization": 0.96}, 0.5, "tasks_failed_permanent: 1\n"),
], ids=["zero_completion", "zero_capacity"])
def test_a_completion_predicted_at_zero_or_never_runs_to_its_end(
    tmp_path, capsys, node_2, work, outcome
):
    """Node 1 cannot run its task, so it scores node 2, which finishes it at
    once or never."""
    raw = dict(
        SMALL,
        nodes=[dict(SMALL["nodes"][0], typologies=["other"]), dict(SMALL["nodes"][1], **node_2)],
        tasks=[dict(SMALL["tasks"][0], at=3.0, work=work)],
    )
    cfg = write_config(tmp_path, raw)
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert outcome in capsys.readouterr().out
    assert scen.run(scen.load_scenario(cfg)).report.balance_holds()


def test_a_handler_fault_is_an_error_not_a_traceback(tmp_path, capsys, monkeypatch):
    def boom(a, data):
        raise RuntimeError("boom")

    monkeypatch.setitem(agent._TIMER_HANDLERS, "task_arrival", boom)
    cfg = write_config(tmp_path)
    variants = tmp_path / "variants.yaml"
    variants.write_text(yaml.safe_dump({"base": {}}))
    for argv in (["run", cfg, "--out", str(tmp_path / "out")],
                 ["compare", cfg, "--variants", str(variants)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: handler fault at t=2.0 on fire_timer: RuntimeError('boom')\n"
        )


def test_run_seed_override_changes_output(tmp_path):
    raw = dict(SMALL, net={"loss_prob": 0.2})
    cfg = write_config(tmp_path, raw)
    for seed, name in ((7, "a"), (7, "b"), (8, "c")):
        main(["run", cfg, "--out", str(tmp_path / name), "--seed", str(seed)])
    a = (tmp_path / "a" / "trace.jsonl").read_text()
    b = (tmp_path / "b" / "trace.jsonl").read_text()
    c = (tmp_path / "c" / "trace.jsonl").read_text()
    assert a == b
    assert a != c


def test_compare_identical_variants_zero_difference(tmp_path, capsys):
    cfg = write_config(tmp_path)
    variants = tmp_path / "variants.yaml"
    variants.write_text(yaml.safe_dump({
        "one": {"w_availability": 0.4, "w_qos": 0.4, "w_locality": 0.2},
        # A comma in a name is quoted, not a field of its own.
        "two, again": {"w_availability": 0.4, "w_qos": 0.4, "w_locality": 0.2},
    }))
    code = main(["compare", cfg, "--variants", str(variants),
                 "--seeds", "1,2", "--out", str(tmp_path / "cmp")])
    assert code == 0
    with open(tmp_path / "cmp" / "compare.csv", newline="") as fh:
        text = fh.read()
    assert capsys.readouterr().out == text
    rows = list(csv.reader(text.splitlines()))
    header, data = rows[0], rows[1:]
    assert len(data) == 4  # 2 variants x 2 seeds
    assert all(len(r) == len(header) for r in data)
    by_key = {(r[0], r[1]): r[2:] for r in data}
    for seed in ("1", "2"):
        assert by_key[("one", seed)] == by_key[("two, again", seed)]


def test_compare_single_seed_one_row_per_variant(tmp_path, capsys):
    cfg = write_config(tmp_path)
    variants = tmp_path / "variants.yaml"
    variants.write_text(yaml.safe_dump({"base": {}}))
    assert main(["compare", cfg, "--variants", str(variants), "--seeds", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2  # header + one row
    assert out[1].startswith("base,3,")


def test_compare_bad_variant_fails_before_any_run(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(scen, "run", lambda *a, **kw: runs.append(a))
    cfg = write_config(tmp_path)
    variants = tmp_path / "variants.yaml"
    for bad, problem in (
        ({"bogus": {"w_qos_": 3}}, "variant bogus: unknown field w_qos_"),
        ({"w": {"w_locality": "fast"}}, "variant w: w_locality: expected a number"),
        ({"q": {"w_qos": 0.9}}, "variant q: score weights"),
        ({"b": {"w_qos": True}}, "variant b: w_qos: expected a number, got True"),
    ):
        variants.write_text(yaml.safe_dump({"a_ok": {}, **bad}))
        assert main(["compare", cfg, "--variants", str(variants)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and problem in captured.err
        assert captured.out == ""
    assert runs == []


def test_compare_non_string_variant_name_fails_before_any_run(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(scen, "run", lambda *a, **kw: runs.append(a))
    cfg = write_config(tmp_path)
    variants = tmp_path / "variants.yaml"
    variants.write_text("{1: {}, b: {}}\n")
    assert main(["compare", cfg, "--variants", str(variants)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: variant 1: name must be a string\n"
    assert captured.out == "" and runs == []


def test_run_out_that_is_a_file_fails_before_the_run(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(scen, "run", lambda *a, **kw: runs.append(a))
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    assert main(["run", write_config(tmp_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.out == "" and runs == []
    assert out.read_text() == "keep me\n"


def test_run_of_a_directory_is_an_error(tmp_path, capsys):
    assert main(["run", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
    assert not (tmp_path / "out").exists()


def test_compare_out_that_is_a_file_fails_before_any_run(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(scen, "run", lambda *a, **kw: runs.append(a))
    variants = tmp_path / "variants.yaml"
    variants.write_text(yaml.safe_dump({"base": {}}))
    out = tmp_path / "taken"
    out.write_text("")
    code = main(["compare", write_config(tmp_path), "--variants", str(variants),
                 "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.out == "" and runs == []


def test_compare_bad_seeds_names_the_option(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(scen, "run", lambda *a, **kw: runs.append(a))
    variants = tmp_path / "variants.yaml"
    variants.write_text(yaml.safe_dump({"base": {}}))
    for seeds in ("1,x", "", "1,,2"):
        code = main(["compare", write_config(tmp_path), "--variants", str(variants),
                     "--seeds", seeds, "--out", str(tmp_path / "cmp")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --seeds: expected comma-separated integers, got {seeds!r}\n"
        )
        assert captured.out == ""
    assert runs == [] and not (tmp_path / "cmp").exists()


def test_compare_variants_file_that_is_a_directory_is_an_error(tmp_path, capsys):
    code = main(["compare", write_config(tmp_path), "--variants", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


PARTITION_HEAL = Path(__file__).resolve().parents[1] / "scenarios" / "partition_heal.yaml"

# Settings that `validate` once passed although a run with them hangs (a
# zero period re-arms its timer at the same instant forever), dies in the
# simulator (a division by zero) or runs to a meaningless result.
DEGENERATE = [
    # The run samples up to its duration: an infinite one never returned, and
    # a NaN one passed whenever no task window caught it.
    (None, "duration", float("inf"), "duration: must be positive and finite"),
    (None, "duration", float("nan"), "duration: must be positive and finite"),
    # NaN latencies deliver nothing, a NaN range reaches no one: each ran to
    # exit 0 regardless.
    ("net", "base_latency", float("nan"), "net: base_latency must be finite and >= 0, got nan"),
    ("net", "latency_per_meter", float("inf"),
     "net: latency_per_meter must be finite and >= 0, got inf"),
    ("net", "radio_range", float("nan"), "net: radio_range must be >= 0, got nan"),
    ("scheduler", "w_availability", -0.4,
     "scheduler: w_availability must be in [0, 1], got -0.4"),
    ("scheduler", "w_locality", 1.5, "scheduler: w_locality must be in [0, 1], got 1.5"),
    # The sample period and top-k are constants now, not settings: a
    # degenerate value cannot be set, and neither can a sound one.
    (None, "sample_period", 2.0, "unknown field sample_period"),
    ("scheduler", "top_k", 2, "scheduler: unknown field top_k"),
] + [
    # Protocol timing is fixed: each former `agent:` setting, even the
    # degenerate values once checked one by one, is now an unknown block.
    ("agent", key, value, "unknown field agent")
    for key, value in (
        ("probe_period", 0), ("probe_period", -1), ("probe_period", float("inf")),
        ("battery_tick", float("inf")), ("exec_tick", float("inf")),
        ("exec_tick", 0), ("battery_tick", 0), ("offer_timeout", -1),
        ("anti_entropy_every", 0), ("rediscover_every", 0), ("status_refresh_every", 0),
        ("reservation_ttl", 0), ("reservation_ttl", 0.25),
        ("forecast_alpha", -1), ("forecast_alpha", 2), ("forecast_alpha", float("nan")),
        ("gossip_k", 2.5), ("gossip_k", True), ("anti_entropy_every", 1.5),
        ("leave_fanout", 1.5), ("retransmit_limit", 2.5), ("rediscover_every", 2.5),
        ("status_refresh_every", 1.5), ("probe_retries", 1.5),
        ("min_capacity", float("nan")), ("min_capacity", 0), ("min_capacity", 1.5),
    )
]


@pytest.mark.parametrize(
    "section,key,value,problem", DEGENERATE, ids=[f"{k}={v}" for _, k, v, _ in DEGENERATE]
)
def test_degenerate_setting_fails_validate_run_and_compare_cleanly(
    tmp_path, capsys, monkeypatch, section, key, value, problem
):
    def no_build(*args, **kwargs):
        raise AssertionError("a degenerate scenario must not be built")

    monkeypatch.setattr(scen, "build", no_build)
    raw = yaml.safe_load(PARTITION_HEAL.read_text())
    target = raw.setdefault(section, {}) if section else raw
    target[key] = value
    cfg = write_config(tmp_path, raw)
    assert main(["validate", cfg]) == 1
    assert f"INVALID: {problem}\n" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario") and problem in err
    assert not out.exists()
    variants = tmp_path / "variants.yaml"
    variants.write_text(yaml.safe_dump({"base": {}}))
    assert main(["compare", cfg, "--variants", str(variants)]) == 2
    assert problem in capsys.readouterr().err
    if section in ("scheduler", "agent"):
        # A variant is a scheduler mapping, so a former agent setting is an
        # unknown field there.
        variants.write_text(yaml.safe_dump({"bad": {key: value}}))
        valid = write_config(tmp_path, yaml.safe_load(PARTITION_HEAL.read_text()), "ok.yaml")
        assert main(["compare", valid, "--variants", str(variants)]) == 2
        if section == "agent":
            problem = f"variant bad: unknown field {key}"
        assert problem.replace("scheduler:", "variant bad:") in capsys.readouterr().err
