"""swarmsim benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload swarm64_idle --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and needs nothing installed beyond
PyYAML. Steps, each in a fresh single-threaded process, one at a time:

1. Generate the workload's scenario from the seed (`workloads.py`) and write
   it as YAML under `.bench_out/<workload>/`.
2. Check pass: time set-ups, then run the scenario once untimed, check the
   outputs and derive the simulated metrics (`worker.py check`).
3. With `--trace 1`, one traced run that wraps every layer (`tracer.py`).
4. Timed passes until `--seconds` is used up, at least two (one with
   `--trace 1`): set-up times and untraced run times, both in CPU time.

Every human-readable line comes first; the last line of standard output is
the result object `{"correct", "attempted", "failed", "metrics"}`, with the
end-to-end metrics under `--trace 0` and the per-layer metrics under
`--trace 1`. The full result also goes to `.bench_out/<workload>/result.json`.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import workloads

BENCH_VERSION = 1
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
MIN_TIMED = 2  # timed passes in a run, or 1 with --trace 1
TIME_LIMIT = 170.0  # seconds a whole run may take, with margin to 180

WIRE_KINDS = [
    "HELLO", "HELLO-ACK", "PING", "ACK", "LEAVE", "DIGEST", "DELTA", "OFFER",
    "ACCEPT", "REJECT", "CLAIM", "CANCEL", "NACK", "DONE", "FAILED", "QOS-WARN",
]
TIMER_KINDS = [
    "round", "liveness", "probe_timeout", "suspect_dead", "member_gc", "battery",
    "task_arrival", "offer_decision", "reservation_ttl", "transfer_done",
    "completion", "monitor", "retry_place",
]
LAYERS = [
    "scenario", "sim", "wire", "membership", "registry", "dataplane", "model",
    "agent", "scheduler", "cognition", "executor", "metrics",
]
# Per-layer metrics defined on some workloads only: the report prints them
# where defined, the result line (and BENCHMARK.json) leaves them out.
REPORT_ONLY = {"scheduler.candidates_per_decision"}
SIM_UNITS = {
    "msgs_per_node_s": "1/s",
    "kib_per_node_s": "KiB/s",
    "trace_mib": "MiB",
    "membership_convergence_s": "s",
    "registry_convergence_s": "s",
    "task_latency_p50_s": "s",
    "task_latency_p95_s": "s",
    "deadline_miss_rate": "ratio",
    "task_failure_rate": "ratio",
    "mean_transfer_s": "s",
}


class PassFailed(Exception):
    pass


def context() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "bench_version": BENCH_VERSION,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_pass(mode: str, wdir: str, deadline: float, *extra: str) -> dict:
    """Run one worker pass in a fresh process; return its JSON result."""
    out_dir = os.path.join(wdir, mode)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           os.path.join(wdir, "scenario.yaml"), out_dir, *extra]
    timeout = max(1.0, deadline - perf_counter())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{mode} pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer_metrics(traced: dict, check: dict, untraced: dict) -> tuple:
    """The per-layer metrics, named as in BENCHMARK.json, and those omitted.

    Times and call counts come from the traced pass; message, byte and drop
    counts, which are the same in every pass, from the check pass. A ratio
    whose base is 0 is undefined: it is omitted with the reason, not
    reported as 0.
    """
    S, C, T = traced["self_s"], traced["calls"], traced["true_n"]
    L, total = traced["layers"], traced["total_s"]
    m, omitted = {}, {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def put_ratio(name, num, den, unit, base):
        if den:
            put(name, num / den, unit)
        else:
            omitted[name] = f"no {base} in this workload"

    put("metrics.sample_s", total.get("metrics.sample", 0.0), "s")
    put("metrics.sample_n", C.get("metrics.sample", 0), "count")
    put("metrics.on_record_s", total.get("metrics.on_record", 0.0), "s")
    put("metrics.on_record_n", C.get("metrics.on_record", 0), "count")
    put("registry.content_hash_s", total.get("registry.content_hash", 0.0), "s")
    put("registry.content_hash_n", C.get("registry.content_hash", 0), "count")
    put("registry.merge_n", C.get("registry.merge", 0), "count")
    put_ratio("registry.merge_applied_ratio", T.get("registry.merge", 0),
              C.get("registry.merge", 0), "ratio", "registry merges")
    put("registry.diff_s", total.get("registry.diff", 0.0), "s")
    put("registry.query_s", total.get("registry.query", 0.0), "s")
    put("membership.apply_s", total.get("membership.apply", 0.0), "s")
    put("membership.apply_n", C.get("membership.apply", 0), "count")
    put_ratio("membership.apply_changed_ratio", T.get("membership.apply", 0),
              C.get("membership.apply", 0), "ratio", "membership merges")
    put("membership.digest_s", total.get("membership.member_set_digest", 0.0), "s")
    put("dataplane.catalog_merge_n", C.get("dataplane.merge", 0), "count")
    put_ratio("dataplane.catalog_merge_applied_ratio", T.get("dataplane.merge", 0),
              C.get("dataplane.merge", 0), "ratio", "catalog merges")
    put("dataplane.resolve_s", total.get("dataplane.resolve", 0.0), "s")
    put("wire.encode_s", total.get("wire.encode", 0.0), "s")
    put("wire.decode_s", total.get("wire.decode", 0.0), "s")
    groups = check["by_group"]
    kib = sum(g["kib"] for g in groups.values())
    put_ratio("wire.mean_msg_bytes", kib * 1024, check["sends"], "B", "messages")
    for group in ("membership", "anti_entropy", "placement"):
        put(f"wire.kib.{group}", groups.get(group, {}).get("kib", 0.0), "KiB")
    put("model.to_dict_n", C.get("model.to_dict", 0), "count")
    put("model.to_dict_s", S.get("model.to_dict", 0.0), "s")
    for kind in WIRE_KINDS:
        put(f"agent.msg.{kind}.self_s", S.get(f"agent.msg.{kind}", 0.0), "s")
        put(f"agent.msg.{kind}.n", C.get(f"agent.msg.{kind}", 0), "count")
    for kind in TIMER_KINDS:
        put(f"agent.timer.{kind}.self_s", S.get(f"agent.timer.{kind}", 0.0), "s")
        put(f"agent.timer.{kind}.n", C.get(f"agent.timer.{kind}", 0), "count")
    put("scheduler.score_n", C.get("scheduler.compute_score", 0), "count")
    put("scheduler.decisions_n", C.get("scheduler.select_top_k", 0), "count")
    put_ratio("scheduler.candidates_per_decision", traced["candidates"],
              C.get("scheduler.select_top_k", 0), "count", "placement decisions")
    put("cognition.calls_n", sum(n for k, n in C.items() if k.startswith("cognition.")), "count")
    put("executor.integrate_n", C.get("executor.integrate", 0), "count")
    sends = check["sends"]
    put("sim.events", C.get("sim.schedule", 0), "count")
    put("sim.sends", sends, "count")
    for reason in ("loss", "range", "partition", "down"):
        put(f"sim.drops.{reason}", check["drops"].get(reason, 0), "count")
    put_ratio("sim.us_per_send", untraced["run_cpu_s"] * 1e6, sends, "us", "messages")
    put("scenario.parse_s", traced["parse_s"], "s")
    put("scenario.build_s", total.get("scenario.build", 0.0), "s")
    put("scenario.write_trace_s", total.get("scenario.write_trace_jsonl", 0.0), "s")
    put("scenario.trace_records", traced["trace_records"], "count")
    for layer in LAYERS:
        put(f"{layer}.self_s", L.get(layer, 0.0), "s")
    put("trace.wall_s", traced["wall_s"], "s")
    put("trace.unattributed_s", traced["wall_s"] - sum(L.values()), "s")
    put("trace.overhead_s", traced["wall_s"] - untraced["wall_s"], "s")
    return m, omitted


def measure(args, wdir: str, episodes_path: str, started: float) -> dict:
    deadline = started + TIME_LIMIT
    check = run_pass("check", wdir, deadline, episodes_path)
    if not all(check["checks"].values()):
        return {"check": check, "timed": [], "traced": None}
    clock = perf_counter()
    traced = run_pass("traced", wdir, deadline) if args.trace else None
    # A traced run reports only per-layer metrics, which need one untraced
    # pass for `trace.overhead_s` and `sim.us_per_send`.
    min_timed = 1 if args.trace else MIN_TIMED
    timed, timed_clock = [], perf_counter()
    while True:
        timed.append(run_pass("timed", wdir, deadline))
        now = perf_counter()
        per_pass = (now - timed_clock) / len(timed)
        if now + per_pass > deadline:
            break
        if len(timed) >= min_timed and now + per_pass > clock + args.seconds:
            break
    return {"check": check, "timed": timed, "traced": traced}


def summarise(args, wl, ctx: dict, res: dict) -> dict:
    check, timed, traced = res["check"], res["timed"], res["traced"]
    checks = dict(check["checks"])
    if timed:
        shas = {p["sha256"] for p in timed} | {check["sha256"]}
        if traced:
            shas.add(traced["sha256"])
        checks["trace_sha256_identical"] = len(shas) == 1
    correct = all(checks.values()) and bool(timed)
    ops = check.get("ops", {"attempted": 0, "failed": 0})
    out = {
        "context": ctx,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "checks": checks,
        "trace_sha256": check.get("sha256"),
        "operations": {**ops, "failed_share": ops["failed"] / max(1, ops["attempted"])},
        "check": check,
        "timed": timed,
        "traced": traced,
        "correct": correct,
    }
    if not timed:
        return out
    setups = [t for p in [check, *timed] for t in p["setup_s"]]
    untraced = {k: statistics.median(p[k] for p in timed) for k in ("run_cpu_s", "wall_s")}
    e2e = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_cpu_s": {"value": untraced["run_cpu_s"], "unit": "s"},
        "peak_rss_mib": {"value": statistics.median(p["peak_rss_mib"] for p in timed), "unit": "MiB"},
    }
    for name in ("msgs_per_node_s", "kib_per_node_s", "trace_mib"):
        e2e[name] = {"value": check["sim"][name], "unit": SIM_UNITS[name]}
    out["end_to_end"] = e2e
    out["workload_metrics"] = {
        k: {"value": v, "unit": SIM_UNITS[k]} for k, v in check["sim"].items() if k not in e2e
    }
    out["samples"] = {"timed_runs": len(timed), "setups": len(setups),
                      "median_wall_s": untraced["wall_s"]}
    if traced:
        out["per_layer"], out["per_layer_omitted"] = per_layer_metrics(traced, check, untraced)
    return out


def print_report(out: dict) -> None:
    ctx = out["context"]
    print(f"swarmsim benchmark v{ctx['bench_version']}: workload={out['workload']} "
          f"seed={out['seed']} seconds={out['seconds']} trace={out['trace']}")
    print(f"context: nproc={ctx['nproc']} cpu={ctx['cpu_model']!r} python={ctx['python']} "
          f"platform={ctx['platform']} loadavg_before={ctx['loadavg_before']} "
          f"loadavg_after={ctx['loadavg_after']}")
    for name, ok in out["checks"].items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'}")
    for key in ("problems", "fault"):
        if key in out["check"]:
            print(f"check detail {key}: {out['check'][key]}")
    print(f"trace sha256: {out['trace_sha256']}")
    ops = out["operations"]
    print(f"operations: attempted={ops['attempted']} failed={ops['failed']} "
          f"failed_share={ops['failed_share']:.4f}")
    for ep in out["check"].get("episodes", []):
        print(f"episode {ep['first']:.3f}-{ep['last']:.3f} (next burst {ep['until']:.3f}): "
              f"membership {ep['membership']} s, registry {ep['registry']} s, "
              f"agree at end {ep['agree_at_end']}, disagreed on {ep['split_nodes']}, "
              f"falsely suspected {ep['falsely_suspected']}")
    if "end_to_end" not in out:
        return
    s = out["samples"]
    print(f"samples: {s['timed_runs']} timed runs, {s['setups']} set-ups, "
          f"median run wall time {s['median_wall_s']:.3f} s")
    for section in ("end_to_end", "workload_metrics"):
        for name, m in out[section].items():
            print(f"{section} {name} = {m['value']:.6g} {m['unit']}")
    for name, why in out["check"]["omitted"].items():
        print(f"omitted {name}: {why}")
    for group, g in out["check"]["by_group"].items():
        print(f"bytes group {group}: {g['msgs']} msgs, {g['kib']:.1f} KiB")
    for kind, g in out["check"]["by_kind"].items():
        print(f"bytes kind {kind}: {g['msgs']} msgs, {g['kib']:.1f} KiB")
    print(f"drops: {out['check']['drops']}")
    if "per_layer" in out:
        for name, m in out["per_layer"].items():
            print(f"per_layer {name} = {m['value']:.6g} {m['unit']}")
        for name, why in out["per_layer_omitted"].items():
            print(f"per_layer omitted {name}: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "swarmsim", "__init__.py")):
        print(f"error: no swarmsim sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    ctx = context()
    ctx["loadavg_before"] = os.getloadavg()
    wl = workloads.generate(args.workload, args.seed)
    wdir = os.path.join(OUT, wl.name)
    os.makedirs(wdir, exist_ok=True)
    with open(os.path.join(wdir, "scenario.yaml"), "w") as fh:
        fh.write(wl.yaml_text())
    episodes_path = os.path.join(wdir, "episodes.json")
    with open(episodes_path, "w") as fh:
        json.dump([vars(ep) for ep in wl.episodes], fh)
    try:
        res = measure(args, wdir, episodes_path, started)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ctx["loadavg_after"] = os.getloadavg()
    out = summarise(args, wl, ctx, res)
    with open(os.path.join(wdir, "result.json"), "w") as fh:
        json.dump(out, fh, indent=1)
    print_report(out)
    metrics = out.get("per_layer" if args.trace else "end_to_end", {})
    metrics = {k: v for k, v in metrics.items() if k not in REPORT_ONLY}
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["operations"]["attempted"],
        "failed": out["operations"]["failed"],
        "metrics": metrics,
    }))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
