"""Command line front end: run, compare and validate scenario files."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

import yaml

from . import scenario as scen
from .sim import SimFault


def _cmd_validate(args) -> int:
    sc = scen.load_scenario(args.config)
    problems = sc.validate()
    if problems:
        for p in problems:
            print(f"INVALID: {p}")
        return 1
    print(f"OK: {sc.name} ({len(sc.nodes)} nodes, {len(sc.tasks)} tasks)")
    return 0


def _cmd_run(args) -> int:
    sc = scen.load_scenario(args.config)
    sc.check()
    # The output directory is made before the run, so a bad --out fails fast.
    os.makedirs(args.out, exist_ok=True)
    result = scen.run(sc, seed=args.seed)
    scen.write_trace_jsonl(result.trace, os.path.join(args.out, "trace.jsonl"))
    result.report.write_csv(os.path.join(args.out, "metrics.csv"))
    for name, value in result.report.rows():
        print(f"{name}: {value}")
    if not result.report.balance_holds():
        print("WARNING: task accounting does not balance", file=sys.stderr)
        return 1
    return 0


def _cmd_compare(args) -> int:
    """Run every variant over every seed and print per-seed paired metrics."""
    sc = scen.load_scenario(args.config)
    with open(args.variants) as fh:
        variants = yaml.safe_load(fh)
    if not isinstance(variants, dict) or not variants:
        print("variants file must map name -> scheduler settings", file=sys.stderr)
        return 2
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ValueError(
            f"--seeds: expected comma-separated integers, got {args.seeds!r}"
        ) from None
    scenarios = {}
    for name, settings in variants.items():
        # Every variant is checked before any of them runs.
        if not isinstance(name, str):
            raise ValueError(f"variant {name}: name must be a string")
        problems = []
        params = scen.override(sc.scheduler, settings, f"variant {name}", problems)
        if problems:
            raise ValueError("; ".join(problems))
        scenarios[name] = dataclasses.replace(sc, scheduler=params)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    rows = {}
    for name, variant in scenarios.items():
        for seed in seeds:
            rows[(name, seed)] = scen.run(variant, seed=seed).report.as_dict()
    metrics = [
        "tasks_done",
        "tasks_failed_permanent",
        "deadline_violations",
        "failure_rate",
        "mean_task_latency",
        "mean_transfer_time",
    ]
    table = [["variant", "seed"] + metrics] + [
        [name, seed] + [vals[m] for m in metrics] for (name, seed), vals in sorted(rows.items())
    ]
    # A csv writer quotes a variant name that holds a comma or a quote.
    csv.writer(sys.stdout, lineterminator="\n").writerows(table)
    if args.out:
        with open(os.path.join(args.out, "compare.csv"), "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(table)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="swarmsim", description="Swarm middleware network simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario, write trace + metrics")
    p_run.add_argument("config", help="scenario YAML file")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run scheduling variants across seeds")
    p_cmp.add_argument("config", help="scenario YAML file")
    p_cmp.add_argument("--variants", required=True, help="YAML: name -> scheduler settings")
    p_cmp.add_argument("--seeds", default="0", help="comma-separated seed list")
    p_cmp.add_argument("--out", default=None, help="optional output directory")
    p_cmp.set_defaults(func=_cmd_compare)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("config", help="scenario YAML file")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, yaml.YAMLError, SimFault) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
