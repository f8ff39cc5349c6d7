"""Repeat a workload in fresh processes; summarise a set of runs; compare two sets.

    python3 benchmarks/headline/repeat.py run --workload click_storm --runs 10 --out parent.json
    python3 benchmarks/headline/repeat.py compare parent.json change.json

``run`` gives every run its own seed, prints per end-to-end metric the median,
the quartiles and the spread (the distance between the quartiles as a share of
the median) and writes the values to ``--out``.  ``compare`` judges a second
set against a first by the bounds in ``BENCHMARK.json``: a metric whose spread
in either set exceeds its bound is ``unresolved``, never ``unchanged``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent


def contract() -> Dict:
    """``BENCHMARK.json``: the declared metrics, their units, directions and bounds."""

    return json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: float, trace: int = 0, smoke: bool = False) -> Dict:
    """One fresh-process run; the parsed last line of its output."""

    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    finished = subprocess.run(command, capture_output=True, text=True)
    if finished.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {finished.returncode}:\n{finished.stdout}{finished.stderr}")
    return json.loads(finished.stdout.strip().splitlines()[-1])


def summarise(values: List[float]) -> Tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread as a share of the median)."""

    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, first, third, (third - first) / median


def run_set(args: argparse.Namespace) -> int:
    values: Dict[str, List[float]] = {}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, args.seconds)
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(f"{name}={series[-1]:.4g}" for name, series in values.items()), flush=True)
    bounds = {metric["name"]: metric["bound"] for metric in contract()["end_to_end"]}
    print(f"\n{args.workload}: {args.runs} runs, {failed} failed ops")
    print(f"{'metric':<30}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for name, series in values.items():
        median, first, third, spread = summarise(series)
        flag = "" if spread <= bounds[name] / 3 else ("  > bound/3" if spread <= bounds[name] else "  > BOUND")
        print(f"{name:<30}{median:>12.4f}{first:>12.4f}{third:>12.4f}{spread:>9.3f}{bounds[name]:>8.2f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "values": values}), encoding="utf-8")
    return 0


def verdict(metric: Dict, parent: List[float], change: List[float]) -> str:
    parent_median, _, _, parent_spread = summarise(parent)
    change_median, _, _, change_spread = summarise(change)
    if max(parent_spread, change_spread) > metric["bound"]:
        return "unresolved"
    worse = (change_median - parent_median) / parent_median
    if metric["better"] == "higher":
        worse = -worse
    if worse > metric["bound"]:
        return "regressed"
    return "better" if worse < -metric["bound"] else "unchanged"


def compare_sets(args: argparse.Namespace) -> int:
    parent = json.loads(Path(args.parent).read_text(encoding="utf-8"))
    change = json.loads(Path(args.change).read_text(encoding="utf-8"))
    if parent["workload"] != change["workload"]:
        raise SystemExit("the two sets are of different workloads")
    print(f"{parent['workload']}: change against parent, by the bounds of BENCHMARK.json")
    print(f"{'metric':<30}{'parent':>12}{'change':>12}{'ratio':>8}{'bound':>7}  verdict")
    regressed = False
    for metric in contract()["end_to_end"]:
        name = metric["name"]
        result = verdict(metric, parent["values"][name], change["values"][name])
        regressed |= result == "regressed"
        before, after = statistics.median(parent["values"][name]), statistics.median(change["values"][name])
        print(f"{name:<30}{before:>12.4f}{after:>12.4f}{after / before:>8.3f}{metric['bound']:>7.2f}  {result}")
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="repeat one workload and summarise")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=float(contract()["run_seconds"]))
    run.add_argument("--out")
    run.set_defaults(handler=run_set)
    compare = commands.add_parser("compare", help="judge a second set of runs against a first")
    compare.add_argument("parent")
    compare.add_argument("change")
    compare.set_defaults(handler=compare_sets)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
