"""Smoke check: all four workloads, traced and untraced, on the tiny stack, in well under a minute.

    python3 benchmarks/headline/smoke.py
    PYTHONPATH=src python3 -m pytest benchmarks/headline/smoke.py -q

Every run must verify its own answers (exit code 0, ``correct`` true, no
failed op) and print every metric ``BENCHMARK.json`` declares for its mode,
under the declared unit, with a finite value.  The file is deliberately not
named ``test_*.py``: the repository's tier-1 collection must not pick it up.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Tuple

from repeat import contract, run_once

SMOKE_SECONDS = 2.0


def check(workload: str, trace: int) -> List[str]:
    """Everything wrong with one smoke run, in words (empty when it is fine)."""

    result = run_once(workload, seed=7, seconds=SMOKE_SECONDS, trace=trace, smoke=True)
    declared = contract()["per_layer" if trace else "end_to_end"]
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    if set(result["metrics"]) != {metric["name"] for metric in declared}:
        problems.append(f"metric names differ: {set(result['metrics']) ^ {m['name'] for m in declared}}")
    for metric in declared:
        printed = result["metrics"].get(metric["name"], {})
        if printed.get("unit") != metric["unit"] or not math.isfinite(printed.get("value", math.nan)):
            problems.append(f"{metric['name']}: printed {printed}, declared unit {metric['unit']}")
    return [f"{workload} --trace {trace}: {problem}" for problem in problems]


def run_all() -> Dict[Tuple[str, int], List[str]]:
    cases = [(workload["name"], trace) for workload in contract()["workloads"] for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(cases, pool.map(lambda case: check(*case), cases)))


def test_smoke() -> None:
    problems = [problem for found in run_all().values() for problem in found]
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    outcome = run_all()
    for (name, mode), found in outcome.items():
        print(f"{name:<18} --trace {mode}  {'ok' if not found else 'FAILED'}")
        for line in found:
            print(f"  {line}")
    sys.exit(1 if any(outcome.values()) else 0)
