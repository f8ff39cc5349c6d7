"""Headline serving benchmark: one stack, four workloads, an outside-in stage trace.

    python3 benchmarks/headline/run.py --workload browse_zipf --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run, ``--trace 1``
the per-layer metrics of a traced one.  Every metric is printed by name with
its unit; the last line of standard output is the result as one JSON object.
The exit code is 0 only when the run verified its own answers.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parents[1] / "src"

#: one BLAS thread per shard thread: two shard threads on two cores must not oversubscribe
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="shapes the traffic only; the stack is a constant")
    parser.add_argument("--seconds", type=float, default=16.0, help="measured seconds, split between the phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny stack: proves the run end to end")
    args = parser.parse_args(argv)

    if not (SOURCE / "repro").is_dir():
        print(f"run.py: the program under test is missing ({SOURCE / 'repro'})", file=sys.stderr)
        return 2
    # Before NumPy is imported: the pins are read when BLAS loads.
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SOURCE))
    import numpy
    from bench import execute

    print(
        "env: "
        + json.dumps(
            {
                "cores": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "thread_pins": THREAD_PINS,
                "git_sha": _git_sha(),
            }
        )
    )
    outcome = execute(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:<48} {value:>16.6f} {unit}")
    print(f"attempted {outcome.attempted}  failed {outcome.failed}  parity_mismatches {outcome.parity_mismatches}")
    for problem in outcome.problems:
        print(f"INCORRECT: {problem}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0 if outcome.correct else 1


def _git_sha() -> str:
    """The checkout's commit when it is a git work tree (the driver's checkout is not)."""

    head = HERE.parents[1] / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        target = HERE.parents[1] / ".git" / ref[5:]
        return target.read_text(encoding="utf-8").strip() if target.is_file() else "unknown"
    return ref


if __name__ == "__main__":
    sys.exit(main())
