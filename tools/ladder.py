"""Time one round of exact-transcendental jobs at N = 12, 16, 20 and 24.

Runs round 0 of the exact-transcendental workload of seed 1, as the unchanged
``perfbench/jobs.py`` generates it, through ``symdiff2.cli.run`` at each
truncation N of the ladder, with only ``truncation`` rewritten in each job.
Each rung is timed as the best of 3 passes over the round, and the 12 -> 24
exponent is log(t24 / t12) / log 2: how the cost of the round grows with N.

    python tools/ladder.py

The last line of standard output is one JSON object.  Timings on a shared
machine drift by up to 2x, so compare two commits by alternating runs.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs as jobgen  # noqa: E402
from symdiff2 import cli  # noqa: E402

WORKLOAD, SEED, ROUND = "exact-transcendental", 1, 0
LADDER = (12, 16, 20, 24)
REPEATS = 3


def time_rung(texts) -> float:
    """Best of REPEATS passes over the job texts, in seconds."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = perf_counter()
        for command, text in texts:
            cli.run([command], text)
        best = min(best, perf_counter() - t0)
    return best


def main() -> int:
    round_jobs = jobgen.generate(WORKLOAD, SEED, ROUND)
    seconds = {}
    for N in LADDER:
        texts = [(job.command, json.dumps({**job.doc, "truncation": N}, sort_keys=True))
                 for job in round_jobs]
        seconds[N] = time_rung(texts)
        print(f"N = {N:2d}  {seconds[N]:.3f} s  ({len(texts)} jobs, best of {REPEATS})")
    exponent = math.log(seconds[LADDER[-1]] / seconds[LADDER[0]]) / math.log(
        LADDER[-1] / LADDER[0])
    print(f"{LADDER[0]} -> {LADDER[-1]} exponent {exponent:.2f}")
    print(json.dumps({"seconds": {str(N): s for N, s in seconds.items()},
                      "exponent": exponent}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
