"""Check that a definite verdict does not flip when only the truncation rises.

Runs every job of rounds 0-1 of seeds 1 and 7 of the four workloads that
``perfbench/jobs.py`` generates (548 jobs) through ``symdiff2.cli.run`` twice:
at its truncation N and at N + 4, with only ``truncation`` rewritten in the
job text.  perfbench draws fresh data per N, so two rungs of a ladder are not
the same document.  A job flips when it exits 0 or 1 (a verdict) at N and
with another code at N + 4; exit 2 or 3 at N may resolve into any code.
Only exit codes are compared: approx digits follow the platform's libm.

    python tools/verdict_sweep.py            # exit 1 on a flip not on the list
    python tools/verdict_sweep.py --record   # re-record the list of known flips

Flips on the recorded list are known defects (ROADMAP items 1 and 5).  A flip
that is no longer found is printed as mended; the change that mends it
re-records the list and names the job in CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from known_list import benchmark_jobs, check, exit_code  # noqa: E402

STEP = 4
FLIPS = Path(__file__).with_name("verdict_sweep.json")


def sweep():
    """(jobs run, {"workload:seed:job id": [exit at N, exit at N + STEP]} of the flips)."""
    count, flips = 0, {}
    for workload, seed, job in benchmark_jobs():
        count += 1
        low = exit_code(job.command, job.doc)
        if low not in (0, 1):
            continue
        high = exit_code(job.command, {**job.doc, "truncation": job.N + STEP})
        if high != low:
            flips[f"{workload}:{seed}:{job.id}"] = [low, high]
    return count, flips


def main(argv=None) -> int:
    return check(argv, __doc__.splitlines()[0], FLIPS, sweep, "flip",
                 f"jobs at N and N + {STEP}", f"exit {{}} at N, {{}} at N + {STEP}")


if __name__ == "__main__":
    sys.exit(main())
