"""What the sweeps in ``tools/`` share: the benchmark jobs they run (rounds
0-1 of seeds 1 and 7), a job's exit code through the CLI, and the check of
what a sweep found against its recorded list of known defects, a list that
may only shrink.

Import it once ``src/`` and ``perfbench/`` are on ``sys.path``, as the
sweeps arrange.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from time import perf_counter

import jobs as jobgen
from symdiff2 import cli

SEEDS = (1, 7)
ROUNDS = (0, 1)


def benchmark_jobs(workloads=None):
    """(workload, seed, job) for every job of ROUNDS of SEEDS of ``workloads``,
    by default every workload that ``perfbench/jobs.py`` generates."""
    for workload in workloads or jobgen.WORKLOADS:
        for seed in SEEDS:
            for round_index in ROUNDS:
                for job in jobgen.generate(workload, seed, round_index):
                    yield workload, seed, job


def exit_code(command: str, doc: dict):
    try:
        return cli.run([command], json.dumps(doc, sort_keys=True))[0]
    except Exception:  # an escaped exception is an outcome, never a verdict
        return None


def check(argv, description: str, known: Path, sweep, noun: str, runs: str, codes: str) -> int:
    """Run ``sweep()``, which returns (count, {key: [exit, exit]}), and
    compare what it found with the list in ``known``, or re-record that list
    with ``--record``.  ``noun`` names one entry, ``runs`` the count's unit,
    and ``codes`` formats an entry's two exit codes.  Exit 1 when an entry is
    not on the list or differs from it."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--record", action="store_true",
                        help=f"re-record the list of known {noun}s")
    args = parser.parse_args(argv)
    t0 = perf_counter()
    count, got = sweep()
    seconds = perf_counter() - t0
    if args.record:
        lines = (f"{json.dumps(k)}: {json.dumps(got[k])}" for k in sorted(got))
        known.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"recorded {len(got)} {noun}s of {count} {runs} in {seconds:.1f} s to {known}")
        return 0
    want = json.loads(known.read_text())
    new = sorted(k for k in got if got[k] != want.get(k))
    mended = sorted(want.keys() - got.keys())
    for key in new:
        print(f"{noun}: {key} " + codes.format(*got[key])
              + (f" (recorded {want[key]})" if key in want else ""))
    for key in mended:
        print(f"mended: {key} is no longer found (recorded {want[key]})")
    print(f"{count} {runs} in {seconds:.1f} s: {len(got)} {noun}s, "
          f"{len(new)} not on the list, {len(mended)} mended")
    return 1 if new else 0
