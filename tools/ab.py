"""Interleaved A/B timing of two symdiff2 trees on one workload's jobs.

    python tools/ab.py HEAD~1 HEAD --workload exact-algebraic --seed 7 --rounds 0 1 2 3
    python tools/ab.py ../old-checkout . --workload exact-transcendental --passes 3

A and B are each a git revision of this repository or a directory holding
``src/symdiff2``.  Each tree's ``src/symdiff2`` is extracted (``git archive``
for a revision, a copy for a directory) into a temporary directory under its
own package name, and both packages are imported into this one process, so
the two trees run side by side under the same machine state.  The jobs are
the given rounds of one workload of ``perfbench/jobs.py`` in this checkout.

Every job first runs once on each tree, untimed, and the two must return the
same exit code and report text; any difference is printed and the tool exits
1 without timing.  Then each pass times every job on each tree, alternating
which tree goes first from job to job and from pass to pass, and the tool
prints, per N of the ladder, the summed job times and their ratio B/A, and
each tree's ``growth_exponent`` (the formula of ``perfbench/run.py``).

This complements ``perfbench/run.py`` and is not a second claim harness: it
reports per-job time ratios from one process, not the end-to-end metrics
(throughput over a fixed wall time, latency percentiles, peak memory) that a
performance claim is judged on.  Use it to locate a change's effect and to
check that its outputs are unchanged before spending benchmark runs.
"""

from __future__ import annotations

import argparse
import importlib
import io
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import jobs as jobgen  # noqa: E402
from run import growth_exponent, run_pass  # noqa: E402

SHOW_MISMATCHES = 8


def extract(tree: str, dest: Path, name: str) -> None:
    """Place ``src/symdiff2`` of ``tree`` (a directory or a git revision of
    this repository) at ``dest / name``."""
    package = dest / name
    if Path(tree).is_dir():
        shutil.copytree(Path(tree) / "src" / "symdiff2", package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return
    done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", tree,
                           "src/symdiff2"], capture_output=True)
    if done.returncode:
        raise SystemExit(f"{tree!r} is neither a directory nor a git revision: "
                         f"{done.stderr.decode().strip()}")
    staging = dest / f"{name}-archive"
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(staging, **safe)
    (staging / "src" / "symdiff2").rename(package)


def report_mismatches(cli_a, cli_b, job_list) -> list:
    """One line for each job whose exit code or report text differ between
    the trees, each job run once per tree."""
    out = []
    for job in job_list:
        (_, code_a, text_a, _), = run_pass(cli_a, [job])
        (_, code_b, text_b, _), = run_pass(cli_b, [job])
        if (code_a, text_a) != (code_b, text_b):
            out.append(f"{job.id}: exit {code_a} -> {code_b}"
                       + ("" if text_a == text_b else ", report text differs"))
    return out


def timed_passes(cli_a, cli_b, job_list, passes: int):
    """(records on A, records on B) over ``passes`` passes, the tree that
    goes first alternating from job to job and from pass to pass."""
    records_a, records_b = [], []
    for p in range(passes):
        for k, job in enumerate(job_list):
            if (p + k) % 2:
                records_b += run_pass(cli_b, [job])
                records_a += run_pass(cli_a, [job])
            else:
                records_a += run_pass(cli_a, [job])
                records_b += run_pass(cli_b, [job])
    return records_a, records_b


def totals_by_n(records) -> dict:
    out = {}
    for job, _, _, dt in records:
        out[job.N] = out.get(job.N, 0.0) + dt
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="the reference tree: a git revision or a directory")
    parser.add_argument("b", help="the tree compared with it")
    parser.add_argument("--workload", required=True, choices=jobgen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, nargs="+", default=[0],
                        help="round indices of perfbench/jobs.py (default 0)")
    parser.add_argument("--passes", type=int, default=2, help="timed passes (default 2)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    job_list = [job for r in args.rounds for job in jobgen.generate(args.workload, args.seed, r)]
    with tempfile.TemporaryDirectory(prefix="symdiff2-ab-") as tmp:
        sys.path.insert(0, tmp)
        try:
            clis = []
            for tree, name in ((args.a, "symdiff2_a"), (args.b, "symdiff2_b")):
                extract(tree, Path(tmp), name)
                clis.append(importlib.import_module(f"{name}.cli"))
            cli_a, cli_b = clis
            mismatches = report_mismatches(cli_a, cli_b, job_list)
            if mismatches:
                for line in mismatches[:SHOW_MISMATCHES]:
                    print(f"MISMATCH {line}")
                print(f"{len(mismatches)} of {len(job_list)} jobs differ; not timed")
                return 1
            records_a, records_b = timed_passes(cli_a, cli_b, job_list, args.passes)
        finally:
            sys.path.remove(tmp)

    print(f"A {args.a}  B {args.b}  workload {args.workload}  seed {args.seed}"
          f"  rounds {args.rounds}  passes {args.passes}  jobs {len(job_list)}: reports match")
    t_a, t_b = totals_by_n(records_a), totals_by_n(records_b)
    print(f"{'N':>4} {'A s':>10} {'B s':>10} {'B/A':>7}")
    for n in sorted(t_a):
        print(f"{n:>4} {t_a[n]:>10.4f} {t_b[n]:>10.4f} {t_b[n] / t_a[n]:>7.3f}")
    all_a, all_b = sum(t_a.values()), sum(t_b.values())
    print(f"{'all':>4} {all_a:>10.4f} {all_b:>10.4f} {all_b / all_a:>7.3f}")
    if len(t_a) > 1:
        print(f"growth_exponent A {growth_exponent(records_a):.4f}"
              f"  B {growth_exponent(records_b):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
