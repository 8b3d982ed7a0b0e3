"""Pin the benchmark reports: each job's exit code, and each exact report's sha256.

Runs rounds 0-1 of seeds 1 and 7 of every workload that
``perfbench/jobs.py`` generates (548 jobs) through ``symdiff2.cli.run`` and
compares them with the recorded file: an exact job by its exit code and the
sha256 of its report text, an approx job by its exit code alone.  Approx
report texts are not pinned: their last digits follow the platform's libm,
as in ``tests/test_report_digests.py``.  The exit codes are, so an approx
verdict that changes at both N and N + 4, which ``tools/verdict_sweep.py``
cannot see, fails here.

    python tools/report_sweep.py            # compare; exit 1 on any difference
    python tools/report_sweep.py --record   # re-record after a deliberate change

A deliberate change of output re-records the file and names the changed
jobs in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs as jobgen  # noqa: E402
from known_list import benchmark_jobs  # noqa: E402
from symdiff2 import cli  # noqa: E402

DIGESTS = Path(__file__).with_name("report_sweep.json")


def sweep():
    """{"workload:seed:job id": outcome} over the benchmark jobs, the outcome
    [exit code, report sha256] for an exact job and the exit code for an
    approx job."""
    out = {}
    for workload, seed, job in benchmark_jobs():
        try:
            code, text = cli.run([job.command], job.text)
        except Exception as exc:  # recorded like any other outcome
            code, text = None, f"{type(exc).__name__}: {exc}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        exact = jobgen.BACKENDS[workload] == "exact"
        out[f"{workload}:{seed}:{job.id}"] = [code, digest] if exact else code
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="re-record the digests file")
    args = parser.parse_args(argv)
    t0 = perf_counter()
    got = sweep()
    seconds = perf_counter() - t0
    if args.record:
        lines = (f"{json.dumps(k)}: {json.dumps(got[k])}" for k in sorted(got))
        DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"recorded {len(got)} reports in {seconds:.1f} s to {DIGESTS}")
        return 0
    want = json.loads(DIGESTS.read_text())
    changed = sorted(k for k in got.keys() & want.keys() if got[k] != want[k])
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    for label, keys in (("changed", changed), ("missing", missing), ("unrecorded", extra)):
        for key in keys:
            print(f"{label}: {key} {want.get(key)} -> {got.get(key)}")
    ok = not (changed or missing or extra)
    print(f"{len(got)} reports in {seconds:.1f} s: "
          + ("all match" if ok else f"{len(changed)} changed, {len(missing)} missing, "
             f"{len(extra)} unrecorded"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
