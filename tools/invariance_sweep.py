"""Check that a job's exit code does not depend on the chart.

Closedness, a local splitting, the contact order m, k and the index alpha are
defined through local decompositions into closed 1-differentials, not
through a chart, so a pullback by a biholomorphism that fixes the origin
keeps every verdict.  For a product form w = scale * du * dr the pullback is
textual: both variables are substituted in ``scale``, ``u``, ``r`` and in
the job's ``components``.

Runs every product-form job of rounds 0-1 of seeds 1 and 7 of the two exact
workloads that ``perfbench/jobs.py`` generates, at N <= 16, through
``symdiff2.cli.run``: once in its own chart and once pulled back by each of
the three maps in ``MAPS``.  (exact-algebraic's closedness rungs at N = 20
and 24 would add about a minute.)  A difference is a pulled-back job whose
exit code is not the code of the job in its own chart.

    python tools/invariance_sweep.py            # exit 1 on a difference not on the list
    python tools/invariance_sweep.py --record   # re-record the list of known differences

Differences on the recorded list are known defects (ROADMAP item 15): the
list may only shrink.  A difference that is no longer found is printed as
mended; the change that mends it re-records the list and names the job in
CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from charts import MAPS, pull_back  # noqa: E402
from known_list import benchmark_jobs, check, exit_code  # noqa: E402

WORKLOADS = ("exact-transcendental", "exact-algebraic")
MAX_N = 16
KNOWN = Path(__file__).with_name("invariance_sweep.json")


def _pulled_doc(doc: dict, images) -> dict:
    out = {**doc, "w": pull_back(doc["w"], images)}
    if "components" in doc:
        out["components"] = list(pull_back(dict(enumerate(doc["components"])), images).values())
    return out


def sweep():
    """(runs, {"workload:seed:job id:map": [exit in its chart, exit pulled back]}
    of the differences)."""
    runs, found = 0, {}
    for workload, seed, job in benchmark_jobs(WORKLOADS):
        if "scale" not in job.doc["w"] or job.N > MAX_N:
            continue
        own = exit_code(job.command, job.doc)
        for label, images in MAPS.items():
            runs += 1
            code = exit_code(job.command, _pulled_doc(job.doc, images))
            if code != own:
                found[f"{workload}:{seed}:{job.id}:{label}"] = [own, code]
    return runs, found


def main(argv=None) -> int:
    return check(argv, __doc__.splitlines()[0], KNOWN, sweep, "difference",
                 "pulled-back runs", "exit {} in its chart, {} pulled back")


if __name__ == "__main__":
    sys.exit(main())
