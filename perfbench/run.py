"""Closed-loop benchmark of the symdiff2 CLI on seeded known-answer jobs.

One client, one thread: the next job is sent to ``symdiff2.cli.run`` in this
process only after the previous report has come back.  Each report is
checked against the answer its job was built to have.  Set-up (import and
job generation) is timed in short-lived child interpreters.

    python3 perfbench/run.py --workload exact-transcendental --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over the same jobs and prints the per-layer
metrics.  The last line of standard output is one JSON object.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import jobs as jobgen  # noqa: E402

# Set-up is repeated 5 times before the timed loop and after a job whenever
# a twentieth of the run has passed since the last repeat: the machine's speed
# drifts over tens of seconds, and the repeats should sample all of the run.
SETUP_REPEATS = 5
SETUP_SPREAD = 20
ROUNDS = 8  # parameter draws per cell; the timed loop cycles through them
TRACE_DIR = HERE / "traces"
SHOW_FAILURES = 8


_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = {paths!r}
import symdiff2.cli, jobs
rounds = [jobs.generate({workload!r}, {seed!r}, r) for r in range({rounds})]
print(time.perf_counter() - t0)
"""


def setup_seconds(workload, seed):
    """One set-up as a CLI user pays it: import symdiff2 and generate the rounds.

    It runs in a fresh interpreter (whose own start-up is not counted), so
    that repeating it leaves this process's imported code untouched.
    """
    code = _SETUP_CHILD.format(paths=[str(ROOT / "src"), str(HERE)], workload=workload,
                               seed=seed, rounds=ROUNDS)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout)


def run_pass(cli, job_list, tracer=None):
    """One pass over the jobs: [(job, exit code or None, report text or error, seconds)]."""
    out = []
    for job in job_list:
        if tracer is not None:
            tracer.begin_job(job.id)
        t0 = perf_counter()
        try:
            code, text = cli.run([job.command], job.text)
        except Exception as exc:  # a job that raises is a failed job, not a crash
            code, text = None, f"{type(exc).__name__}: {exc}"
        out.append((job, code, text, perf_counter() - t0))
    return out


def check_records(records):
    """(failures, attempted): failures is [(job id, reasons)] in record order."""
    verdicts = {}
    failures = []
    for job, code, text, _ in records:
        key = (job.id, code, text)
        if key not in verdicts:
            if code is None:
                verdicts[key] = [f"raised {text}"]
            elif code == 3:
                verdicts[key] = ["exit 3 (precision exhausted)"]
            else:
                verdicts[key] = check.check(job, code, text)
        if verdicts[key]:
            failures.append((job.id, verdicts[key]))
    return failures, len(records)


def percentile(sorted_values, p):
    """Nearest-rank percentile of already sorted values."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def growth_exponent(records):
    """Least-squares slope of log(total job time at N) against log N."""
    totals = {}
    for job, _, _, dt in records:
        totals[job.N] = totals.get(job.N, 0.0) + dt
    xs = [math.log(n) for n in sorted(totals)]
    ys = [math.log(totals[n]) for n in sorted(totals)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def end_to_end(cli, rounds, seconds, workload, seed):
    setups = [setup_seconds(workload, seed) for _ in range(SETUP_REPEATS)]
    records, passes, wall, last_setup = [], 0, 0.0, 0.0
    # whole rounds, so that every run times the same mix of cells and N
    while wall < seconds:
        for job in rounds[passes % ROUNDS]:
            record = run_pass(cli, [job])[0]
            records.append(record)
            wall += record[-1]
            if wall - last_setup >= seconds / SETUP_SPREAD:
                setups.append(setup_seconds(workload, seed))
                last_setup = wall
        passes += 1
    lat = sorted(dt for *_, dt in records)
    failures, attempted = check_records(records)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "job_p75_ms": (percentile(lat, 75) * 1e3, "ms"),
        "jobs_per_s": (len(lat) / wall, "1/s"),
        "correct_share": (1 - len(failures) / attempted, "ratio"),
        "growth_exponent": (growth_exponent(records), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"rounds {passes}  timed jobs {len(lat)}  wall {wall:.2f} s"
             f"  set-ups {len(setups)}",
             f"failed_share {len(failures) / attempted:.4f} ratio"
             f"  ({len(failures)} of {attempted} jobs)"]
    if len(lat) < 40:
        notes.append(f"only {len(lat)} samples: fewer than 10 lie beyond p75")
    return metrics, failures, attempted, notes


def per_layer(cli, job_list, seconds, workload, seed):
    from layertrace import Tracer

    records, untraced, traced, tracers = [], [], [], []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        records += run_pass(cli, job_list)
        untraced.append(perf_counter() - t0)
        tracer = Tracer()
        with tracer:
            t0 = perf_counter()
            records += run_pass(cli, job_list, tracer)
            traced.append(perf_counter() - t0)
        tracers.append(tracer)
        if perf_counter() - t_start >= seconds:
            break
    # counts come from the first traced pass (every pass repeats them); times
    # are medians over the traced passes
    metrics = tracers[0].metrics()
    for name, (_, unit) in metrics.items():
        if unit == "s":
            metrics[name] = (statistics.median(t.metrics()[name][0] for t in tracers), unit)
    metrics["trace_overhead_share"] = (
        statistics.median(traced) / statistics.median(untraced) - 1, "ratio")
    TRACE_DIR.mkdir(exist_ok=True)
    span_file = TRACE_DIR / f"{workload}-seed{seed}.json"
    tracers[0].write_spans(span_file)
    failures, attempted = check_records(records)
    notes = [f"pass pairs {len(traced)}  untraced pass {statistics.median(untraced):.3f} s"
             f"  traced pass {statistics.median(traced):.3f} s",
             f"spans of the first traced pass: {span_file.relative_to(ROOT)}"]
    return metrics, failures, attempted, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobgen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "symdiff2" / "__init__.py").is_file():
        print(f"no symdiff2 sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from symdiff2 import cli

    rounds = [jobgen.generate(args.workload, args.seed, r) for r in range(ROUNDS)]
    low = min(jobgen.LADDERS[args.workload])
    # warm-up, not timed: one job of each command at the lowest N
    warm_up = {j.command: j for j in rounds[0] if j.N == low}
    run_pass(cli, list(warm_up.values()))
    if args.trace:
        # the traced run repeats round 0, so its counts repeat exactly
        metrics, failures, attempted, notes = per_layer(
            cli, rounds[0], args.seconds, args.workload, args.seed)
    else:
        metrics, failures, attempted, notes = end_to_end(
            cli, rounds, args.seconds, args.workload, args.seed)

    print(f"workload {args.workload}  seed {args.seed}  backend {jobgen.BACKENDS[args.workload]}"
          f"  ladder {list(jobgen.LADDERS[args.workload])}  jobs per round {len(rounds[0])}")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  sha {_git_sha()}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    seen = set()
    for job_id, reasons in failures:
        if job_id not in seen and len(seen) < SHOW_FAILURES:
            seen.add(job_id)
            print(f"FAILED {job_id}: {'; '.join(reasons[:3])}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
