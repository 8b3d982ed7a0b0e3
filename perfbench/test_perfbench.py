"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import jobs  # noqa: E402
from layertrace import TRANSCENDENTAL, Tracer  # noqa: E402
from run import run_pass  # noqa: E402
from symdiff2 import cli  # noqa: E402


def _one(workload, template, N):
    return next(j for j in jobs.generate(workload, 3) if j.template == template and j.N == N)


def _traced_counts(job_list):
    tracer = Tracer()
    with tracer:
        run_pass(cli, job_list, tracer)
    return {k: v for k, (v, unit) in tracer.metrics().items()
            if k.endswith(".calls") or k == "series.mul.pairs"}


def test_generator_is_deterministic_per_seed():
    for workload in jobs.WORKLOADS:
        first = [(j.id, j.text, repr(j.expect)) for j in jobs.generate(workload, 7)]
        again = [(j.id, j.text, repr(j.expect)) for j in jobs.generate(workload, 7)]
        other = [(j.id, j.text, repr(j.expect)) for j in jobs.generate(workload, 8)]
        assert first == again
        assert first != other


def test_benchmark_times_only_workloads_without_known_defects():
    listed = [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]
    assert set(listed) == set(jobs.WORKLOADS) - set(jobs.KNOWN_DEFECT_WORKLOADS)


def test_twins_repeat_their_sibling_parameters():
    closed = _one("exact-transcendental", "t26-essential-m1", 13)
    twin = _one("exact-transcendental", "t26-essential-m1-twin", 13)
    assert twin.doc["w"]["scale"].startswith(closed.doc["w"]["scale"] + "*exp(")


def test_trace_counts_repeat_exactly():
    # the same cells as exact-transcendental, at a lower and cheaper N
    job_list = [j for j in jobs.generate("exact-transcendental-low", 5) if j.N == 8]
    first, second = _traced_counts(job_list), _traced_counts(job_list)
    assert first == second
    assert first["series.mul.calls"] > 0 and first["series.log.calls"] > 0


def test_exact_algebraic_never_reaches_transcendental_ops():
    counts = _traced_counts(jobs.generate("exact-algebraic", 5))
    assert counts["series.mul.calls"] > 0
    for op in TRANSCENDENTAL:
        assert counts[f"series.{op}.calls"] == 0, op


def test_tracer_restores_the_original_functions():
    from symdiff2 import local_forms, series

    originals = (series.Series2.__mul__, series.reverse_map, local_forms.reverse_map, cli.run)
    with Tracer():
        assert local_forms.reverse_map is series.reverse_map is not originals[1]
    assert (series.Series2.__mul__, series.reverse_map, local_forms.reverse_map,
            cli.run) == originals


def _report(job):
    code, text = cli.run([job.command], job.text)
    return code, json.loads(text)


def test_checker_rejects_a_mutated_alpha():
    for workload in ("exact-transcendental", "approx-mixed"):
        job = _one(workload, "t26-essential-m1", min(jobs.LADDERS[workload]))
        code, report = _report(job)
        assert check.check(job, code, json.dumps(report)) == []
        dec = report["results"]["decomposition"]
        dec["alpha"] = "1/7" if job.backend == "exact" else repr(
            check.parse_approx(dec["alpha"]).real + 1e-3)
        assert any(m.startswith("alpha") for m in check.check(job, code, json.dumps(report)))


def test_checker_rejects_a_mutated_verdict():
    job = _one("exact-algebraic", "closedness-yes", 12)
    code, report = _report(job)
    assert check.check(job, code, json.dumps(report)) == []
    report["results"]["closedness"]["verdict"] = "no"
    assert check.check(job, code, json.dumps(report))
    job = _one("exact-algebraic", "split-not-split", 12)
    code, report = _report(job)
    assert check.check(job, code, json.dumps(report)) == []
    report["results"]["split"]["odd_multiplicity"] += 2
    assert check.check(job, code, json.dumps(report))
    assert check.check(job, 0, json.dumps(report))
