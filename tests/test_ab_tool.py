"""Smoke test of ``tools/ab.py``, the interleaved A/B timing of two trees.

Both runs happen in child interpreters, so the tool's sys.path, its module
``jobs`` and its two extracted packages stay out of this session.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab.py"

MISMATCH_CHILD = """
import importlib.util, sys, types
spec = importlib.util.spec_from_file_location("ab", sys.argv[1])
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)
job_list = ab.jobgen.generate("exact-algebraic", 1, 0)[:3]
same = types.SimpleNamespace(run=lambda argv, text: (0, text))
other = types.SimpleNamespace(run=lambda argv, text: (0, text + " "))
print(len(ab.report_mismatches(same, same, job_list)),
      len(ab.report_mismatches(same, other, job_list)))
"""


def test_one_round_of_one_tree_against_itself():
    out = subprocess.run([sys.executable, str(AB), str(ROOT), str(ROOT), "--workload",
                          "exact-algebraic", "--rounds", "0", "--passes", "1"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert "jobs 28: reports match" in lines[0]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:7]}
    assert list(rows) == ["12", "16", "20", "24", "all"]
    assert all(float(a) > 0 and float(b) > 0 and float(r) > 0 for a, b, r in rows.values())
    assert lines[7].startswith("growth_exponent A ")


def test_differing_reports_are_found():
    out = subprocess.run([sys.executable, "-c", MISMATCH_CHILD, str(AB)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "3"]
