"""Exact CLI reports are byte-identical across refactors.

``data/report_digests.json`` holds exact job documents, one or more per
command, with the exit code and the sha256 of the report text that
``cli.run`` produced for them when the file was recorded.  A change that
alters any exact report (a coefficient, an order, a verdict, a message)
fails here; a deliberate change of output must re-record the file and say
why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from symdiff2.cli import COMMANDS, run

CASES = json.loads((Path(__file__).parent / "data" / "report_digests.json").read_text())


def test_cases_cover_every_command():
    assert {case["command"] for case in CASES} == set(COMMANDS)
    assert all(case["doc"]["backend"] == "exact" for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_report_digest(case):
    code, text = run([case["command"]], json.dumps(case["doc"], sort_keys=True))
    assert code == case["exit"]
    assert hashlib.sha256(text.encode()).hexdigest() == case["sha256"]
