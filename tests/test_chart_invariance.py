"""Verdicts do not depend on the chart.

Closedness, the splitting, the contact order m, k and the index alpha are
defined through local decompositions into closed 1-differentials, not
through a chart.  Pulling a product form w = scale * du * dr back by a
biholomorphism that fixes the origin is textual: substitute both variables
in ``scale``, ``u`` and ``r``.  ``theorem26`` must then give the same exit
code and the same k, m and alpha as in the original chart.  The maps and
the pullback are those of ``tools/charts.py``, which ``tools/invariance_sweep.py``
uses to compare exit codes over the benchmark's product-form jobs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from symdiff2.cli import run

# loaded from its file, so that no tools/ module lands on sys.path
_spec = importlib.util.spec_from_file_location(
    "charts", Path(__file__).resolve().parents[1] / "tools" / "charts.py")
charts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(charts)
MAPS, pull_back = charts.MAPS, charts.pull_back

README = "exp(z2/(1+z1*z2))"
DOCUMENTS = {
    "readme": {"scale": README, "u": "z1", "r": "z1*(1+z1*z2)"},
    "readme-twin": {"scale": f"{README}*exp((1/2)*z2)", "u": "z1", "r": "z1*(1+z1*z2)"},
    "essential-m1": {
        "scale": "z1*(1+z1*z2)^(-1/3)*exp(z2/(1+z1*z2))*exp(z1+(1/2)*z1^2)"
                 "*exp((1/3)*z1*(1+z1*z2))",
        "u": "z1", "r": "z1*(1+z1*z2)"},
    "essential-m1-twin": {
        "scale": "z1*(1+z1*z2)^(-1/3)*exp(z2/(1+z1*z2))*exp(z1+(1/2)*z1^2)"
                 "*exp((1/3)*z1*(1+z1*z2))*exp((-1/2)*z2)",
        "u": "z1", "r": "z1*(1+z1*z2)"},
    "essential-m3": {
        "scale": "z1^2*(1+z1^3*z2)^(-1/3)*exp(-z1*z2*(2+z1^3*z2)/(1+z1^3*z2)^2)"
                 "*exp(-z1+(1/2)*z1^2)*exp((-1/3)*z1*(1+z1^3*z2))",
        "u": "z1", "r": "z1*(1+z1^3*z2)"},
    "meromorphic-m2-chart": {
        "scale": "(1+(z1+z2^2)^2*z2)*exp((z1+z2^2)+(1/2)*(z1+z2^2)^2)"
                 "*exp((-1/3)*(z1+z2^2)*(1+(z1+z2^2)^2*z2))",
        "u": "z1+z2^2", "r": "(z1+z2^2)*(1+(z1+z2^2)^2*z2)"},
    "meromorphic-m2-chart-twin": {
        "scale": "(1+(z1+z2^2)^2*z2)*exp((z1+z2^2)+(1/2)*(z1+z2^2)^2)"
                 "*exp((-1/3)*(z1+z2^2)*(1+(z1+z2^2)^2*z2))*exp((1/2)*z2)",
        "u": "z1+z2^2", "r": "(z1+z2^2)*(1+(z1+z2^2)^2*z2)"},
}


def theorem26(w):
    code, text = run(["theorem26"], json.dumps({"truncation": 12, "backend": "exact", "w": w}))
    found = json.loads(text)["results"].get("decomposition", {})
    return code, {key: found.get(key) for key in ("k", "m", "alpha")}


def test_pull_back_substitutes_both_variables_at_once():
    got = pull_back({"u": "z1", "r": "z1*(1+z12+z2)"}, ("z2", "z1"))
    assert got == {"u": "(z2)", "r": "(z2)*(1+z12+(z1))"}


@pytest.mark.parametrize("name", DOCUMENTS)
def test_theorem26_verdict_is_the_same_in_every_chart(name):
    w = DOCUMENTS[name]
    code, invariants = theorem26(w)
    assert code == (1 if name.endswith("twin") else 0)
    assert None not in invariants.values()
    for label, images in MAPS.items():
        assert theorem26(pull_back(w, images)) == (code, invariants), label
