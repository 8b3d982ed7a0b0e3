"""Known-answer checker: compare one CLI report with the answer its job fixes.

The expected answers come from :mod:`jobs`; this module only reads the
report.  On the exact backend every number must match exactly.  On the
approx backend integers and verdicts must match exactly and ``alpha`` must
lie within ``ALPHA_TOL`` of the constructed value; the Laurent tables are
checked through their pole orders only.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

ALPHA_TOL = 1e-6
STATUS = {0: "ok", 1: "negative"}

_EXACT = re.compile(r"^(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)\*i)?$")


def parse_exact(text: str):
    """An exact report scalar ("p/q" or "p/q+r/s*i") as (re, im) Fractions."""
    m = _EXACT.match(text)
    if not m:
        raise ValueError(f"not an exact scalar: {text!r}")
    im = Fraction(m.group(3)) if m.group(3) else Fraction(0)
    return Fraction(m.group(1)), (-im if m.group(2) == "-" else im)


def parse_approx(text: str) -> complex:
    """An approx report scalar ("x", "x+y*i") as a complex number."""
    return complex(text.replace("*i", "j"))


def _table(report_table: dict, exact: bool) -> dict:
    if exact:
        return {int(k): parse_exact(v) for k, v in report_table.items()}
    return {int(k): parse_approx(v) for k, v in report_table.items()}


def _pole(keys) -> int:
    return max([0] + [-k for k in keys])


class _Mismatches(list):
    def expect(self, what, got, want):
        if got != want:
            self.append(f"{what}: got {got!r}, want {want!r}")


def _check_decomposition(out, results, want, exact):
    dec = results.get("decomposition")
    if dec is None:
        out.append("decomposition: missing")
        return
    out.expect("k", dec.get("k"), want["k"])
    out.expect("m", dec.get("m"), want["m"])
    out.expect("residual_zero", dec.get("residual_zero"), want["residual_zero"])
    alpha = want["alpha"]
    if exact:
        out.expect("alpha", parse_exact(dec["alpha"]), (alpha, Fraction(0)))
    elif abs(parse_approx(dec["alpha"]) - float(alpha)) > ALPHA_TOL:
        out.append(f"alpha: got {dec['alpha']}, want {alpha} within {ALPHA_TOL}")
    if not want["residual_zero"]:
        return
    for name in ("f", "g"):
        got = _table(dec.get(name, {}), exact)
        out.expect(f"{name} pole order", _pole(got), _pole(want[name]))
        if exact:
            out.expect(f"{name} table", got, {e: (c, Fraction(0)) for e, c in want[name].items()})
    leaf = results.get("leaf")
    if leaf is None:
        out.append("leaf: missing")
        return
    out.expect("singularity", leaf.get("singularity"), want["leaf"]["singularity"])
    out.expect("first_kind", leaf.get("first_kind"), want["leaf"]["first_kind"])
    if exact:
        mono = leaf.get("monodromy", {})
        for key, value in want["leaf"]["monodromy"].items():
            out.expect(f"monodromy {key}", mono.get(key), value)


def _check_classify(out, results, want):
    table = results.get("classify", {})
    mults = results.get("core_discriminant", {}).get("multiplicities", {})
    for label, comp in want.items():
        got = table.get(label, {})
        for key in ("mult_disc", "mult_core", "parity"):
            out.expect(f"classify {label} {key}", got.get(key), comp[key])
        if "content" in comp and results.get("core_discriminant") is not None:
            out.expect(
                f"core multiplicities {label}",
                mults.get(label),
                {"disc": comp["mult_disc"], "content": comp["content"], "core": comp["mult_core"]},
            )


def check(job, code: int, text: str) -> list:
    """Mismatches between a report and the job's known answer (empty: pass)."""
    want = job.expect
    exact = job.backend == "exact"
    out = _Mismatches()
    out.expect("exit", code, want["exit"])
    try:
        report = json.loads(text)
    except ValueError:
        return out + ["report is not JSON"]
    out.expect("status", report.get("status"), STATUS.get(want["exit"]))
    results = report.get("results", {})
    try:
        if "decomposition" in want:
            _check_decomposition(out, results, want["decomposition"], exact)
        if "closedness" in want:
            body = results.get("closedness", {})
            verdict = want["closedness"]
            if isinstance(verdict, dict):
                out.expect("rank", body.get("rank"), verdict["rank"])
                verdict = verdict["verdict"]
            out.expect("closedness", body.get("verdict"), verdict)
        if "split" in want:
            body = results.get("split", {})
            for key, value in want["split"].items():
                out.expect(f"split {key}", body.get(key), value)
        if "classify" in want:
            _check_classify(out, results, want["classify"])
        if "decompose" in want:
            body = results.get("decompose", {})
            out.expect("decompose status", body.get("status"), want["decompose"]["status"])
            for name in ("f", "h"):
                if exact and name in want["decompose"]:
                    out.expect(
                        f"decompose {name}",
                        _table(body.get(name, {}), True),
                        {e: (c, Fraction(0)) for e, c in want["decompose"][name].items()},
                    )
    except (KeyError, TypeError, ValueError) as exc:
        out.append(f"malformed report: {type(exc).__name__}: {exc}")
    return list(out)
