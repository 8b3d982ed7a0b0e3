"""Command-line front end.

Reads a JSON job document from a file or standard input, runs the requested
analysis and prints a deterministic machine-readable report.

Job document keys: "truncation" (int >= 4), "backend" ("exact" | "approx"),
"w" with either {"a", "b", "c"} or {"scale", "u", "r"} expression strings,
optional "components" (list of polynomial expressions), "base_shift"
(scalar expression), "m" (contact-order override), "alpha" (scalar
expression for the monodromy command).

Exit codes: 0 success, 1 valid negative verdict (for example NotSplit),
2 input error, 3 precision exhaustion.  A report is always emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import is_dataclass
from functools import cached_property

from . import errors as err
from .closedness import first_kind_decompose, is_closed
from .differentials import (
    SymTwoDiff,
    classify_component,
    core_discriminant,
    rank,
    split,
)
from .expressions import DifferentialInput, eval_ast, fold_scalar, parse
from .local_forms import analyze_product_form, monodromy_index
from .scalars import get_context
from .series import INF

INPUT_ERRORS = (
    err.ExprSyntaxError,
    err.ExponentNotScalar,
    err.BackendMismatch,
    err.NotAUnit,
    err.DivisionByNonUnit,
    err.ValuationError,
    err.ExactValueError,
    err.NotALeafPresentation,
    err.DivisionFailure,
    ValueError,
    OverflowError,
    KeyError,
    TypeError,
)
NEGATIVE_ERRORS = (
    err.NotSplit,
    err.NotSeparable,
    err.Mismatch,
    err.DegenerateBasePoint,
    err.NotNormalized,
    err.NonzeroResidual,
)
PRECISION_ERRORS = (err.Inconclusive, err.PrecisionExhausted, err.ZeroSeries)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_PRECISION = 3

COMMANDS = (
    "analyze",
    "split",
    "closedness",
    "decompose",
    "normal-form",
    "theorem26",
    "classify",
    "monodromy",
)

_LEADING_TERMS = 10

# Parsing and evaluation recurse at least once per level of an expression, so
# job text nested deeper than this is refused before it can exhaust the stack.
MAX_NESTING = 500


def _series_summary(s):
    terms = s.terms_sorted()
    return {
        "leading_terms": [[i, j, s.ctx.fmt(c)] for (i, j), c in terms[:_LEADING_TERMS]],
        "n_terms": len(terms),
        "order": "exact" if s.order is INF else s.order,
        "is_zero": s.is_zero(),
    }


def _series1_table(s):
    """A one-axis series as {exponent: coefficient}; the other exponent is 0."""
    return {str(i + j): s.ctx.fmt(c) for (i, j), c in sorted(s.coeffs.items())}


def _oneform_summary(mu):
    return {"A": _series_summary(mu.A), "B": _series_summary(mu.B)}


def _monodromy_summary(mi):
    from .scalars import format_complex

    body = {
        "pair": [format_complex(mi.pair[0]), format_complex(mi.pair[1])],
        "order_type": mi.order_type,
        "heuristic": mi.heuristic,
    }
    if mi.order is not None:
        body["order"] = mi.order
    if mi.note:
        body["note"] = mi.note
    return body


def _leaf_summary(leaf):
    return {
        "first_kind": leaf.first_kind,
        "singularity": leaf.singularity,
        "in_breakdown": leaf.in_breakdown,
        "monodromy": _monodromy_summary(leaf.monodromy),
    }


def _decomposition_summary(dec, ctx):
    return {
        "k": dec.k,
        "m": dec.m,
        "alpha": ctx.fmt(dec.alpha),
        "f": _series1_table(dec.f),
        "g": _series1_table(dec.g),
        "gauge": "g0 = 0",
        "residual_zero": dec.residual_zero,
        "residual": _series_summary(dec.residual),
    }


def _normal_form_summary(nf, ctx):
    return {
        "m": nf.m,
        "s": _series1_table(nf.s),
        "t": _series1_table(nf.t),
        "gcorr": _series_summary(nf.gcorr),
        "chart_z1": _series_summary(nf.chart.comp1),
        "chart_z2": _series_summary(nf.chart.comp2),
        "conformal_factor": _series_summary(nf.fout),
    }


class JobError(ValueError):
    pass


def _nesting(parsed) -> int:
    """Depth of a parsed job value (an AST or a DifferentialInput)."""
    deepest, stack = 0, [(parsed, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((c, depth + 1) for c in vars(node).values() if is_dataclass(c))
    return deepest


def _read(reader, text):
    """``reader(text)`` for job text, refusing expressions nested too deeply."""
    try:
        parsed = reader(text)
    except RecursionError:
        parsed = None
    if parsed is None or _nesting(parsed) > MAX_NESTING:
        raise JobError(f"expression nested more than {MAX_NESTING} levels deep")
    return parsed


class Job:
    """Validated job document."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise JobError("job document must be a JSON object")
        # type(...) is int: JSON true/false arrive as bool, an int subclass
        self.truncation = doc.get("truncation", 16)
        if type(self.truncation) is not int or self.truncation < 4:
            raise JobError("truncation must be an integer >= 4")
        backend = doc.get("backend", "exact")
        if backend not in ("exact", "approx"):
            raise JobError("backend must be 'exact' or 'approx'")
        self.backend = backend
        self.ctx = get_context(backend)
        self.w_doc = doc.get("w")
        self.components = doc.get("components", [])
        if not isinstance(self.components, list):
            raise JobError("components must be a list of polynomial expressions")
        self.base_shift_text = doc.get("base_shift")
        self.m_override = doc.get("m")
        if self.m_override is not None and (
            type(self.m_override) is not int or self.m_override < 0
        ):
            raise JobError("m override must be a nonnegative integer")
        self.alpha_text = doc.get("alpha")
        for key in ("base_shift", "alpha"):
            if isinstance(doc.get(key), bool):
                raise JobError(f"{key} must be a scalar expression, not a boolean")
        self.doc = doc

    def base_shift(self):
        if self.base_shift_text in (None, 0, "0"):
            return 0
        return self._scalar(str(self.base_shift_text))

    def alpha(self):
        if self.alpha_text is None:
            return None
        return self._scalar(str(self.alpha_text))

    def _scalar(self, text):
        lit = fold_scalar(_read(parse, text))
        if lit.exact is not None:
            return lit.exact if self.backend == "exact" else self.ctx.coerce(lit.approx)
        if self.backend == "exact":
            raise JobError(f"scalar {text!r} is not exact; use the approx backend")
        return lit.approx

    @cached_property
    def differential(self) -> DifferentialInput:
        if not isinstance(self.w_doc, dict):
            raise JobError("job must carry a 'w' object")
        return _read(
            DifferentialInput.from_strings, {k: str(v) for k, v in self.w_doc.items()}
        )

    @cached_property
    def sym_two_diff(self) -> SymTwoDiff:
        a, b, c = self.differential.coefficient_triple(self.ctx, self.truncation)
        return SymTwoDiff(a, b, c)

    def component_series(self):
        out = []
        for text in self.components:
            h = eval_ast(_read(parse, str(text)), self.truncation, self.ctx)
            if h.order is not INF:
                raise JobError(f"component {text!r} must be polynomial")
            if h.is_zero():
                raise JobError(f"component {text!r} vanishes identically")
            if not self.ctx.is_zero(h.constant_term):
                raise JobError(f"component {text!r} must vanish at the origin")
            out.append((str(text), h))
        return out

    def echo(self):
        return {
            "truncation": self.truncation,
            "backend": self.backend,
            "w": self.w_doc,
            **{
                k: self.doc[k]
                for k in ("components", "base_shift", "m", "alpha")
                if k in self.doc
            },
        }


# -- per-command drivers -------------------------------------------------


def _run_split(job: Job, results, warnings):
    w = job.sym_two_diff
    try:
        mu1, mu2 = split(w)
    except err.NotSplit as exc:
        results["split"] = {
            "status": "not_split",
            "witness": exc.witness,
            "odd_multiplicity": exc.multiplicity,
            "suggested_cover_degree": 2,
        }
        return EXIT_NEGATIVE
    results["split"] = {
        "status": "split",
        "factor1": _oneform_summary(mu1),
        "factor2": _oneform_summary(mu2),
    }
    return EXIT_OK


def _run_closedness(job: Job, results, warnings):
    w = job.sym_two_diff
    rep = is_closed(w)
    results["closedness"] = {
        "verdict": rep.verdict,
        "rank": rep.rank,
        "numerator": _series_summary(rep.numerator),
    }
    if rep.note:
        results["closedness"]["note"] = rep.note
    if rep.verdict == "no":
        return EXIT_NEGATIVE
    if rep.verdict == "inconclusive":
        warnings.append("closedness inconclusive: " + (rep.note or "rank below 2"))
    return EXIT_OK


def _run_decompose(job: Job, results, warnings):
    w = job.sym_two_diff
    if not (w.a.is_zero() and w.c.is_zero()):
        raise JobError(
            "decompose expects the chart form g dz1 dz2 (a and c must vanish)"
        )
    try:
        f, h = first_kind_decompose(w.b)
    except err.NotSeparable as exc:
        results["decompose"] = {
            "status": "not_separable",
            "residual": _series_summary(exc.residual),
        }
        return EXIT_NEGATIVE
    results["decompose"] = {
        "status": "separable",
        "f": _series1_table(f),
        "h": _series1_table(h),
        "gauge": "constant absorbed into f",
    }
    return EXIT_OK


def _run_pipeline(job: Job, results, warnings, *, solve: bool):
    di = job.differential
    if not di.is_product_form:
        raise JobError(
            "normal-form and theorem26 require the product form {scale, u, r}"
        )
    analysis = analyze_product_form(
        *di.product_factors(job.ctx, job.truncation, job.base_shift()),
        order=job.truncation,
        m_override=job.m_override,
        solve=solve,
    )
    warnings.extend(analysis.warnings)
    results["normal_form"] = _normal_form_summary(analysis.normal_form, job.ctx)
    results["chart_factor"] = _series_summary(analysis.chart_factor)
    if not solve:
        return EXIT_OK
    dec = analysis.decomposition
    results["decomposition"] = _decomposition_summary(dec, job.ctx)
    if analysis.leaf is not None:
        results["leaf"] = _leaf_summary(analysis.leaf)
    if not dec.residual_zero:
        return EXIT_NEGATIVE
    return EXIT_OK


def _run_classify(job: Job, results, warnings):
    w = job.sym_two_diff
    comps = job.component_series()
    if not comps:
        raise JobError("classify requires a nonempty 'components' list")
    core, table = core_discriminant(w, comps)
    out = {}
    for label, h in comps:
        cc = classify_component(w, h, label)
        out[label] = {
            "parity": cc.parity,
            "geometry": cc.geometry,
            "mult_disc": cc.mult_disc,
            "mult_core": cc.mult_core,
        }
        if cc.geometry == "undecided":
            warnings.append(
                f"component {label}: geometry undecided (differential does "
                "not split before a ramified cover)"
            )
    results["classify"] = out
    results["core_discriminant"] = {
        "series": _series_summary(core),
        "multiplicities": table,
    }
    return EXIT_OK


def _run_monodromy(job: Job, results, warnings):
    alpha = job.alpha()
    if alpha is None:
        code = _run_pipeline(job, results, warnings, solve=True)
        if "leaf" in results:
            results["monodromy"] = results["leaf"]["monodromy"]
        return code
    mi = monodromy_index(alpha, job.ctx)
    results["monodromy"] = _monodromy_summary(mi)
    results["monodromy"]["alpha"] = job.ctx.fmt(alpha)
    return EXIT_OK


def _error_body(exc) -> dict:
    return {"type": type(exc).__name__, "message": str(exc)}


def _analyze_stage(name, runner, job, results, warnings):
    """Run one analyze stage, mapping failures into the report."""
    try:
        return runner(job, results, warnings)
    except NEGATIVE_ERRORS as exc:
        results[f"{name}_error"] = _error_body(exc)
        return EXIT_NEGATIVE
    except PRECISION_ERRORS as exc:
        results[f"{name}_error"] = _error_body(exc)
        warnings.append(f"{name}: {exc}")
        return EXIT_PRECISION


def _run_analyze(job: Job, results, warnings):
    w = job.sym_two_diff
    code = EXIT_OK
    results["discriminant"] = _series_summary(w.disc)
    try:
        results["rank"] = rank(w)
    except err.Inconclusive as exc:
        results["rank"] = "inconclusive"
        warnings.append(str(exc))
    code = max(code, _analyze_stage("closedness", _run_closedness, job, results, warnings))
    code = max(code, _analyze_stage("split", _run_split, job, results, warnings))
    if job.components:
        code = max(code, _analyze_stage("classify", _run_classify, job, results, warnings))
    if job.differential.is_product_form:
        code = max(
            code,
            _analyze_stage(
                "pipeline",
                lambda j, r, ww: _run_pipeline(j, r, ww, solve=True),
                job,
                results,
                warnings,
            ),
        )
    return code


_RUNNERS = {
    "analyze": _run_analyze,
    "split": _run_split,
    "closedness": _run_closedness,
    "decompose": _run_decompose,
    "normal-form": lambda job, res, warn: _run_pipeline(job, res, warn, solve=False),
    "theorem26": lambda job, res, warn: _run_pipeline(job, res, warn, solve=True),
    "classify": _run_classify,
    "monodromy": _run_monodromy,
}


# -- report assembly -------------------------------------------------------

_STATUS = {
    EXIT_OK: "ok",
    EXIT_NEGATIVE: "negative",
    EXIT_INPUT: "input-error",
    EXIT_PRECISION: "precision-exhausted",
}


def print_report(report: dict, fmt: str = "json") -> str:
    """Deterministic serialization: sorted keys, canonical scalar strings."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}{key}.", value[key])
        elif isinstance(value, list):
            lines.append(f"{prefix[:-1]}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", report)
    return "\n".join(lines) + "\n"


def run(argv, stdin_text: str | None = None):
    """Execute a CLI invocation; returns (exit_code, report_text)."""
    parser = argparse.ArgumentParser(
        prog="symdiff2",
        description="Local analysis of symmetric 2-differentials on complex surfaces",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument(
        "--file", "-f", default=None, help="job document path (default: stdin)"
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (EXIT_INPUT if exc.code else EXIT_OK), ""
    report = {"command": args.command, "results": {}, "warnings": []}
    code = EXIT_OK
    try:
        if args.file:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = stdin_text if stdin_text is not None else sys.stdin.read()
        doc = json.loads(text)
        job = Job(doc)
        report["input"] = job.echo()
        code = _RUNNERS[args.command](job, report["results"], report["warnings"])
    except json.JSONDecodeError as exc:
        report["error"] = _error_body(exc)
        code = EXIT_INPUT
    except NEGATIVE_ERRORS as exc:
        report["error"] = _error_body(exc)
        code = EXIT_NEGATIVE
    except PRECISION_ERRORS as exc:
        report["error"] = _error_body(exc)
        code = EXIT_PRECISION
    except INPUT_ERRORS as exc:
        report["error"] = _error_body(exc)
        code = EXIT_INPUT
    report["status"] = _STATUS[code]
    report["exit_code"] = code
    return code, print_report(report, args.format)


def main(argv=None) -> int:
    code, text = run(argv if argv is not None else sys.argv[1:])
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
