import json
import os
import subprocess
import sys
from pathlib import Path

from symdiff2.cli import (
    EXIT_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_PRECISION,
    MAX_NESTING,
    print_report,
    run,
)


def invoke(command, job, fmt="json"):
    args = [command] if fmt == "json" else [command, "--format", fmt]
    code, text = run(args, json.dumps(job))
    return code, (json.loads(text) if fmt == "json" else text)


ESSENTIAL = {
    "truncation": 12,
    "backend": "exact",
    "w": {"scale": "exp(z2/(1+z1*z2))", "u": "z1", "r": "z1*(1+z1*z2)"},
}
NON_SPLIT = {"truncation": 12, "backend": "exact", "w": {"a": "z1", "b": "0", "c": "-1"}}


# -- happy paths ------------------------------------------------------------


def test_theorem26_essential_report():
    code, rep = invoke("theorem26", ESSENTIAL)
    assert code == EXIT_OK
    dec = rep["results"]["decomposition"]
    assert dec["alpha"] == "0"
    assert dec["k"] == 0
    assert dec["f"] == {"-1": "1"}
    assert dec["g"] == {"-1": "-1"}
    assert dec["residual_zero"] is True
    assert rep["results"]["leaf"]["singularity"] == "essential"
    assert rep["status"] == "ok"


def test_split_not_split_negative_exit():
    code, rep = invoke("split", NON_SPLIT)
    assert code == EXIT_NEGATIVE
    body = rep["results"]["split"]
    assert body["status"] == "not_split"
    assert body["witness"] == "z1"
    assert body["odd_multiplicity"] == 1
    assert body["suggested_cover_degree"] == 2


def test_split_success():
    job = {"truncation": 10, "backend": "exact", "w": {"a": "1", "b": "z1*z2", "c": "0"}}
    code, rep = invoke("split", job)
    assert code == EXIT_OK
    assert rep["results"]["split"]["status"] == "split"


def test_closedness_negative():
    job = {"truncation": 10, "backend": "exact",
           "w": {"a": "0", "b": "exp(z1*z2)", "c": "0"}}
    code, rep = invoke("closedness", job)
    assert code == EXIT_NEGATIVE
    body = rep["results"]["closedness"]
    assert body["verdict"] == "no"
    assert body["numerator"]["leading_terms"]


def test_closedness_positive():
    job = {"truncation": 10, "backend": "exact",
           "w": {"scale": "1", "u": "z1", "r": "z2"}}
    code, rep = invoke("closedness", job)
    assert code == EXIT_OK
    assert rep["results"]["closedness"]["verdict"] == "yes"


def test_decompose_separable_and_not():
    job = {"truncation": 10, "backend": "exact",
           "w": {"a": "0", "b": "exp(z1+z2)", "c": "0"}}
    code, rep = invoke("decompose", job)
    assert code == EXIT_OK
    assert rep["results"]["decompose"]["status"] == "separable"
    job["w"]["b"] = "exp(z1*z2)"
    code, rep = invoke("decompose", job)
    assert code == EXIT_NEGATIVE
    assert rep["results"]["decompose"]["status"] == "not_separable"


def test_normal_form_command():
    job = {"truncation": 10, "backend": "exact",
           "w": {"scale": "1", "u": "z1", "r": "z1*(1+z1+z2+z2^2)"}}
    code, rep = invoke("normal-form", job)
    assert code == EXIT_OK
    nf = rep["results"]["normal_form"]
    assert nf["m"] == 0
    assert nf["s"] == {"0": "1", "1": "1"}
    assert nf["t"] == {"1": "1", "2": "1"}
    assert "decomposition" not in rep["results"]


def test_classify_command():
    job = {"truncation": 10, "backend": "exact",
           "w": {"a": "1", "b": "z1*z2", "c": "0"}, "components": ["z1", "z2"]}
    code, rep = invoke("classify", job)
    assert code == EXIT_OK
    out = rep["results"]["classify"]
    assert out["z1"] == {"parity": "S", "geometry": "C", "mult_disc": 2, "mult_core": 2}
    assert out["z2"]["geometry"] == "R"
    assert rep["results"]["core_discriminant"]["multiplicities"]["z1"]["disc"] == 2


def test_monodromy_command_direct():
    job = {"truncation": 8, "backend": "exact", "alpha": "1/3"}
    code, rep = invoke("monodromy", job)
    assert code == EXIT_OK
    assert rep["results"]["monodromy"]["order_type"] == "finite"
    assert rep["results"]["monodromy"]["order"] == 3


def test_monodromy_command_via_pipeline():
    job = {"truncation": 12, "backend": "exact",
           "w": {"scale": "(1+z2)^(1/2)", "u": "z1", "r": "z1*(1+z2)"}}
    code, rep = invoke("monodromy", job)
    assert code == EXIT_OK
    assert rep["results"]["monodromy"]["order_type"] == "finite"
    assert rep["results"]["monodromy"]["order"] == 2


def test_monodromy_exact_fourth_roots_of_unity_carry_no_rounding():
    # c = exp(2 pi i alpha) is exactly 1, i, -1 or -i when 4 alpha is an integer
    for alpha, pair in (("2", ["1", "1"]), ("1/2", ["-1", "-1"]),
                        ("1/4", ["0-1*i", "0+1*i"])):
        code, rep = invoke("monodromy", {"truncation": 8, "backend": "exact", "alpha": alpha})
        assert code == EXIT_OK, alpha
        assert rep["results"]["monodromy"]["pair"] == pair, alpha


# exp(1) and exp(-1) are not exact scalars, but they cancel across the product
CANCELLING = {"truncation": 10,
              "w": {"scale": "exp(1)", "u": "z1", "r": "z1*exp(-1)*(1+z1*z2)"}}


def test_unit_constants_cancel_across_the_product_form():
    code, rep = invoke("theorem26", CANCELLING)
    assert code == EXIT_OK
    assert rep["results"]["decomposition"]["residual_zero"] is True
    for cmd in ("analyze", "closedness"):
        code, rep = invoke(cmd, CANCELLING)
        assert code == EXIT_OK, cmd
        assert rep["results"]["closedness"]["verdict"] == "yes", cmd


def test_analyze_command():
    job = {"truncation": 12, "backend": "exact",
           "w": {"scale": "(1+z2)^(1/2)", "u": "z1", "r": "z1*(1+z2)"},
           "components": ["z1"]}
    code, rep = invoke("analyze", job)
    assert code == EXIT_OK
    res = rep["results"]
    assert res["rank"] == 2
    assert res["closedness"]["verdict"] == "yes"
    assert res["decomposition"]["alpha"] == "1/2"
    assert res["leaf"]["monodromy"]["order"] == 2
    assert res["classify"]["z1"]["geometry"] == "C"


def test_file_input(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(NON_SPLIT))
    code, text = run(["split", "--file", str(path)])
    assert code == EXIT_NEGATIVE


def test_unreadable_job_file_is_an_input_error(tmp_path):
    binary = tmp_path / "job.bin"
    binary.write_bytes(b"\xff\xfe\x00")
    for path, error in ((tmp_path / "missing.json", "FileNotFoundError"),
                        (tmp_path, "IsADirectoryError"),
                        (binary, "UnicodeDecodeError")):
        code, text = run(["split", "--file", str(path)])
        assert code == EXIT_INPUT, path
        report = json.loads(text)
        assert report["error"]["type"] == error
        assert report["status"] == "input-error"


# -- error mapping -------------------------------------------------------------


def test_exit_codes_for_input_errors():
    bad_jobs = [
        ({"truncation": 2, "backend": "exact", "w": {"a": "1", "b": "0", "c": "0"}},
         "truncation too low"),
        ({"truncation": 8, "backend": "quantum", "w": {"a": "1", "b": "0", "c": "0"}},
         "unknown backend"),
        ({"truncation": 8, "backend": "exact", "w": {"a": "z1^^2", "b": "0", "c": "0"}},
         "syntax error"),
        ({"truncation": 8, "backend": "exact", "w": {"a": "(1+z2)^z1", "b": "0", "c": "0"}},
         "exponent not scalar"),
        ({"truncation": 8, "backend": "exact", "w": {"a": "z1^(1/2)", "b": "0", "c": "0"}},
         "fractional power of non-unit"),
        ({"truncation": 8, "backend": "exact", "w": {"a": "1/z2", "b": "0", "c": "0"}},
         "division by non-unit"),
        ({"truncation": 8, "backend": "exact", "w": {"a": "0.5", "b": "0", "c": "0"}},
         "float literal on exact backend"),
        ({"truncation": 8, "backend": "exact", "w": {"a": "1", "b": "0"}},
         "incomplete differential"),
        ({"truncation": 8, "backend": "exact",
          "w": {"a": "1", "b": "0", "c": "0"}, "components": ["1+z1"]},
         "component must vanish at origin"),
        ({"truncation": 8, "backend": "exact",
          "w": {"a": "1", "b": "z1*z2", "c": "0"}, "components": ["0"]},
         "zero component"),
        ({"truncation": 8, "backend": "exact",
          "w": {"a": "1", "b": "z1*z2", "c": "0"}, "components": ["z1-z1"]},
         "component that cancels to zero"),
        ({"truncation": 8, "backend": "exact",
          "w": {"a": "z1", "b": "0", "c": "z1*(1+z2)"}, "components": ["z1", "z1"]},
         "component listed twice"),
        ({"truncation": 8, "backend": "exact",
          "w": {"a": "z1", "b": "0", "c": "z1*(1+z2)"}, "components": ["z1", "2*z1"]},
         "component that is a constant multiple of an earlier one"),
        ({"truncation": 8, "backend": "exact", "w": {"a": "z1^(1/0)", "b": "0", "c": "0"}},
         "division by zero in an exponent"),
        ({"truncation": 8, "backend": "exact",
          "w": {"a": "z1^(0^(-1))", "b": "0", "c": "0"}},
         "negative power of zero in an exponent"),
        ({**ESSENTIAL, "base_shift": "1/0"}, "division by zero in base_shift"),
        ({"truncation": 8, "backend": "exact",
          "w": {"a": "z1^(10^400)", "b": "0", "c": "0"}},
         "exact exponent beyond float range"),
        ({"truncation": 8, "backend": "approx",
          "w": {"a": "z1^(1e400)", "b": "0", "c": "0"}},
         "approx exponent overflows"),
        ({"truncation": 8, "backend": "approx", "w": {"a": "1e400*z1", "b": "0", "c": "1"}},
         "approx literal overflows"),
        ({"truncation": 8, "backend": "approx",
          "w": {"a": "1e200*1e200*z1", "b": "0", "c": "1"}},
         "approx product overflows"),
        ({"truncation": 8, "backend": "approx",
          "w": {"a": "(1e200*z1+1)^2", "b": "0", "c": "1"}},
         "approx power overflows"),
        ({"truncation": 8, "backend": "approx",
          "w": {"scale": "exp(1000+z1)", "u": "z1", "r": "z1*(1+z2)"}},
         "approx exp overflows"),
        ({"truncation": 8, "backend": "exact",
          "w": {"a": "(" * 300 + "z1" + ")" * 300, "b": "0", "c": "0"}},
         "300 nested parentheses"),
        ({"truncation": 8, "backend": "exact",
          "w": {"a": "+".join(["z1"] * 3000), "b": "0", "c": "0"}},
         "sum of 3000 terms"),
    ]
    for job, label in bad_jobs:
        code, rep = invoke("analyze", job)
        assert code == EXIT_INPUT, label
        assert "error" in rep, label
    # the repeated component is refused before the discriminant is divided
    for comps in (["z1", "z1"], ["z1", "2*z1"]):
        code, rep = invoke("classify", {"truncation": 8, "backend": "exact",
                                        "w": {"a": "z1", "b": "0", "c": "z1*(1+z2)"},
                                        "components": comps})
        assert code == EXIT_INPUT, comps
        assert rep["error"]["type"] == "JobError", comps
        assert rep["error"]["message"] == (f"component {comps[1]!r} is a constant "
                                           "multiple of component 'z1'"), comps
    for backend, alpha in (("exact", "1/0"), ("approx", "1e400")):
        code, rep = invoke("monodromy", {**ESSENTIAL, "backend": backend, "alpha": alpha})
        assert code == EXIT_INPUT, alpha
        assert "error" in rep, alpha
    # a scalar parameter that does not fold is named by its key, not as an exponent
    for command, key, text in (("monodromy", "alpha", "z1"), ("monodromy", "alpha", "2^(1/2)"),
                               ("theorem26", "base_shift", "z1")):
        code, rep = invoke(command, {**ESSENTIAL, key: text})
        assert code == EXIT_INPUT, text
        message = rep["error"]["message"]
        assert message.startswith(key + " ") and "exponent" not in message, message


def test_decimal_scalars_are_refused_on_the_exact_backend():
    # base_shift and alpha read a literal by the rule expressions use
    for command, key in (("theorem26", "base_shift"), ("monodromy", "alpha")):
        code, rep = invoke(command, {**ESSENTIAL, key: "0.5"})
        assert code == EXIT_INPUT, key
        assert rep["error"]["type"] == "BackendMismatch", key
        code, rep = invoke(command, {**ESSENTIAL, "backend": "approx", key: "0.5"})
        assert code == EXIT_OK, key


def test_nesting_limit_refuses_only_deeper_expressions():
    # a flat sum nests one level per term on the left
    for terms, want in ((MAX_NESTING - 1, EXIT_OK), (MAX_NESTING + 1, EXIT_INPUT)):
        job = {"truncation": 8, "backend": "exact",
               "w": {"a": "+".join(["1"] * terms), "b": "0", "c": "1"}}
        code, rep = invoke("closedness", job)
        assert code == want, terms
    code, rep = invoke("monodromy", {**ESSENTIAL, "alpha": "+".join(["1"] * 400)})
    assert code == EXIT_OK and rep["results"]["monodromy"]["alpha"] == "400"


def test_exact_powers_above_the_term_cap_are_refused_before_they_are_formed():
    # each job runs in its own interpreter under a timeout: an unbounded power
    # ran for minutes (ROADMAP item 7)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for backend, a, want in (
        ("exact", "(1+z1)^(10^4)", EXIT_INPUT),
        ("exact", "(1+z1)^(2^40)*0+1", EXIT_INPUT),
        ("approx", "(1+z1)^(1e300)", EXIT_INPUT),
        ("exact", "(1+z1)^(10^3)", EXIT_OK),
    ):
        job = {"truncation": 8, "backend": backend, "w": {"a": a, "b": "0", "c": "1"}}
        out = subprocess.run(
            [sys.executable, "-m", "symdiff2.cli", "closedness"], input=json.dumps(job),
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert out.returncode == want, a
        if want == EXIT_INPUT:
            assert "MAX_POWER_TERMS" in json.loads(out.stdout)["error"]["message"], a



def test_an_approx_discriminant_that_overflows_is_refused_at_once():
    # b^2/4 overflows to inf and a*c - b^2/4 to nan; nan is never within the
    # tolerance of zero, so the splitting's homogeneous division never removed
    # its leading term and the job ran without end
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    job = {"truncation": 8, "backend": "approx",
           "w": {"a": "1", "b": "1e200*(1+z2)", "c": "1"}}
    out = subprocess.run(
        [sys.executable, "-m", "symdiff2.cli", "split"], input=json.dumps(job),
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert out.returncode == EXIT_INPUT
    assert json.loads(out.stdout)["error"]["message"] == "a coefficient is not a finite number"


SCALAR_CAP_CHILD = """
import json, sys
from symdiff2.cli import run
out = []
for a in sys.argv[1:]:
    job = {"truncation": 8, "backend": "exact", "w": {"a": a, "b": "0", "c": "1"}}
    code, text = run(["closedness"], json.dumps(job))
    out.append([code, json.loads(text).get("error", {}).get("message", "")])
print(json.dumps(out))
"""


def test_exact_scalars_above_the_bit_cap_are_refused_before_they_are_formed():
    # one interpreter under a timeout: each of these powers ran unbounded
    # (ROADMAP item 7); a constant, a monomial, a folded exponent, and a root
    # whose power is taken when the unit constants are collapsed
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    inputs = ["3^(10^9)*z1+1", "(3*z1)^(10^9)+1", "z1^(2^(10^9))+1",
              "((4+z1)^(1/2))^(2*10^9)", "3^(10^3)*z1+1"]
    out = subprocess.run([sys.executable, "-c", SCALAR_CAP_CHILD, *inputs], env=env,
                         capture_output=True, text=True, timeout=30)
    got = json.loads(out.stdout)
    for a, (code, message) in zip(inputs[:-1], got):
        assert code == EXIT_INPUT and "MAX_SCALAR_BITS" in message, a
    assert got[-1][0] == EXIT_OK


def test_a_computed_coefficient_above_the_bit_cap_is_refused_when_printed():
    # the input's scalar (6340 bits) is admitted, but the splitting's series
    # hold its powers; no report prints a coefficient above the cap, so the
    # job exits 2 naming it instead of failing on the int-to-text limit
    job = {"truncation": 12, "backend": "exact",
           "w": {"a": "1+3^4000*z1*z2", "b": "z1", "c": "1"}}
    code, rep = invoke("split", job)
    assert code == EXIT_INPUT and rep["status"] == "input-error"
    assert "MAX_SCALAR_BITS" in rep["error"]["message"]


def test_json_booleans_and_strings_are_not_integers_or_lists():
    # bool is an int subclass, and a string iterates one character at a time
    bad = [
        ("theorem26", {**ESSENTIAL, "m": True}, "m override"),
        ("theorem26", {**ESSENTIAL, "m": False}, "m override"),
        ("split", {**NON_SPLIT, "truncation": True}, "truncation"),
        ("classify", {**NON_SPLIT, "components": "z1"}, "components"),
        ("theorem26", {**ESSENTIAL, "base_shift": False}, "base_shift"),
        ("theorem26", {**ESSENTIAL, "base_shift": True}, "base_shift"),
        ("monodromy", {**ESSENTIAL, "alpha": True}, "alpha"),
    ]
    for cmd, job, field in bad:
        code, rep = invoke(cmd, job)
        assert code == EXIT_INPUT, field
        assert rep["error"]["type"] == "JobError", field
        assert rep["error"]["message"].startswith(field), field
        assert "results" not in rep or not rep["results"], field


def test_remaining_error_conditions_reach_the_cli():
    cases = [
        ("theorem26", {"truncation": 10, "backend": "exact",
                       "w": {"scale": "exp(1+z2)", "u": "z1", "r": "z1*(1+z2)"}},
         "ExactValueError", EXIT_INPUT),
        ("theorem26", {"truncation": 10, "backend": "exact",
                       "w": {"scale": "1", "u": "z1", "r": "1+z1"}},
         "NotALeafPresentation", EXIT_INPUT),
        ("theorem26", {"truncation": 10, "backend": "exact",
                       "w": {"scale": "1", "u": "z1", "r": "z1*exp(z2^12)"}},
         "ZeroSeries", EXIT_PRECISION),
        ("classify", {"truncation": 10, "backend": "exact",
                      "w": {"a": "1", "b": "z1*z2", "c": "0"},
                      "components": ["z1+z2"]},
         "DivisionFailure", EXIT_INPUT),
        ("theorem26", {"truncation": 10, "backend": "exact",
                       "w": {"scale": "1/z1", "u": "z1", "r": "z1*(1+z2)"}},
         "ValuationError", EXIT_INPUT),
    ]
    # r = z1 does not depend on z2; like r = z1^2 it presents no leaf
    for r in ("z1", "z1^2"):
        for cmd in ("theorem26", "normal-form", "analyze"):
            cases.append((cmd, {"truncation": 10, "backend": "exact",
                                "w": {"scale": "1", "u": "z1", "r": r}},
                          "NotALeafPresentation", EXIT_INPUT))
    # a scale that is exactly zero is an input error at every truncation; a
    # zero only through the truncation asks for more precision
    for scale in ("0", "z1-z1"):
        for cmd in ("theorem26", "normal-form"):
            cases.append((cmd, {"truncation": 24, "backend": "exact",
                                "w": {"scale": scale, "u": "z1", "r": "z1*(1+z1*z2)"}},
                          "ValueError", EXIT_INPUT))
    for truncation in (8, 10):
        for cmd in ("theorem26", "normal-form"):
            cases.append((cmd, {"truncation": truncation, "backend": "exact",
                                "w": {"scale": "exp(z1)-exp(z1)", "u": "z1",
                                      "r": "z1*(1+z1*z2)"}},
                          "ZeroSeries", EXIT_PRECISION))
    for cmd, job, expect, want_code in cases:
        code, rep = invoke(cmd, job)
        assert code == want_code, (cmd, expect)
        assert rep["error"]["type"] == expect, cmd
        if job["w"].get("scale") == "exp(z1)-exp(z1)":
            assert rep["error"]["message"] == (
                "conformal factor vanishes through the guaranteed order")


def test_split_lowest_form_with_odd_top_exponent_is_not_a_square():
    # b^2 - 4ac starts with 2*z1*z2, whose top z1-exponent is odd: no square
    # root, whether or not the backend has a root of the coefficient 2
    for backend in ("exact", "approx"):
        job = {"truncation": 10, "backend": backend,
               "w": {"a": "1", "b": "0", "c": "-(2*z1*z2 + z1^5 + z2^5)/4"}}
        code, rep = invoke("split", job)
        assert code == EXIT_PRECISION, backend
        assert rep["error"]["type"] == "Inconclusive", backend


def test_exit_code_for_bad_json():
    code, text = run(["split"], "this is not json")
    assert code == EXIT_INPUT
    rep = json.loads(text)
    assert rep["error"]["type"] == "JSONDecodeError"


def test_exit_codes_for_negative_verdicts():
    # DegenerateBasePoint
    job = {"truncation": 12, "backend": "exact",
           "w": {"scale": "exp(-(z2^2)/2)", "u": "z1", "r": "z1*exp(z2^2/2)"}}
    code, rep = invoke("theorem26", job)
    assert code == EXIT_NEGATIVE
    assert rep["error"]["type"] == "DegenerateBasePoint"
    # with the shift it passes
    job["base_shift"] = "1"
    code, rep = invoke("theorem26", job)
    assert code == EXIT_OK
    assert rep["results"]["decomposition"]["alpha"] == "-1"
    assert rep["results"]["leaf"]["singularity"] == "meromorphic"
    # NotNormalized
    job2 = {"truncation": 10, "backend": "exact",
            "w": {"scale": "z2", "u": "z1", "r": "z1*(1+z2)"}}
    code, rep = invoke("theorem26", job2)
    assert code == EXIT_NEGATIVE
    assert rep["error"]["type"] == "NotNormalized"
    # nonzero residual (non-closed input)
    job3 = {"truncation": 10, "backend": "exact",
            "w": {"scale": "exp(z2^2)", "u": "z1", "r": "z1*(1+z2)"}}
    code, rep = invoke("theorem26", job3)
    assert code == EXIT_NEGATIVE
    assert rep["results"]["decomposition"]["residual_zero"] is False


def test_exit_codes_for_precision():
    # rank-1 differential: classify cannot divide out the discriminant
    job = {"truncation": 8, "backend": "exact",
           "w": {"a": "1", "b": "2*z2", "c": "z2^2"}, "components": ["z2"]}
    code, rep = invoke("classify", job)
    assert code == EXIT_PRECISION
    assert rep["error"]["type"] == "Inconclusive"
    job2 = {"truncation": 8, "backend": "exact",
            "w": {"scale": "1", "u": "z1", "r": "z1*(1+z2)"}, "m": 12}
    code, rep = invoke("theorem26", job2)
    assert code == EXIT_PRECISION
    assert rep["error"]["type"] == "PrecisionExhausted"


# -- determinism and serialization ----------------------------------------------


def test_reports_are_byte_identical():
    for job, cmd in ((ESSENTIAL, "theorem26"), (NON_SPLIT, "split")):
        outs = {run([cmd], json.dumps(job))[1] for _ in range(3)}
        assert len(outs) == 1


def test_report_json_roundtrip_stable():
    code, text = run(["split"], json.dumps(NON_SPLIT))
    rep = json.loads(text)
    assert json.dumps(rep, sort_keys=True, indent=2) + "\n" == text


def test_print_report_text_format():
    code, text = run(["split", "--format", "text"], json.dumps(NON_SPLIT))
    assert code == EXIT_NEGATIVE
    assert "results.split.witness: z1" in text


def test_print_report_empty():
    assert print_report({}) == "{}\n"
    assert print_report({}, "text") == "\n"


def test_analyze_survives_stage_failures():
    # rank-1 input: split is inconclusive but the other stages still report
    job = {"truncation": 8, "backend": "exact",
           "w": {"a": "1", "b": "2*z2", "c": "z2^2"}}
    code, rep = invoke("analyze", job)
    assert code == EXIT_PRECISION
    assert rep["results"]["rank"] == 1
    assert rep["results"]["closedness"]["verdict"] == "inconclusive"
    assert rep["results"]["split_error"]["type"] == "Inconclusive"


def test_approx_backend_report():
    job = {"truncation": 12, "backend": "approx",
           "w": {"scale": "(1+z2)^(1.4142135623730951)", "u": "z1", "r": "z1*(1+z2)"}}
    code, rep = invoke("theorem26", job)
    assert code == EXIT_OK
    leaf = rep["results"]["leaf"]
    assert leaf["monodromy"]["order_type"] == "infinite"
    assert leaf["monodromy"]["heuristic"] is True
