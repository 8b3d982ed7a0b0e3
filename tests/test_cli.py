import json

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
    for backend, alpha in (("exact", "1/0"), ("approx", "1e400")):
        code, rep = invoke("monodromy", {**ESSENTIAL, "backend": backend, "alpha": alpha})
        assert code == EXIT_INPUT, alpha
        assert "error" in rep, alpha


def test_nesting_limit_refuses_only_deeper_expressions():
    # a flat sum nests one level per term on the left
    for terms, want in ((MAX_NESTING - 1, EXIT_OK), (MAX_NESTING + 1, EXIT_INPUT)):
        job = {"truncation": 8, "backend": "exact",
               "w": {"a": "+".join(["1"] * terms), "b": "0", "c": "1"}}
        code, rep = invoke("closedness", job)
        assert code == want, terms
    code, rep = invoke("monodromy", {**ESSENTIAL, "alpha": "+".join(["1"] * 400)})
    assert code == EXIT_OK and rep["results"]["monodromy"]["alpha"] == "400"


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
    for cmd, job, expect, want_code in cases:
        code, rep = invoke(cmd, job)
        assert code == want_code, (cmd, expect)
        assert rep["error"]["type"] == expect, cmd


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
