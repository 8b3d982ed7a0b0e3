import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symdiff2 import APPROX, EXACT, INF
from symdiff2.cli import EXIT_INPUT, run
from symdiff2.errors import (
    BackendMismatch,
    DivisionByNonUnit,
    ExactValueError,
    ExponentNotScalar,
    ExprSyntaxError,
    NotAUnit,
)
from symdiff2.expressions import (
    MAX_POWER_TERMS,
    MAX_SCALAR_BITS,
    Bin,
    Call,
    DifferentialInput,
    Imag,
    Neg,
    Num,
    Pow,
    Var,
    eval_ast,
    eval_normalized,
    eval_text,
    parse,
    print_expr,
    shift_variable,
)
from symdiff2.expressions import _check_power_size
from symdiff2.scalars import GaussianRational
from symdiff2.series import Series2


# -- parsing ------------------------------------------------------------


def test_parse_pow_over_sum():
    ast = parse("(1+z2)^(1/2)")
    assert isinstance(ast, Pow)
    assert isinstance(ast.base, Bin) and ast.base.op == "+"
    assert ast.exponent.exact.re == Fraction(1, 2)


def test_parse_exp_over_quotient():
    ast = parse("exp(z2/(1+z1*z2))")
    assert isinstance(ast, Call) and ast.fn == "exp"
    assert isinstance(ast.arg, Bin) and ast.arg.op == "/"


def test_parse_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("z1^^2")
    assert exc.value.position == 3


def test_parse_unknown_identifier():
    with pytest.raises(ExprSyntaxError):
        parse("z3 + 1")


def test_parse_trailing_input():
    with pytest.raises(ExprSyntaxError):
        parse("z1 z2")


def test_exponent_not_scalar():
    with pytest.raises(ExponentNotScalar):
        parse("(1+z2)^z1")
    with pytest.raises(ExponentNotScalar):
        parse("(1+z2)^(1+z1)")


def test_precedence():
    # ^ binds tighter than unary minus, which binds tighter than * and /
    assert print_expr(parse("-z1^2")) == "-z1^2"
    ast = parse("-z1^2")
    assert isinstance(ast, Neg) and isinstance(ast.operand, Pow)
    ast = parse("1+2*z1")
    assert ast.op == "+" and isinstance(ast.right, Bin) and ast.right.op == "*"


def test_exponent_forms():
    assert parse("z1^2").exponent.exact.re == 2
    assert parse("z1^-2").exponent.exact.re == -2
    assert parse("(1+z2)^(-3/7)").exponent.exact.re == Fraction(-3, 7)
    assert parse("(1+z2)^(1.25)").exponent.exact is None
    assert parse("(1+z2)^(1/2+2*i)").exponent.exact.im == 2
    assert parse("(1+z2)^i").exponent.exact.im == 1


# -- printing -----------------------------------------------------------


def test_print_parse_roundtrip_examples():
    for text in [
        "(1+z2)^(1/2)",
        "exp(z2/(1+z1*z2))",
        "z1*(1+z1*z2)",
        "-z1^2+3/4*i",
        "log(1+z1)-exp(z2)",
        "1/2/z1",
        "2^3^2",
        "(1+z2)^(-1/2)*z1",
    ]:
        ast = parse(text)
        assert parse(print_expr(ast)) == ast


def _rand_ast(rnd: random.Random, depth: int):
    if depth == 0:
        choice = rnd.random()
        if choice < 0.4:
            return Num(Fraction(rnd.randint(0, 9)))
        if choice < 0.5:
            return Imag()
        return Var(rnd.choice(["z1", "z2"]))
    op = rnd.choice(["+", "-", "*", "/", "neg", "exp", "pow"])
    if op == "neg":
        return Neg(_rand_ast(rnd, depth - 1))
    if op == "exp":
        return Call("exp", _rand_ast(rnd, depth - 1))
    if op == "pow":
        from symdiff2.expressions import fold_scalar

        return Pow(_rand_ast(rnd, depth - 1), fold_scalar(Num(Fraction(rnd.randint(0, 3)))))
    return Bin(op, _rand_ast(rnd, depth - 1), _rand_ast(rnd, depth - 1))


def test_print_parse_roundtrip_random():
    rnd = random.Random(71)
    for _ in range(100):
        ast = _rand_ast(rnd, rnd.randint(1, 4))
        assert parse(print_expr(ast)) == ast


# -- evaluation ----------------------------------------------------------


def test_eval_binomial_example(ctx):
    s = eval_text("(1+z2)^(1/2)", 3, ctx)
    expect = Series2.from_terms(
        ctx,
        {(0, 0): 1, (0, 1): Fraction(1, 2), (0, 2): Fraction(-1, 8),
         (0, 3): Fraction(1, 16)},
        order=3,
    )
    assert s.eq_through(expect)


def test_eval_fractional_power_of_non_unit(ctx):
    with pytest.raises(NotAUnit):
        eval_text("z1^(3/2)", 8, ctx)
    with pytest.raises(NotAUnit):
        eval_text("log(z1)", 8, ctx)


def test_eval_essential_factor(ctx):
    s = eval_text("exp(z2/(1+z1*z2))", 3, ctx)
    assert ctx.eq(s.coefficient(0, 0), ctx.one)
    assert ctx.eq(s.coefficient(0, 1), ctx.one)
    assert ctx.eq(s.coefficient(0, 2), ctx.from_rational(Fraction(1, 2)))
    assert ctx.eq(s.coefficient(1, 2), ctx.from_rational(-1))


def test_eval_division_rules(ctx):
    # dividing by z1 is Laurent, dividing by a z2 multiple is not
    s = eval_text("1/z1", 6, ctx)
    assert s.coefficient(-1, 0) == ctx.one
    s = eval_text("(1+z2)/(z1^2*(1+z1))", 6, ctx)
    assert s.pole == 2
    with pytest.raises(DivisionByNonUnit):
        eval_text("1/z2", 6, ctx)
    with pytest.raises(DivisionByNonUnit):
        eval_text("1/(z1+z2)", 6, ctx)


def test_power_cap_counts_the_box_of_exponents(ctx):
    # (n*span_z1 + 1) * (n*span_z2 + 1) terms at most
    z1_z2 = eval_text("z1^2+z1*z2^3", 8, ctx)  # spans 1 and 3
    n = 14  # 15 * 43 = 645 terms
    assert (n + 1) * (3 * n + 1) <= MAX_POWER_TERMS
    _check_power_size(z1_z2, n)
    line = eval_text("1+z1", 8, ctx)
    _check_power_size(line, MAX_POWER_TERMS - 1)
    with pytest.raises(ValueError, match="MAX_POWER_TERMS"):
        _check_power_size(line, MAX_POWER_TERMS)
    with pytest.raises(ValueError, match="MAX_POWER_TERMS"):
        _check_power_size(z1_z2, 26)  # 27 * 79 terms
    for s in (eval_text("z1^3*z2", 8, ctx), eval_text("0", 8, ctx)):
        _check_power_size(s, 10**9)  # a monomial power is one term
    with pytest.raises(ValueError, match="MAX_POWER_TERMS"):
        eval_text("(1+z1)^3000*0+1", 8, ctx)


def test_scalar_power_cap_estimates_the_bits_before_forming():
    from symdiff2.expressions import _check_scalar_power

    three = EXACT.from_rational(3)  # 2 bits
    _check_scalar_power([three], MAX_SCALAR_BITS // 2)
    with pytest.raises(ValueError, match="MAX_SCALAR_BITS"):
        _check_scalar_power([three], MAX_SCALAR_BITS // 2 + 1)
    # a denominator, an imaginary part and a negative or fractional exponent count
    for x, e in ((Fraction(1, 3), MAX_SCALAR_BITS // 2 + 1), ((0, 3), -MAX_SCALAR_BITS),
                 (3, Fraction(MAX_SCALAR_BITS + 1, 2))):
        with pytest.raises(ValueError, match="MAX_SCALAR_BITS"):
            _check_scalar_power([EXACT.from_rational(*x) if isinstance(x, tuple)
                                 else EXACT.from_rational(x)], e)
    # the powers of 0 and of the units +-1, +-i never grow
    for re, im in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
        _check_scalar_power([EXACT.from_rational(re, im)], 10**12)
    assert eval_text("i^(10^9)*z1+(-1)^(10^9+1)", 4, EXACT).coeffs == {
        (0, 0): EXACT.from_rational(-1), (1, 0): EXACT.one}
    # each power is under the cap, their folded product is not
    with pytest.raises(ValueError, match="MAX_SCALAR_BITS"):
        parse("z1^(2^3000*2^3000*2^3000)")


def test_folded_powers_are_refused_before_they_are_formed(monkeypatch):
    # 2^(10^9) would be formed (10^9 bits) and only then refused by its size
    from symdiff2.expressions import ScalarLit, fold_scalar

    def formed(self, e):
        raise AssertionError("the power was formed")

    big = ScalarLit(GaussianRational(10**9), 1e9)
    node = Pow(Num(Fraction(2)), big)
    monkeypatch.setattr(GaussianRational, "__pow__", formed)
    with pytest.raises(ValueError, match="MAX_SCALAR_BITS"):
        fold_scalar(node)


def test_eval_integer_powers_of_non_units(ctx):
    s = eval_text("z1^-2", 6, ctx)
    assert s.coefficient(-2, 0) == ctx.one
    s = eval_text("(z1*(1+z2))^-1", 6, ctx)
    assert s.pole == 1


@pytest.mark.parametrize("N", [6, 12, 20])
@pytest.mark.parametrize(
    "power, quotient",
    [("(1+z1)^(-1)", "1/(1+z1)"), ("(1+z1+z2^2)^(-2)", "1/(1+z1+z2^2)^2")],
)
def test_negative_power_of_a_unit_is_the_quotient(power, quotient, N):
    # both are solved through the job's order, however high it is
    s, q = eval_text(power, N, EXACT), eval_text(quotient, N, EXACT)
    assert s.order == q.order == N
    assert s.coeffs == q.coeffs


@pytest.mark.parametrize("N", [6, 12, 20])
@pytest.mark.parametrize(
    "power, quotient, lost",
    [("z1^-1", "1/z1", None), ("z1^-2*(1+z2)", "1/z1^2*(1+z2)", None),
     ("(z1*(1+z2))^-2", "1/(z1*(1+z2))^2", 2),
     ("(z1^2*(1+z1+z2))^-3", "1/(z1^2*(1+z1+z2))^3", 6),
     ("(z1*exp(z2))^-1", "1/(z1*exp(z2))", 1),
     ("(z1*exp(z2))^-3", "z1^-3*exp(-3*z2)", 3)],
)
def test_negative_power_of_a_z1_factor_is_the_quotient(power, quotient, lost, N):
    # dividing by a power of z1 costs that many degrees of the job's order,
    # for an exact or a truncated base; a monomial stays exact
    s, q = eval_text(power, N, EXACT), eval_text(quotient, N, EXACT)
    assert s.order == q.order == (INF if lost is None else N - lost)
    assert s.coeffs == q.coeffs


def test_negative_power_of_a_dense_unit_is_formed_at_the_job_order():
    # the base's power is truncated at N, not formed exactly: its 5151 terms
    # would pass MAX_POWER_TERMS
    s = eval_text("(1+z1+z2)^-100", 8, EXACT)
    assert s.order == 8
    assert len(s.coeffs) == 45


Z1_FACTOR_POWER_CHILD = """
from symdiff2 import EXACT
from symdiff2.expressions import eval_text
s = eval_text("(z1*(1+z1+z2))^-1000", 8, EXACT)
q = eval_text("z1^-1000*(1+z1+z2)^-1000", 8, EXACT)
print(s.order, q.order, len(s.coeffs), s.coeffs == q.coeffs)
"""


def test_negative_power_of_a_z1_factor_times_a_dense_unit_is_formed_at_the_job_order():
    # one interpreter under a timeout: only the unit's power is cut at N; a
    # cut at N + |n| would form the squares up to (1+z1+z2)^512 in full
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", Z1_FACTOR_POWER_CHILD], env=env,
                         capture_output=True, text=True, timeout=30)
    assert out.stdout.split() == ["-992", "-992", "45", "True"]


def test_eval_imaginary_unit(ctx):
    s = eval_text("i*i", 4, ctx)
    assert ctx.eq(s.constant_term, ctx.from_int(-1))


def test_eval_float_literal_backend_rules():
    s = eval_text("0.5*z1", 4, APPROX)
    assert APPROX.eq(s.coefficient(1, 0), 0.5)
    with pytest.raises(BackendMismatch):
        eval_text("0.5*z1", 4, EXACT)


def test_literal_refusals_keep_their_errors():
    # a literal is read by the rule scalar parameters use; overflow stays a
    # coefficient error, not an exponent error
    with pytest.raises(ValueError, match="a coefficient is not a finite number"):
        eval_text("1e400*z1", 4, APPROX)
    with pytest.raises(BackendMismatch, match="approx \\(decimal\\) literal"):
        eval_text("1e400*z1", 4, EXACT)
    assert APPROX.eq(eval_text("1/2*z1", 4, APPROX).coefficient(1, 0), 0.5)


def test_eval_exact_constant_exp_raises():
    from symdiff2 import ExactValueError

    with pytest.raises(ExactValueError):
        eval_text("exp(1+z2)", 6, EXACT)
    with pytest.raises(ExactValueError):  # as does the log of a constant other than 1
        eval_text("log(2+z1)", 8, EXACT)
    # but collapses fine on the approx backend
    s = eval_text("exp(1+z2)", 6, APPROX)
    import math

    assert APPROX.eq(s.constant_term, complex(math.e))
    s = eval_text("log(2+z1)", 8, APPROX)
    assert APPROX.eq(s.constant_term, complex(math.log(2)))
    assert APPROX.eq(s.coefficient(1, 0), 0.5)


@pytest.mark.parametrize("text, quotient", [("exp(1/2)+z1", "exp(1/2)"),
                                            ("z1+exp(1/2)", "exp(-1/2)")])
def test_sum_of_unequal_constants_needs_their_quotient(text, quotient):
    # a sum scales its left operand by c1/c2, which is exact exactly when
    # c2/c1 is: the error names c1/c2
    with pytest.raises(ExactValueError, match=re.escape(f"{quotient} is not a Gaussian")):
        eval_text(text, 8, EXACT)
    job = {"truncation": 8, "backend": "exact", "w": {"a": text, "b": "0", "c": "1"}}
    assert run(["classify"], json.dumps(job))[0] == EXIT_INPUT
    # the approx backend collapses the constant
    s = eval_text(text, 8, APPROX)
    assert APPROX.eq(s.constant_term, complex(math.exp(0.5)))
    assert APPROX.eq(s.coefficient(1, 0), 1)


def test_sum_of_equal_constants_keeps_the_constant():
    s, c = eval_normalized(parse("exp(1/2)*z1+exp(1/2)*z2"), EXACT, 8)
    assert s.coeffs == eval_text("z1+z2", 8, EXACT).coeffs
    assert c.exp_arg == EXACT.from_rational(Fraction(1, 2)) and not c.pows


def _rand_exprs(rnd, ctx):
    # random expressions that are safely evaluable on both backends
    pool = [
        "1+z1", "1+z2", "1+z1*z2", "z1", "z2", "2", "1/3", "i",
        "exp(z1)", "exp(z2)", "exp(z1*z2)", "(1+z2)^2", "1+z1+z2",
    ]
    return rnd.choice(pool), rnd.choice(pool)


def test_eval_is_a_homomorphism(ctx):
    rnd = random.Random(81)
    for _ in range(100):
        ta, tb = _rand_exprs(rnd, ctx)
        ea, eb = parse(ta), parse(tb)
        prod = eval_ast(Bin("*", ea, eb), 8, ctx)
        assert prod.eq_through(eval_ast(ea, 8, ctx) * eval_ast(eb, 8, ctx))
        total = eval_ast(Bin("+", ea, eb), 8, ctx)
        assert total.eq_through(eval_ast(ea, 8, ctx) + eval_ast(eb, 8, ctx))


def test_eval_backends_agree():
    rnd = random.Random(82)
    for _ in range(40):
        ta, tb = _rand_exprs(rnd, EXACT)
        text = f"({ta})*({tb})"
        ex = eval_text(text, 8, EXACT)
        ap = eval_text(text, 8, APPROX)
        for key, cval in ex.coeffs.items():
            assert APPROX.eq(complex(cval), ap.coefficient(*key))


# -- shifting and normalized evaluation -------------------------------------


def test_shift_variable():
    ast = parse("z1*(1+z2)")
    shifted = shift_variable(ast, "z2", Fraction(1))
    s = eval_ast(shifted, 8, EXACT)
    expect = eval_text("z1*(2+z2)", 8, EXACT)
    assert s.eq_through(expect)


SHIFTED = "z1*(1+z2)^3/(3+z2)-z2^2+exp(z1*z2)"


@pytest.mark.parametrize(
    "amount, written, ctx",
    [
        (1, "1", EXACT),
        (Fraction(-1, 2), "(-1/2)", EXACT),
        (GaussianRational(Fraction(-1, 2), 2), "(-1/2+2*i)", EXACT),
        (0.5 - 1.5j, "(0.5-1.5*i)", APPROX),
    ],
)
def test_shift_variable_amounts(amount, written, ctx):
    shifted = shift_variable(parse(SHIFTED), "z2", amount)
    expect = eval_text(SHIFTED.replace("z2", f"(z2+{written})"), 10, ctx)
    for ast in (shifted, parse(print_expr(shifted))):
        s = eval_ast(ast, 10, ctx)
        assert s.order == expect.order
        assert s.eq_through(expect)


def test_normalized_eval_factors_constants():
    ast = shift_variable(parse("z1*exp(z2^2/2)"), "z2", Fraction(1))
    s, c = eval_normalized(ast, EXACT, 8)
    assert EXACT.eq(s.coefficient(1, 0), EXACT.one)  # unit-normalized
    assert c.exp_arg == EXACT.from_rational(Fraction(1, 2))
    ast_h = shift_variable(parse("exp(-(z2^2)/2)"), "z2", Fraction(1))
    s_h, c_h = eval_normalized(ast_h, EXACT, 8)
    combined = c.mul(EXACT, c_h)
    assert combined.collapse(EXACT) == EXACT.one


# -- differential input -------------------------------------------------------


def test_differential_input_forms():
    di = DifferentialInput.from_strings({"a": "1", "b": "z1*z2", "c": "0"})
    a, b, c = di.coefficient_triple(EXACT, 8)
    assert a.constant_term == EXACT.one and c.is_zero()
    di = DifferentialInput.from_strings(
        {"scale": "1", "u": "z1", "r": "z1*(1+z1*z2)"}
    )
    a, b, c = di.coefficient_triple(EXACT, 8)
    assert a.eq_through(eval_text("1+2*z1*z2", 8, EXACT))
    assert b.eq_through(eval_text("z1^2", 8, EXACT))
    assert c.is_zero()
    with pytest.raises(ValueError):
        DifferentialInput.from_strings({"a": "1", "b": "0"})


def test_product_form_constants_cancel_exactly():
    di = DifferentialInput.from_strings(
        {"scale": "exp(-(z2^2)/2)", "u": "z1", "r": "z1*exp(z2^2/2)"}
    )
    a, b, c = di.coefficient_triple(EXACT, 10)
    assert a.eq_through(Series2.const(EXACT, 1, order=10))
    assert b.eq_through(eval_text("z1*z2", 10, EXACT))
    assert c.is_zero()
