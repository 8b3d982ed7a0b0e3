"""Oracle for the graded recurrence behind invert_unit, exp, log, pow_scalar
and sqrt.

The reference functions below are the textbook loops (Neumann, Taylor and
Mercator series, powers through log and exp) built from ring operations
only.  On the exact backend the recurrence must reproduce their
coefficients and guaranteed orders exactly; on the approx backend it must
match the exact coefficients to 1e-12 relative.
"""

from fractions import Fraction

import pytest

from symdiff2 import APPROX, DEFAULT_ORDER, EXACT, INF, Series2


def _resolve(s, order):
    if order is None:
        return s.order if s.order is not INF else DEFAULT_ORDER
    return order if s.order is INF else min(order, s.order)


def ref_invert_unit(s, order=None):
    if len(s.coeffs) == 1:
        return Series2(s.ctx, {(0, 0): s.ctx.inv(s.constant_term)}, s.order, s.names)
    order = _resolve(s, order)
    cinv = s.ctx.inv(s.constant_term)
    one = Series2.const(s.ctx, s.ctx.one, order, s.names)
    w = (one - s.scale(cinv)).truncated(order)
    acc = term = one
    for _ in range(order):
        term = term * w
        acc = acc + term
    return acc.scale(cinv)


def ref_exp(s, order=None):
    order = _resolve(s, order)
    c = s.constant_term
    lead = s.ctx.exp(c) if not s.ctx.is_zero(c) else s.ctx.one
    t = (s - c).truncated(order)
    acc = term = Series2.const(s.ctx, s.ctx.one, order, s.names)
    for k in range(1, order + 1):
        term = (term * t).scale(s.ctx.from_rational(Fraction(1, k)))
        acc = acc + term
    return acc.scale(lead)


def ref_log(s, order=None):
    order = _resolve(s, order)
    c = s.constant_term
    lead = s.ctx.zero if s.ctx.eq(c, s.ctx.one) else s.ctx.log(c)
    w = (s.scale(s.ctx.inv(c)) - s.ctx.one).truncated(order)
    acc = Series2.zero(s.ctx, order, s.names)
    term = Series2.const(s.ctx, s.ctx.one, order, s.names)
    for k in range(1, order + 1):
        term = term * w
        acc = acc + term.scale(s.ctx.from_rational(Fraction((-1) ** (k + 1), k)))
    return acc + lead


def ref_pow(s, e, order=None, lead=None):
    order = _resolve(s, order)
    c = s.constant_term
    lead = s.ctx.pow(c, e) if lead is None else lead
    u = s.scale(s.ctx.inv(c))
    return ref_exp(ref_log(u, order).scale(s.ctx.coerce(e)), order).scale(lead)


def ref_sqrt(s, order=None):
    return ref_pow(s, Fraction(1, 2), order, lead=s.ctx.sqrt(s.constant_term))


def poly(ctx, terms, order=INF):
    return Series2.from_terms(
        ctx, {k: ctx.from_rational(*v) if isinstance(v, tuple) else v
              for k, v in terms.items()}, order)


# (name, terms as {(i, j): re or (re, im)}); every constant term is a unit
UNITS = [
    ("one-lead", {(0, 0): 1, (1, 0): Fraction(1, 2), (0, 1): -1, (1, 1): Fraction(2, 3),
                  (0, 3): Fraction(1, 5)}),
    ("rational-lead", {(0, 0): 4, (1, 0): 1, (0, 2): Fraction(-1, 3), (2, 1): 2}),
    ("complex-coeffs", {(0, 0): 1, (1, 0): (0, 1), (0, 1): (Fraction(1, 2), -1),
                        (1, 2): 3}),
    ("complex-lead", {(0, 0): (3, 4), (1, 0): (0, 1), (0, 1): Fraction(1, 2),
                      (2, 0): (Fraction(1, 3), -1)}),
    ("gapped", {(0, 0): Fraction(9, 4), (0, 2): 1, (3, 1): (0, Fraction(-1, 2))}),
]


def exact_unit(name):
    return poly(EXACT, dict(UNITS)[name])


def exp_arg(name):
    """The unit minus its constant term: a valid exact exp argument."""
    s = exact_unit(name)
    return s - s.constant_term


# (op, new, reference, inputs): log and the powers with an exponent outside
# Z[1/2] need a constant term of 1 on the exact backend
OPS = [
    ("invert_unit", lambda s, o: s.invert_unit(o), ref_invert_unit, "one-lead rational-lead complex-lead gapped"),
    ("exp", lambda s, o: s.exp(o), ref_exp, "one-lead rational-lead complex-lead gapped"),
    ("log", lambda s, o: s.log(o), ref_log, "one-lead complex-coeffs"),
    ("sqrt", lambda s, o: s.sqrt(o), ref_sqrt, "one-lead rational-lead complex-lead gapped"),
    ("pow(1/3)", lambda s, o: s.pow_scalar(Fraction(1, 3), o),
     lambda s, o: ref_pow(s, Fraction(1, 3), o), "complex-coeffs"),
    ("pow(-5/2)", lambda s, o: s.pow_scalar(Fraction(-5, 2), o),
     lambda s, o: ref_pow(s, Fraction(-5, 2), o), "complex-lead gapped"),
    ("pow(1/2+i)", lambda s, o: s.pow_scalar(EXACT.from_rational(Fraction(1, 2), 1), o),
     lambda s, o: ref_pow(s, EXACT.from_rational(Fraction(1, 2), 1), o),
     "one-lead complex-coeffs"),
]

CASES = [(op, new, ref, name) for op, new, ref, names in OPS for name in names.split()]


def operand(op, name, ctx=EXACT):
    s = exp_arg(name) if op == "exp" else exact_unit(name)
    return s if ctx is EXACT else s.as_backend(ctx)


@pytest.mark.parametrize("op,new,ref,name", CASES, ids=[f"{c[0]}-{c[3]}" for c in CASES])
def test_matches_reference_loops(op, new, ref, name):
    s = operand(op, name)
    got, want = new(s, 8), ref(s, 8)
    assert got.coeffs == want.coeffs
    assert got.order == want.order == 8
    # finite input: the result is capped at the input's own order
    t = s.truncated(6)
    got, want = new(t, None), ref(t, None)
    assert got.coeffs == want.coeffs
    assert got.order == want.order == 6
    assert new(t, 12).order == 6


@pytest.mark.parametrize("op,new,ref,name", CASES, ids=[f"{c[0]}-{c[3]}" for c in CASES])
def test_order_contract_and_refinement(op, new, ref, name):
    s = operand(op, name)
    # polynomial input with no order requested: DEFAULT_ORDER
    assert new(s, None).order == DEFAULT_ORDER
    # raising the truncation never changes a coefficient already guaranteed
    for N in (6, 11):
        low, high = new(s, N), new(s, N + 4)
        assert low.order == N and high.order == N + 4
        assert low.eq_through(high)
        lo_in, hi_in = new(s.truncated(N), None), new(s.truncated(N + 4), None)
        assert lo_in.order == N and lo_in.eq_through(hi_in)


def test_single_coefficient_inverse_keeps_input_order():
    s = Series2.const(EXACT, EXACT.from_rational(3), order=5)
    inv = s.invert_unit(9)
    assert inv.order == 5 and inv.coeffs == {(0, 0): EXACT.from_rational(Fraction(1, 3))}
    assert Series2.const(EXACT, 2).invert_unit().order == INF


@pytest.mark.parametrize("op,new,ref,name", CASES, ids=[f"{c[0]}-{c[3]}" for c in CASES])
def test_approx_matches_exact(op, new, ref, name):
    exact = new(operand(op, name), 9)
    approx = new(operand(op, name, APPROX), 9)
    assert approx.order == exact.order
    assert set(approx.coeffs) <= set(exact.coeffs)
    for k, c in exact.coeffs.items():
        want = complex(c)
        if abs(want) <= APPROX.tol:
            # the approx backend stores no coefficient at or below its zero
            # tolerance (ROADMAP item 5); the complex-lead inverses reach it
            continue
        assert abs(approx.coeffs[k] - want) <= 1e-12 * abs(want), (k, approx.coeffs[k], want)


@pytest.mark.parametrize("op,new,ref", [("exp", lambda s, o: s.exp(o), ref_exp),
                                        ("log", lambda s, o: s.log(o), ref_log)])
@pytest.mark.parametrize("name", ["rational-lead", "complex-lead"])
def test_approx_solve_starts_from_the_constant_term(op, new, ref, name):
    # exp of a nonzero constant term and log of one other than 1 exist only on
    # the approx backend: the solve's start and lead are that constant term
    s = exact_unit(name).as_backend(APPROX)
    got, want = new(s, 9), ref(s, 9)
    assert got.order == want.order == 9
    assert set(got.coeffs) == set(want.coeffs)
    for k, c in want.coeffs.items():
        assert abs(got.coeffs[k] - c) <= 1e-12 * abs(c), (k, got.coeffs[k], c)
