"""Oracle for Series2.divide, the one quotient by z1^k times a unit.

``ref_series_div`` below is how every quotient was formed before
``divide``: factor z1^k out of the denominator, invert the unit (the graded
Euler recurrence for the power -1, or the inverse constant of a one-term
unit) and multiply the numerator by that inverse times z1^-k.  On seeded
random cases ``divide`` must reproduce its coefficient tables, key sets and
guaranteed orders exactly on the exact backend, and its values within
``APPROX.tol`` relative on the approx backend.
"""

import random
from fractions import Fraction

import pytest

from symdiff2 import (APPROX, DEFAULT_ORDER, EXACT, INF, DivisionByNonUnit, NotAUnit,
                      Series2)


def ref_invert_unit(u, order):
    cinv = u.ctx.inv(u.constant_term)
    if len(u.coeffs) == 1:
        return Series2(u.ctx, {(0, 0): cinv}, u.order, u.names)
    # normalised to constant term 1, solved from P_0 = 1, rescaled
    return u.scale(cinv)._graded(u._resolve_order(order), u.ctx.one, u.ctx.zero, 1).scale(cinv)


def ref_series_div(num, den, order):
    """num / den as the inverse of den's unit part times num."""
    if den.is_zero():
        raise DivisionByNonUnit("division by a series that vanishes identically")
    k = min(i for (i, _) in den.coeffs)
    shifted = den.div_monomial(k, 0) if k else den
    if not shifted.is_unit:
        raise DivisionByNonUnit("denominator is not a unit times a power of z1")
    inv = ref_invert_unit(shifted, order)
    if k:
        inv = inv * Series2.monomial(den.ctx, -k, 0, names=den.names)
    return num * inv


def rand_coeff(ctx, rnd, small):
    re = Fraction(rnd.randint(-small, small), rnd.randint(1, small))
    im = Fraction(rnd.randint(-small, small), rnd.randint(1, small)) if rnd.random() < 0.3 else 0
    return ctx.from_rational(re, im)


def rand_series(ctx, rnd, nterms, *, lo, small, order):
    terms = {}
    for _ in range(nterms):
        i = rnd.randint(lo, 5)
        j = rnd.randint(0, 5)
        terms[(i, j)] = rand_coeff(ctx, rnd, small)
    return Series2(ctx, terms, order)


def rand_case(ctx, rnd):
    """(num, den, order): a Laurent, zero or power-series numerator over
    z1^k times a unit of one or several terms, orders finite or INF."""
    small = 1 if ctx is APPROX else 3
    kind = rnd.choice(("laurent", "power", "zero"))
    num_order = rnd.choice((INF, rnd.randint(2, 10)))
    if kind == "zero":
        num = Series2.zero(ctx, num_order)
    else:
        lo = -3 if kind == "laurent" else 0
        num = rand_series(ctx, rnd, rnd.randint(1, 6), lo=lo, small=small, order=num_order)
    k = rnd.randint(0, 3)
    if rnd.random() < 0.3:
        unit = Series2.const(ctx, rand_coeff(ctx, rnd, 3) or ctx.one)
    else:
        unit = rand_series(ctx, rnd, rnd.randint(1, 5), lo=0, small=small, order=INF)
        unit = unit - unit.constant_term + rnd.choice((1, 2, -3))
    unit = unit.truncated(rnd.choice((INF, rnd.randint(2, 10))))
    den = unit * Series2.monomial(ctx, k, 0)
    order = rnd.choice((None, rnd.randint(2, 12)))
    return num, den, order


@pytest.mark.parametrize("seed", range(40))
def test_divide_matches_the_inverse_times_product_exactly(seed):
    rnd = random.Random(seed)
    for _ in range(20):
        num, den, order = rand_case(EXACT, rnd)
        got, want = num.divide(den, order), ref_series_div(num, den, order)
        assert got.coeffs == want.coeffs, (num, den, order)
        assert set(got.coeffs) == set(want.coeffs)
        assert got.order == want.order, (num, den, order)


@pytest.mark.parametrize("seed", range(20))
def test_divide_matches_the_inverse_times_product_on_approx(seed):
    rnd = random.Random(1000 + seed)
    for _ in range(20):
        num, den, order = rand_case(APPROX, rnd)
        got, want = num.divide(den, order), ref_series_div(num, den, order)
        assert got.order == want.order, (num, den, order)
        for key in set(got.coeffs) | set(want.coeffs):
            g, w = got.coefficient(*key), want.coefficient(*key)
            assert abs(g - w) <= APPROX.tol * max(1.0, abs(w)), (key, g, w)


def test_the_quotient_times_the_denominator_is_the_numerator():
    rnd = random.Random(7)
    for _ in range(30):
        num, den, order = rand_case(EXACT, rnd)
        q = num.divide(den, order)
        assert (q * den).eq_through(num)


def test_an_inf_order_is_no_order(ctx):
    rnd = random.Random(11)
    for _ in range(20):
        num, den, _ = rand_case(ctx, rnd)
        a, b = num.divide(den, INF), num.divide(den)
        assert a.coeffs == b.coeffs and a.order == b.order
    u = Series2.const(ctx, 1) + Series2.variable(ctx, 1)
    assert u.invert_unit(INF).order == u.invert_unit().order == DEFAULT_ORDER


def test_no_order_reads_an_exact_series_through_its_degree(ctx):
    # 1 + z1^20 is known exactly through degree 20, past DEFAULT_ORDER
    u = Series2.const(ctx, 1) + Series2.monomial(ctx, 20, 0)
    assert u._resolve_order(None) == 20
    for got in (u.invert_unit(), (u - 1).exp(), u.log(), u.sqrt()):
        assert got.order == 20
    assert ctx.eq(u.invert_unit().coefficient(20, 0), ctx.from_int(-1))


def test_one_term_unit_inverse_keeps_the_units_order(ctx):
    for order in (INF, 5):
        c = Series2.const(ctx, 3, order)
        for asked in (None, 2, 9):
            inv = c.invert_unit(asked)
            assert inv.order == order
            assert ctx.eq(inv.constant_term, ctx.inv(ctx.from_int(3)))
    q = Series2.const(ctx, 1).divide(Series2.monomial(ctx, 2, 0, 4))
    assert q.order is INF and q.coeffs.keys() == {(-2, 0)}


def test_non_unit_denominators_are_refused(ctx):
    z1, z2 = Series2.variable(ctx, 0), Series2.variable(ctx, 1)
    one = Series2.const(ctx, 1)
    with pytest.raises(DivisionByNonUnit, match="vanishes identically"):
        one.divide(Series2.zero(ctx, 8))
    for den in (z2, z1 * z2 + z2, z1 * z1 * z2):
        with pytest.raises(DivisionByNonUnit, match="not a unit times a power of z1"):
            one.divide(den)
    with pytest.raises(NotAUnit):
        (z1 + z2).invert_unit()
