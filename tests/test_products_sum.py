"""Oracle for ``products_sum``, the one call behind every sum of products.

The reference is the chained expression written out with ``Series2``
operators, each product and each partial sum its own series:
``start + (a*b).scale(w) + ...``.  On seeded exact cases (infinite and
truncated orders, Laurent z1 exponents, complex coefficients, weights +-1, +-2
and -1/4, sums that cancel, empty and one-term operands, with and without a
start series) ``products_sum`` must give the same coefficient table, key set
and guaranteed order.  On the approx backend the same rational inputs, rounded
to floats, must give the exact result to within rounding: the same order, the
keys of the exact values above the tolerance, and each coefficient within a
bound scaled to the absolute values of its summands.  The callers' own
formulas (the curvature numerator, the discriminant, the chart-form residual)
are checked against the expressions they replaced the same way.
"""

import random
from fractions import Fraction

import pytest

from symdiff2 import APPROX, EXACT, INF, Series2, SymTwoDiff
from symdiff2.closedness import brioschi_numerator, first_kind_decompose
from symdiff2.differentials import discriminant
from symdiff2.errors import BackendMismatch, NotSeparable
from symdiff2.series import products_sum
from conftest import absolute, assert_within_rounding

WEIGHTS = (1, -1, 2, -2, Fraction(-1, 4))


def chained(terms, start=None):
    """start + sum w*a*b as separate series, each product scaled by w."""
    acc = start
    for w, a, b in terms:
        p = (a * b).scale(w)
        acc = p if acc is None else acc + p
    return acc


def rand_part(rnd):
    return Fraction(rnd.randint(-20, 20), rnd.choice((1, 2, 3, 4, 6, 9, 35)))


def rand_series(rnd, ctx, laurent=True):
    """A random series: empty, one-term or up to 7 terms; maybe Laurent in
    z1, complex and truncated."""
    nterms = rnd.choice((0, 1, 1, 2, 4, 7))
    lo = -2 if laurent and rnd.random() < 0.3 else 0
    complex_ok = rnd.random() < 0.5
    terms = {}
    while len(terms) < nterms:
        re = rand_part(rnd)
        im = rand_part(rnd) if complex_ok and rnd.random() < 0.5 else 0
        if re or im:
            terms[(rnd.randint(lo, 5), rnd.randint(0, 5))] = (re, im)
    order = rnd.randint(lo + 2, 9) if rnd.random() < 0.5 else INF
    return Series2(ctx, {k: ctx.from_rational(*v) for k, v in terms.items()}, order)


def rand_case(rnd, ctx):
    """(terms, start) with 0-4 terms, sometimes built to cancel."""
    pool = [rand_series(rnd, ctx) for _ in range(4)]
    terms = [(rnd.choice(WEIGHTS), rnd.choice(pool), rnd.choice(pool))
             for _ in range(rnd.randint(0, 4))]
    start = rand_series(rnd, ctx) if rnd.random() < 0.5 else None
    shape = rnd.random()
    if terms and shape < 0.15:  # every product once with +w and once with -w
        terms += [(-w, b, a) for w, a, b in terms]
    elif terms and shape < 0.3:  # a residual g - f*h of g = f*h
        w, a, b = terms[0]
        terms, start = [(-w, a, b)], (a * b).scale(w)
    if start is None and not terms:
        start = pool[0]
    return terms, start


def as_approx(terms, start):
    """The same case on the approx backend, each operand converted once."""
    seen = {}

    def conv(s):
        return seen.setdefault(id(s), s.as_backend(APPROX))

    return [(w, conv(a), conv(b)) for w, a, b in terms], None if start is None else conv(start)


def majorant(terms, start):
    """(start's and every product's absolute values summed by key, the most
    summands at any key), by the pair loop."""
    mag = {k: abs(complex(c)) for k, c in start.coeffs.items()} if start else {}
    count = dict.fromkeys(mag, 1)
    for w, a, b in terms:
        for (i1, j1), c1 in a.coeffs.items():
            for (i2, j2), c2 in b.coeffs.items():
                k = (i1 + i2, j1 + j2)
                mag[k] = mag.get(k, 0.0) + abs(w) * abs(complex(c1)) * abs(complex(c2))
                count[k] = count.get(k, 0) + 1
    return Series2(APPROX, mag, INF), max(count.values(), default=0)


@pytest.mark.parametrize("seed", range(6))
def test_exact_sum_of_products_matches_the_chained_expression(seed):
    rnd = random.Random(seed)
    for _ in range(80):
        terms, start = rand_case(rnd, EXACT)
        ref = chained(terms, start)
        got = products_sum(terms, start)
        assert got.order == ref.order
        assert set(got.coeffs) == set(ref.coeffs)
        assert got.coeffs == ref.coeffs
        assert got.names == ref.names


@pytest.mark.parametrize("seed", range(6))
def test_approx_sum_of_products_is_the_exact_sum_within_rounding(seed):
    rnd = random.Random(100 + seed)
    for _ in range(80):
        terms, start = rand_case(rnd, EXACT)
        got = products_sum(*as_approx(terms, start))
        assert_within_rounding(got, chained(terms, start), *majorant(terms, start))


def test_a_sum_that_cancels_is_zero_through_the_chained_order():
    f = Series2.from_terms(EXACT, {(0, 0): 3, (2, 0): Fraction(1, 7)}, 9)
    h = Series2.from_terms(EXACT, {(0, 0): 1, (0, 3): Fraction(-2, 5)}, 6)
    got = products_sum([(-1, f, h)], f * h)
    assert got.is_zero() and got.coeffs == {}
    assert got.order == (f * h).order == 6
    assert products_sum([(2, f, h), (-2, h, f)]).is_zero()


def test_operands_must_share_backend_and_names():
    a = Series2.variable(EXACT, 0)
    with pytest.raises(BackendMismatch):
        products_sum([(1, a, a), (1, a, Series2.variable(APPROX, 0))])
    with pytest.raises(BackendMismatch):
        products_sum([(1, a, a.with_names(("s", "z2")))])


# -- the callers' formulas, against the expressions they replaced ---------


def brioschi_chained(w, sub=Series2.__sub__, d=Series2.derive):
    """The curvature numerator as the chained expression it replaced; with
    ``sub`` an addition and ``d`` a derivative's absolute values, on absolute
    coefficients, its majorant."""
    half = w.ctx.from_rational(Fraction(1, 2))
    E, F, G = w.a, w.b.scale(half), w.c
    Eu, Ev = d(E, 0), d(E, 1)
    Fu, Fv = d(F, 0), d(F, 1)
    Gu, Gv = d(G, 0), d(G, 1)
    P, Q = Ev.scale(half), Gu.scale(half)
    A = sub(sub(d(Fu, 1), d(Ev, 1).scale(half)), d(Gu, 0).scale(half))
    B, C = Eu.scale(half), sub(Fu, P)
    D, H = sub(Fv, Q), Gv.scale(half)
    return (
        A * sub(w.a * w.c, (w.b * w.b).scale(half * half))
        + G * sub(P * P, B * D)
        + F * sub(B * H + C * D, (P * Q).scale(2))
        + E * sub(Q * Q, C * H)
    )


def rand_formula_inputs(ctx, rnd):
    """A differential and a unit g with f = g(z1, 0), h = g(0, z2) / g(0, 0)."""
    w = SymTwoDiff(*(rand_series(rnd, ctx) for _ in range(3)))
    g = rand_series(rnd, ctx, laurent=False)
    g = g + (1 - g.constant_term)
    return w, g, g.slice_z2_zero(), g.slice_z1_zero().scale(ctx.inv(g.constant_term))


def decompose_residual(g):
    try:
        first_kind_decompose(g)
        return Series2.zero(g.ctx, INF)
    except NotSeparable as exc:
        return exc.residual


# the approx backend is held to the exact values instead, within rounding (below)
@pytest.mark.parametrize("ctx", [EXACT], ids=["exact"])
def test_numerator_discriminant_and_residual_match_their_chained_forms(ctx):
    rnd = random.Random(7)
    for _ in range(40):
        w, g, f, h = rand_formula_inputs(ctx, rnd)
        quarter = ctx.from_rational(Fraction(1, 4))
        for got, ref in ((discriminant(w), w.a * w.c - (w.b * w.b).scale(quarter)),
                         (brioschi_numerator(w), brioschi_chained(w))):
            assert got.order == ref.order
            assert got.coeffs == ref.coeffs
        residual, ref = decompose_residual(g), g - f * h
        if ref.is_zero():
            assert residual.is_zero()
        else:
            assert residual.order == ref.order
            assert residual.coeffs == ref.coeffs


def absolute_derive(s, axis):
    return absolute(s.derive(axis))


def test_approx_numerator_discriminant_and_residual_are_exact_within_rounding():
    # a rand_series has at most 7 terms, so a coefficient of the discriminant
    # or the residual sums fewer than 2 * 7**2 products, and one of the
    # curvature numerator, a cubic of 17 monomial types, fewer than 17 * 7**3
    rnd = random.Random(7)
    for _ in range(40):
        w, g, f, h = rand_formula_inputs(EXACT, rnd)
        wa = SymTwoDiff(w.a.as_backend(APPROX), w.b.as_backend(APPROX), w.c.as_backend(APPROX))
        wm = SymTwoDiff(absolute(w.a), absolute(w.b), absolute(w.c))
        assert_within_rounding(discriminant(wa), discriminant(w),
                               wm.a * wm.c + (wm.b * wm.b).scale(0.25), 2 * 7 ** 2)
        assert_within_rounding(brioschi_numerator(wa), brioschi_chained(w),
                               brioschi_chained(wm, Series2.__add__, absolute_derive),
                               17 * 7 ** 3)
        residual = decompose_residual(g.as_backend(APPROX))
        ref = g - f * h
        if ref.is_zero():
            assert residual.is_zero()
        else:
            assert_within_rounding(residual, ref, absolute(g) + absolute(f) * absolute(h),
                                   2 * 7 ** 2)
