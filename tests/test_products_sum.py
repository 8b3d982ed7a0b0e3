"""Oracle for ``products_sum``, the one call behind every sum of products.

The reference is the chained expression written out with ``Series2``
operators, each product and each partial sum its own series: on the exact
backend ``start + (a*b).scale(w) + ...``, on the approx backend the form the
callers wrote before, ``x - (a*b).scale(|w|)`` for a negative weight.  On
seeded exact cases (infinite and truncated orders, Laurent z1 exponents,
complex coefficients, weights +-1, +-2 and -1/4, sums that cancel, empty and
one-term operands, with and without a start series) ``products_sum`` must
give the same coefficient table, key set and guaranteed order; on the approx
backend the same values bit for bit (float hex).  The callers' own formulas
(the curvature numerator, the discriminant, the chart-form residual) are
checked against the expressions they replaced the same way.
"""

import random
from fractions import Fraction

import pytest

from symdiff2 import APPROX, EXACT, INF, Series2, SymTwoDiff
from symdiff2.closedness import brioschi_numerator, first_kind_decompose
from symdiff2.differentials import discriminant
from symdiff2.errors import BackendMismatch, NotSeparable
from symdiff2.series import products_sum

WEIGHTS = (1, -1, 2, -2, Fraction(-1, 4))


def chained(terms, start=None):
    """start + sum w*a*b as separate series: exact weights scale each product,
    approx weights are written as the callers wrote them."""
    acc = start
    for w, a, b in terms:
        p = a * b
        if a.ctx.name == "exact":
            acc = p.scale(w) if acc is None else acc + p.scale(w)
            continue
        if abs(w) != 1:
            p = p.scale(abs(w))
        if acc is None:
            acc = -p if w < 0 else p
        else:
            acc = acc - p if w < 0 else acc + p
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


def approx_bits(s):
    return sorted((k, c.real.hex(), c.imag.hex()) for k, c in s.coeffs.items())


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
def test_approx_sum_of_products_is_the_chained_expression_bit_for_bit(seed):
    rnd = random.Random(100 + seed)
    for _ in range(80):
        terms, start = rand_case(rnd, APPROX)
        ref = chained(terms, start)
        got = products_sum(terms, start)
        assert got.order == ref.order
        assert approx_bits(got) == approx_bits(ref)


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


def brioschi_chained(w):
    half = w.ctx.from_rational(Fraction(1, 2))
    E, F, G = w.a, w.b.scale(half), w.c
    Eu, Ev = E.derive(0), E.derive(1)
    Fu, Fv = F.derive(0), F.derive(1)
    Gu, Gv = G.derive(0), G.derive(1)
    P, Q = Ev.scale(half), Gu.scale(half)
    A = Fu.derive(1) - Ev.derive(1).scale(half) - Gu.derive(0).scale(half)
    B, C = Eu.scale(half), Fu - P
    D, H = Fv - Q, Gv.scale(half)
    return (
        A * w.disc
        + G * (P * P - B * D)
        + F * (B * H + C * D - (P * Q).scale(2))
        + E * (Q * Q - C * H)
    )


def assert_same(got, ref):
    assert got.order == ref.order
    if got.ctx.name == "exact":
        assert got.coeffs == ref.coeffs
    else:
        assert approx_bits(got) == approx_bits(ref)


@pytest.mark.parametrize("ctx", [EXACT, APPROX], ids=["exact", "approx"])
def test_numerator_discriminant_and_residual_match_their_chained_forms(ctx):
    rnd = random.Random(7)
    for _ in range(40):
        w = SymTwoDiff(*(rand_series(rnd, ctx) for _ in range(3)))
        quarter = ctx.from_rational(Fraction(1, 4))
        assert_same(discriminant(w), w.a * w.c - (w.b * w.b).scale(quarter))
        assert_same(brioschi_numerator(w), brioschi_chained(w))
        g = rand_series(rnd, ctx, laurent=False)
        g = g + (1 - g.constant_term)
        f = g.slice_z2_zero()
        h = g.slice_z1_zero().scale(ctx.inv(g.constant_term))
        try:
            first_kind_decompose(g)
            residual = Series2.zero(ctx, INF)
        except NotSeparable as exc:
            residual = exc.residual
        ref = g - f * h
        if ref.is_zero():
            assert residual.is_zero()
        else:
            assert_same(residual, ref)
