import random
from fractions import Fraction

import pytest

from symdiff2 import (
    EXACT,
    APPROX,
    INF,
    CoordMap,
    NotAUnit,
    Series2,
    ValuationError,
    ZeroSeries,
    reverse_map,
)
from symdiff2.expressions import eval_text
from conftest import assert_refines, axis_series, rand_coordmap, rand_fraction, rand_poly2, rand_unit2, tame


def gens(ctx):
    return (
        Series2.variable(ctx, 0),
        Series2.variable(ctx, 1),
        Series2.const(ctx, 1),
    )


# -- multiplication ---------------------------------------------------------


def test_mul_polynomial_identity(ctx):
    z1, z2, one = gens(ctx)
    p = (one + z1) * (one - z1)
    assert p.eq_through(one - z1 * z1)


def test_mul_laurent_cancellation(ctx):
    z1, z2, one = gens(ctx)
    zinv = Series2.monomial(ctx, -1, 0)
    assert (zinv * z1).eq_through(one)


def test_mul_geometric_inverse(ctx):
    z1, z2, one = gens(ctx)
    u = one + z1 * z2
    inv = u.invert_unit(10)
    assert (u * inv).eq_through(Series2.const(ctx, 1, order=10))


def test_mul_backend_mismatch():
    from symdiff2 import BackendMismatch

    a = Series2.variable(EXACT, 0)
    b = Series2.variable(APPROX, 0)
    with pytest.raises(BackendMismatch):
        a * b


# -- invert_unit -------------------------------------------------------------


def test_invert_unit_examples(ctx):
    z1, z2, one = gens(ctx)
    inv = (one + z2).invert_unit(6)
    expect = Series2.from_terms(
        ctx, {(0, j): (-1) ** j for j in range(7)}, order=6
    )
    assert inv.eq_through(expect)
    assert Series2.const(ctx, 2).invert_unit(4).eq_through(
        Series2.const(ctx, Fraction(1, 2), order=4)
    )
    with pytest.raises(NotAUnit):
        z1.invert_unit(4)


# -- derivatives --------------------------------------------------------------


def test_derive_examples(ctx):
    z1, z2, one = gens(ctx)
    s = z1 * z1 * z2
    assert s.derive(0).eq_through(z1.scale(2) * z2)
    assert Series2.const(ctx, 5).derive(1).is_zero()
    zinv = Series2.monomial(ctx, -1, 0)
    assert zinv.derive(0).eq_through(Series2.monomial(ctx, -2, 0, coeff=-1))


def test_derive_drops_guarantee(exact_ctx):
    s = rand_poly2(exact_ctx, random.Random(0)).truncated(9)
    assert s.derive(0).order == 8


# -- transcendental ------------------------------------------------------------


def test_log_mercator(ctx):
    z1, z2, one = gens(ctx)
    L = (one + z1).log(6)
    expect = Series2.from_terms(
        ctx, {(k, 0): Fraction((-1) ** (k + 1), k) for k in range(1, 7)}, order=6
    )
    assert L.eq_through(expect)


def test_pow_binomial(ctx):
    z1, z2, one = gens(ctx)
    s = (one + z2).pow_scalar(Fraction(1, 2), 4)
    expect = Series2.from_terms(
        ctx,
        {(0, 0): 1, (0, 1): Fraction(1, 2), (0, 2): Fraction(-1, 8),
         (0, 3): Fraction(1, 16), (0, 4): Fraction(-5, 128)},
        order=4,
    )
    assert s.eq_through(expect)


def test_exp_log_roundtrip_example(ctx):
    z1, z2, one = gens(ctx)
    s = one + z1 + z2
    assert s.log(8).exp(8).eq_through(s.truncated(8))


def test_transcendental_dispatch(ctx):
    z1, z2, one = gens(ctx)
    got = (one + z2).pow_scalar(Fraction(1, 2), 6)
    assert got.eq_through((one + z2).sqrt(6))


def test_transcendental_rejects_non_units(ctx):
    z1, z2, one = gens(ctx)
    with pytest.raises(NotAUnit):
        z1.log(6)
    with pytest.raises(NotAUnit):
        z1.sqrt(6)
    with pytest.raises(NotAUnit):
        z1.pow_scalar(Fraction(3, 2), 6)
    with pytest.raises(ValuationError):
        Series2.monomial(ctx, -1, 0).exp(6)


@pytest.mark.parametrize("text", ["z1", "1+z1^-1"], ids=["zero", "pole"])
def test_log_of_a_non_unit_is_refused_with_the_expression_message(ctx, text):
    # the one unit test of a log lives in Series2.log, so a Series2 and a job
    # text give the same message
    with pytest.raises(NotAUnit, match="^log of a non-unit$"):
        eval_text(text, 8, ctx).log(8)
    with pytest.raises(NotAUnit, match="^log of a non-unit$"):
        eval_text(f"log({text})", 8, ctx)


def test_exp_log_random_roundtrips(ctx):
    rnd = random.Random(21)
    for _ in range(20):
        u = rand_unit2(ctx, rnd, small=tame(ctx)).truncated(8)
        assert u.log(8).exp(8).eq_through(u)
        s = rand_poly2(ctx, rnd)
        s = (s - s.constant_term).truncated(8)
        assert s.exp(8).log(8).eq_through(s)


def test_sqrt_squares(ctx):
    rnd = random.Random(22)
    for _ in range(20):
        u = rand_unit2(ctx, rnd, small=tame(ctx)).truncated(8)
        r = u.sqrt(8)
        assert (r * r).eq_through(u)


def test_pow_addition_law(ctx):
    rnd = random.Random(23)
    for _ in range(15):
        u = rand_unit2(ctx, rnd, small=tame(ctx)).truncated(8)
        e1, e2 = rand_fraction(rnd, 2), rand_fraction(rnd, 2)
        lhs = u.pow_scalar(e1, 8) * u.pow_scalar(e2, 8)
        rhs = u.pow_scalar(e1 + e2, 8)
        assert lhs.eq_through(rhs)


def test_integer_pow_matches_repeated_multiplication(ctx):
    rnd = random.Random(24)
    u = rand_unit2(ctx, rnd, small=tame(ctx)).truncated(8)
    assert u.pow_scalar(3, 8).eq_through(u * u * u)
    assert u.pow_scalar(-2, 8).eq_through(u.invert_unit(8) * u.invert_unit(8))


def test_negative_integer_pow_is_the_quotient_of_the_expression(ctx):
    # a base z1^k * unit is divided by, as the expression z1^-1 is read
    z1, z2, one = gens(ctx)
    for got, text in ((z1 ** -1, "z1^-1"),
                      ((z1 * (one + z2)).pow_scalar(-2, 6), "(z1*(1+z2))^-2")):
        want = eval_text(text, 6, ctx)
        assert got.pole == want.pole > 0
        assert got.eq_through(want), text


# -- ring axioms ----------------------------------------------------------------


def test_ring_axioms_random_triples(ctx):
    rnd = random.Random(31)
    for _ in range(200):
        a = rand_poly2(ctx, rnd, deg=3, nterms=3).truncated(6)
        b = rand_poly2(ctx, rnd, deg=3, nterms=3).truncated(6)
        c = rand_poly2(ctx, rnd, deg=3, nterms=3).truncated(6)
        assert ((a * b) * c).eq_through(a * (b * c))
        assert (a * b).eq_through(b * a)
        assert (a * (b + c)).eq_through(a * b + a * c)
        assert (a + b).eq_through(b + a)
        assert ((a + b) + c).eq_through(a + (b + c))


def test_leibniz_and_mixed_partials(ctx):
    rnd = random.Random(32)
    for _ in range(25):
        a = rand_poly2(ctx, rnd).truncated(8)
        b = rand_poly2(ctx, rnd).truncated(8)
        lhs = (a * b).derive(0)
        rhs = a.derive(0) * b + a * b.derive(0)
        assert lhs.eq_through(rhs)
        assert a.derive(0).derive(1).eq_through(a.derive(1).derive(0))


# -- substitution -----------------------------------------------------------------


def test_substitute_polynomial(ctx):
    z1, z2, one = gens(ctx)
    f = axis_series(ctx, {2: 1})
    got = f.substitute(z1 + z2, Series2.zero(ctx))
    assert got.eq_through(z1 * z1 + (z1 * z2).scale(2) + z2 * z2)


def test_substitute_laurent_geometric(ctx):
    z1, z2, one = gens(ctx)
    p = z1 * (one + z1 * z2)
    f = axis_series(ctx, {-1: 1})
    got = f.substitute(p, Series2.zero(ctx), 8)
    expect = Series2.from_terms(
        ctx, {(k - 1, k): (-1) ** k for k in range(5)}, order=7
    )
    assert got.eq_through(expect)


def test_substitute_log_slice_expansion(exact_ctx):
    # log of exp(z2/(1+z1*z2)) recovers z2 - z1 z2^2 + z1^2 z2^3 - ...
    ctx = exact_ctx
    z1, z2, one = gens(ctx)
    inner = z2 * (one + z1 * z2).invert_unit(9)
    v = inner.exp(9)
    L = v.log(9)
    expect = Series2.from_terms(
        ctx, {(k, k + 1): (-1) ** k for k in range(5)}, order=9
    )
    assert L.eq_through(expect)
    assert L.eq_through(inner)


def test_laurent_one_axis_substitution_refines(exact_ctx):
    # the g(p) path: a Laurent series in one variable at p = z1 * (unit), inner2 = 0
    ctx = exact_ctx
    z1, z2, one = gens(ctx)
    results = []
    for N in (10, 14):
        g = (z1 - z1 * z1).exp(N).div_monomial(2, 0).with_names(("p", "z2"))
        assert g.pole == 2 and all(j == 0 for _, j in g.coeffs)
        p = z1 * (z1 * z2).exp(N)
        results.append(g.substitute(p, Series2.zero(ctx), N))
    assert_refines(*results)


def test_axis_slices_of_truncated_exp_refine(exact_ctx):
    z1, z2, one = gens(exact_ctx)
    lows, highs = [], []
    for N, out in ((10, lows), (14, highs)):
        e = (z1 - z2.scale(2) + z1 * z2).exp(N)
        out.extend((e.slice_z2_zero(), e.slice_z1_zero()))
        assert all(s.order == N for s in out)
    assert all(j == 0 for _, j in lows[0].coeffs) and all(i == 0 for i, _ in lows[1].coeffs)
    for low, high in zip(lows, highs):
        assert_refines(low, high)


def test_substitute_constant_shift_polynomial_only(ctx):
    # inner series must fix the origin; recentering happens on the expressions
    z1, z2, one = gens(ctx)
    poly = z1 * z2 + z2 * z2
    for outer in (poly, poly.truncated(6)):
        with pytest.raises(ValuationError):
            outer.substitute(z1, z2 + one)


def test_substitute_valuation_guard(ctx):
    laurent = Series2.monomial(ctx, -1, 0)
    z1, z2, one = gens(ctx)
    with pytest.raises(ValuationError):
        laurent.substitute(z2, z1, 6)  # inner1 not divisible by z1


def test_coordmap_substitution(ctx):
    z1, z2, one = gens(ctx)
    phi = CoordMap((z1 + z2).truncated(8), z2.truncated(8))
    s = z1 * z1
    assert s.substitute(phi.comp1, phi.comp2).eq_through((z1 + z2) * (z1 + z2))


# -- reversion ---------------------------------------------------------------------


def test_reverse_map_identity(ctx):
    ident = CoordMap.identity(ctx, 8)
    rev = reverse_map(ident)
    assert rev.comp1.eq_through(Series2.variable(ctx, 0, order=8))
    assert rev.comp2.eq_through(Series2.variable(ctx, 1, order=8))


def test_reverse_map_linear(ctx):
    z1, z2, one = gens(ctx)
    phi = CoordMap(z1.scale(2).truncated(8), z2.scale(3).truncated(8))
    rev = reverse_map(phi)
    assert rev.comp1.eq_through(z1.scale(Fraction(1, 2)).truncated(8))
    assert rev.comp2.eq_through(z2.scale(Fraction(1, 3)).truncated(8))


def test_reverse_map_catalan_signs(exact_ctx):
    ctx = exact_ctx
    z1, z2, one = gens(ctx)
    phi = CoordMap((z1 + z1 * z1).truncated(6), z2.truncated(6))
    rev = reverse_map(phi)
    expect = Series2.from_terms(
        ctx, {(1, 0): 1, (2, 0): -1, (3, 0): 2, (4, 0): -5, (5, 0): 14, (6, 0): -42},
        order=6,
    )
    assert rev.comp1.eq_through(expect)
    comp = phi.compose(rev)
    assert comp.comp1.eq_through(Series2.variable(ctx, 0, order=6))


def test_reverse_map_random_roundtrips(ctx):
    rnd = random.Random(41)
    for _ in range(50):
        phi = rand_coordmap(ctx, rnd, order=8)
        psi = reverse_map(phi)
        comp = phi.compose(psi)
        assert comp.comp1.eq_through(Series2.variable(ctx, 0, order=8))
        assert comp.comp2.eq_through(Series2.variable(ctx, 1, order=8))


def test_reverse_map_without_an_order_keeps_the_least_finite_order(exact_ctx):
    # the exact z2 does not lower the claim to DEFAULT_ORDER
    from symdiff2.expressions import eval_text

    z1, z2, one = gens(exact_ctx)
    phi = CoordMap(eval_text("z1+z1^2*exp(z2)", 20, exact_ctx), z2)
    assert phi.comp1.order == 22
    psi = reverse_map(phi)
    assert psi.comp1.order == psi.comp2.order == 22
    assert phi.compose(psi).comp1.eq_through(Series2.variable(exact_ctx, 0, order=22))


def test_reverse_map_singular(ctx):
    from symdiff2 import SingularJacobian

    z1, z2, one = gens(ctx)
    with pytest.raises(SingularJacobian):
        reverse_map(CoordMap(z1.truncated(6), (z1 + z1 * z2).truncated(6)))


# -- order along an axis --------------------------------------------------------------


def test_ord_along_axis_examples(ctx):
    z1, z2, one = gens(ctx)
    s = z1 * z1 * z2 + z1 * z1 * z1
    assert s.ord_along_axis(0) == 2
    t = Series2.monomial(ctx, -1, 0) + z2
    assert t.ord_along_axis(0) == -1
    r = z1 * (one + z1 * z2)
    assert r.derive(1).ord_along_axis(0) == 2


def test_ord_along_axis_zero_series(ctx):
    with pytest.raises(ZeroSeries):
        Series2.zero(ctx, order=8).ord_along_axis(0)


def test_axes_are_only_0_and_1(exact_ctx):
    s = rand_poly2(exact_ctx, random.Random(3))
    for axis in ("z1", "z2", 2, -1, True, 0.0, None):
        with pytest.raises(ValueError):
            s.derive(axis)
        with pytest.raises(ValueError):
            s.ord_along_axis(axis)


# -- guarantee bookkeeping ---------------------------------------------------------------


def test_guarantee_orders():
    ctx = EXACT
    z1 = Series2.variable(ctx, 0)
    a = rand_poly2(ctx, random.Random(5)).truncated(10)
    b = rand_poly2(ctx, random.Random(6)).truncated(12)
    assert (a * b).order <= 10 + b.valuation or (a * b).order <= 12 + a.valuation
    assert (a + b).order == 10
    # dividing by z1^k lowers the guarantee by k
    s = (Series2.const(ctx, 1).truncated(10) + z1).div_monomial(2, 0)
    assert s.order == 8
    # exact polynomial data stays exact
    assert (z1 * z1).order is INF


def test_exact_and_approx_agree(exact_ctx, approx_ctx):
    rnd = random.Random(51)
    for _ in range(15):
        u = rand_unit2(exact_ctx, rnd).truncated(8)
        ua = u.as_backend(approx_ctx)
        for ex, ap in (
            (u.log(8), ua.log(8)),
            (u.invert_unit(8), ua.invert_unit(8)),
            (u.sqrt(8), ua.sqrt(8)),
        ):
            for key, cval in ex.coeffs.items():
                assert approx_ctx.eq(complex(cval), ap.coefficient(*key))


def test_series1_arithmetic(ctx):
    f = axis_series(ctx, {-1: 1, 2: 3})
    g = axis_series(ctx, {1: 1})
    assert (f * g).coefficient(0, 0) == ctx.from_int(1)
    assert (f + g).coefficient(1, 0) == ctx.from_int(1)
    assert f.derive(0).coefficient(-2, 0) == ctx.from_int(-1)
    assert f.pole == 1
    assert f.coefficient(-1, 0) == ctx.from_int(1)


def test_series1_composition(ctx):
    f = axis_series(ctx, {2: 1})
    g = axis_series(ctx, {1: 1, 2: 1})
    comp = f.substitute(g, Series2.zero(ctx))
    assert comp.coefficient(2, 0) == ctx.from_int(1)
    assert comp.coefficient(3, 0) == ctx.from_int(2)
    assert comp.coefficient(4, 0) == ctx.from_int(1)


# -- a zero shift returns its operand -----------------------------------------


@pytest.mark.parametrize("kind", ["exact", "truncated", "laurent"])
def test_a_zero_shift_returns_the_operand(ctx, kind):
    z1, z2, one = gens(ctx)
    exact = one + z1 * z2 + z2.scale(Fraction(-1, 3))
    s = {"exact": exact, "truncated": (one + z1 + z2).log(6),
         "laurent": exact + Series2.monomial(ctx, -2, 1, Fraction(5, 2))}[kind]
    assert s.div_monomial(0, 0) is s


def test_approx_scale_within_the_tolerance_of_one_still_multiplies(approx_ctx):
    s = Series2.from_terms(approx_ctx, {(0, 0): 1, (1, 1): 2}, order=6)
    x = 1 + 1e-12
    assert approx_ctx.eq(x, approx_ctx.one)  # one within the tolerance, yet not one
    assert s.scale(x).coeffs == {(0, 0): x, (1, 1): 2 * x}
