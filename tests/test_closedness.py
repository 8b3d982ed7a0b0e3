import random
from fractions import Fraction

import pytest

from symdiff2 import APPROX, EXACT, Mismatch, NotAUnit, NotSeparable, Series2
from symdiff2.closedness import (
    brioschi_numerator,
    compare_decompositions,
    first_kind_decompose,
    is_closed,
    separability_defect,
    verify_abelian_relation,
)
from symdiff2.differentials import OneForm, SymTwoDiff, product
from conftest import rand_poly1, rand_poly2, rand_unit2, tame


def gens(ctx):
    return (
        Series2.variable(ctx, 0),
        Series2.variable(ctx, 1),
        Series2.const(ctx, 1),
        Series2.zero(ctx),
    )


def exact_form(s: Series2) -> OneForm:
    return OneForm(s.derive(0), s.derive(1))


# -- the curvature numerator ------------------------------------------------


def test_numerator_constant_coefficients(ctx):
    z1, z2, one, zero = gens(ctx)
    assert brioschi_numerator(SymTwoDiff(one, zero, -one)).is_zero()


def test_numerator_chart_form_identity(ctx):
    rnd = random.Random(9)
    for _ in range(25):
        g = rand_unit2(ctx, rnd, small=tame(ctx)).truncated(8)
        num = brioschi_numerator(SymTwoDiff(Series2.zero(ctx), g, Series2.zero(ctx)))
        expect = (g * separability_defect(g)).scale(Fraction(-1, 8))
        assert num.eq_through(expect)


def test_numerator_exponential_example(exact_ctx):
    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    g = (z1 * z2).truncated(10).exp(10)
    num = brioschi_numerator(SymTwoDiff(zero, g, zero))
    assert num.eq_through((g * g * g).scale(Fraction(-1, 8)))
    assert not num.is_zero()


def test_numerator_vanishes_on_products_of_exact_forms(ctx):
    rnd = random.Random(10)
    small = tame(ctx)
    for _ in range(25):
        F = rand_poly2(ctx, rnd, small=small).truncated(8)
        G = rand_poly2(ctx, rnd, small=small).truncated(8)
        w = product(exact_form(F), exact_form(G))
        assert brioschi_numerator(w).is_zero()


def _det3(m) -> Series2:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def ref_brioschi_numerator(w: SymTwoDiff) -> Series2:
    """The definition, det M1 - det M2, with both determinants written out."""
    half = w.ctx.from_rational(Fraction(1, 2))
    E, F, G = w.a, w.b.scale(half), w.c
    Eu, Ev = E.derive(0), E.derive(1)
    Fu, Fv = F.derive(0), F.derive(1)
    Gu, Gv = G.derive(0), G.derive(1)
    m1 = [
        [Fu.derive(1) - Ev.derive(1).scale(half) - Gu.derive(0).scale(half),
         Eu.scale(half), Fu - Ev.scale(half)],
        [Fv - Gu.scale(half), E, F],
        [Gv.scale(half), F, G],
    ]
    zero = Series2.zero(w.ctx, names=w.names)
    m2 = [
        [zero, Ev.scale(half), Gu.scale(half)],
        [Ev.scale(half), E, F],
        [Gu.scale(half), F, G],
    ]
    return _det3(m1) - _det3(m2)


def rand_differential(ctx, rnd, N, shape):
    """A random a, b, c: exact polynomials, or polynomials over a random unit
    (guaranteed through N - 1, N or N + 1), optionally times z1 or 1/z1."""
    parts = []
    for _ in range(3):
        if shape == "polynomial":
            s = rand_poly2(ctx, rnd)
        else:
            # integer coefficients keep the dense exact series cheap
            s = rand_poly2(ctx, rnd, small=1)
            s = s * rand_unit2(ctx, rnd, small=1).invert_unit(N + rnd.randint(-1, 1))
        if shape == "laurent":
            s = s * Series2.monomial(ctx, rnd.choice((-1, 1)), 0)
        parts.append(s)
    return SymTwoDiff(*parts)


SHAPES = ("polynomial", "truncated", "laurent")


@pytest.mark.parametrize("N", (8, 12))
@pytest.mark.parametrize("shape", SHAPES)
def test_numerator_matches_determinant_definition(N, shape):
    rnd = random.Random(f"brioschi:{N}:{shape}")
    for _ in range(6):
        w = rand_differential(EXACT, rnd, N, shape)
        num, ref = brioschi_numerator(w), ref_brioschi_numerator(w)
        assert num.coeffs == ref.coeffs
        assert num.order == ref.order


@pytest.mark.parametrize("shape", SHAPES)
def test_numerator_matches_determinant_definition_approx(shape):
    rnd = random.Random(f"brioschi-approx:{shape}")
    for _ in range(20):
        w = rand_differential(APPROX, rnd, 8, shape)
        num, ref = brioschi_numerator(w), ref_brioschi_numerator(w)
        assert num.order == ref.order
        for k in set(num.coeffs) | set(ref.coeffs):
            got, want = num.coefficient(*k), ref.coefficient(*k)
            assert abs(got - want) <= 1e-12 * abs(want), (k, got, want)


# -- verdicts ------------------------------------------------------------------


def test_is_closed_product_of_exact_forms(exact_ctx):
    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    F = z1.truncated(10).exp(10) + z2  # e^{z1} + z2
    G = z1 - z2
    rep = is_closed(product(exact_form(F), exact_form(G)))
    assert rep.verdict == "yes"


def test_is_closed_rejects_nonseparable_chart_form(exact_ctx):
    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    g = (z1 * z2).truncated(10).exp(10)
    rep = is_closed(SymTwoDiff(zero, g, zero))
    assert rep.verdict == "no"


def test_is_closed_rank1_inconclusive(exact_ctx):
    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    mu = OneForm(one, z2)
    rep = is_closed(product(mu, mu))
    assert rep.verdict == "inconclusive"
    assert rep.rank == 1


# -- chart-form decomposition -----------------------------------------------------


def test_first_kind_decompose_polynomial(ctx):
    z1, z2, one, zero = gens(ctx)
    g = (one + z1) * (one + z2)
    f, h = first_kind_decompose(g)
    assert f.coefficient(0) == ctx.one and f.coefficient(1) == ctx.one
    assert h.coefficient(0) == ctx.one and h.coefficient(1) == ctx.one


def test_first_kind_decompose_exponential(ctx):
    z1, z2, one, zero = gens(ctx)
    g = (z1 + z2).truncated(10).exp(10)
    f, h = first_kind_decompose(g)
    recomposed = f.to_series2(0) * h.to_series2(1)
    assert recomposed.eq_through(g)


def test_first_kind_decompose_rejections(ctx):
    z1, z2, one, zero = gens(ctx)
    g = (z1 * z2).truncated(10).exp(10)
    with pytest.raises(NotSeparable) as exc:
        first_kind_decompose(g)
    assert not exc.value.residual.is_zero()
    with pytest.raises(NotAUnit):
        first_kind_decompose(z1)


def test_first_kind_decompose_iff_defect_vanishes(exact_ctx):
    ctx = exact_ctx
    rnd = random.Random(12)
    for _ in range(25):
        A = rand_poly1(ctx, rnd, var="z1")
        B = rand_poly1(ctx, rnd, var="z2")
        A = A + (1 - A.coefficient(0))
        B = B + (1 - B.coefficient(0))
        g = (A.to_series2(0) * B.to_series2(1)).truncated(8)
        assert separability_defect(g).is_zero()
        first_kind_decompose(g)  # must succeed
    for _ in range(25):
        g = rand_unit2(ctx, rnd).truncated(8)
        if separability_defect(g).is_zero():
            first_kind_decompose(g)
        else:
            with pytest.raises(NotSeparable):
                first_kind_decompose(g)


def test_first_kind_gauge(exact_ctx):
    # scaling g by a constant scales f, leaves h fixed, keeps the product
    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    g = (one + z1) * (one + z2)
    lam = ctx.from_rational(Fraction(5, 3))
    f1, h1 = first_kind_decompose(g)
    f2, h2 = first_kind_decompose(g.scale(lam))
    assert f2.eq_through(f1.scale(lam))
    assert h2.eq_through(h1)


# -- uniqueness ----------------------------------------------------------------------


def test_compare_decompositions_constant_pair(ctx):
    z1, z2, one, zero = gens(ctx)
    d1 = (OneForm(one, zero), OneForm(zero, one))
    d2 = (OneForm(one.scale(2), zero), OneForm(zero, one.scale(Fraction(1, 2))))
    c, cinv = compare_decompositions(d1, d2)
    assert ctx.eq(c, ctx.from_int(2))
    assert ctx.eq(c * cinv, ctx.one)
    c, cinv = compare_decompositions(d1, d1)
    assert ctx.eq(c, ctx.one)


def test_compare_decompositions_swapped_order(ctx):
    z1, z2, one, zero = gens(ctx)
    d1 = (OneForm(one, zero), OneForm(zero, one))
    d2 = (OneForm(zero, one.scale(3)), OneForm(one.scale(Fraction(1, 3)), zero))
    c, cinv = compare_decompositions(d1, d2)
    assert ctx.eq(c * cinv, ctx.one)


def test_compare_decompositions_mismatch(ctx):
    z1, z2, one, zero = gens(ctx)
    d1 = (OneForm(one, zero), OneForm(zero, one))
    d3 = (
        OneForm(one + z2, zero),
        OneForm(zero, (one + z2).invert_unit(10)),
    )
    with pytest.raises(Mismatch):
        compare_decompositions(d1, d3)


# -- abelian relations -------------------------------------------------------------------


def test_abelian_relation_examples(ctx):
    z1, z2, one, zero = gens(ctx)
    d = (OneForm(one, zero), OneForm(zero, one))
    assert verify_abelian_relation((zero, zero), d)
    same = (OneForm(one, zero), OneForm(one, zero))
    assert verify_abelian_relation((one, -one), same)
    assert not verify_abelian_relation((one, one), d)


def test_abelian_rank_trivial_for_independent_factors(exact_ctx):
    # constants (besides 0,0) never satisfy the relation for independent factors
    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    d = (OneForm(one, zero), OneForm(one, one + z1))
    for c1, c2 in ((1, 1), (1, -1), (2, 3)):
        fs = (Series2.const(ctx, c1), Series2.const(ctx, c2))
        assert not verify_abelian_relation(fs, d)
