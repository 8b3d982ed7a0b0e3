import random
from fractions import Fraction

import pytest

from symdiff2 import Inconclusive, NotSplit, Series2
from symdiff2.differentials import (
    OneForm,
    SymTwoDiff,
    classify_component,
    core_discriminant,
    discriminant,
    jacobian_det,
    multiplicity,
    product,
    pullback,
    pullback_cover,
    rank,
    split,
    try_divide,
)
from conftest import rand_coordmap, rand_poly2, tame


def gens(ctx):
    return (
        Series2.variable(ctx, 0),
        Series2.variable(ctx, 1),
        Series2.const(ctx, 1),
        Series2.zero(ctx),
    )


def rand_oneform(ctx, rnd, small=3):
    while True:
        mu = OneForm(rand_poly2(ctx, rnd, small=small), rand_poly2(ctx, rnd, small=small))
        if not mu.is_zero():
            return mu


# -- product -----------------------------------------------------------------


def test_product_examples(ctx):
    z1, z2, one, zero = gens(ctx)
    w = product(OneForm(one, one), OneForm(one, -one))
    assert w.a.eq_through(one) and w.b.is_zero() and w.c.eq_through(-one)
    w = product(OneForm(one, zero), OneForm(one, z1 * z2))
    assert w.a.eq_through(one) and w.b.eq_through(z1 * z2) and w.c.is_zero()
    w = product(OneForm(one, zero), OneForm(zero, one))
    assert w.a.is_zero() and w.b.eq_through(one) and w.c.is_zero()


# -- discriminant ---------------------------------------------------------------


def test_discriminant_examples(ctx):
    z1, z2, one, zero = gens(ctx)
    assert discriminant(SymTwoDiff(z1, zero, -one)).eq_through(-z1)
    w = SymTwoDiff(one, z1 * z2, zero)
    assert discriminant(w).eq_through((z1 * z1 * z2 * z2).scale(Fraction(-1, 4)))
    mu = rand_oneform(ctx, random.Random(1), small=tame(ctx))
    assert discriminant(product(mu, mu)).is_zero()


def test_discriminant_of_product_is_wedge_square(ctx):
    rnd = random.Random(2)
    small = tame(ctx)
    for _ in range(100):
        mu, nu = rand_oneform(ctx, rnd, small), rand_oneform(ctx, rnd, small)
        w = product(mu, nu)
        w = SymTwoDiff(w.a.truncated(8), w.b.truncated(8), w.c.truncated(8))
        wedge = mu.wedge(nu).truncated(8)
        assert discriminant(w).eq_through((wedge * wedge).scale(Fraction(-1, 4)))


def test_discriminant_scaling(ctx):
    rnd = random.Random(3)
    small = tame(ctx)
    for _ in range(20):
        h = rand_poly2(ctx, rnd, small=small).truncated(8)
        w = SymTwoDiff(
            rand_poly2(ctx, rnd, small=small).truncated(8),
            rand_poly2(ctx, rnd, small=small).truncated(8),
            rand_poly2(ctx, rnd, small=small).truncated(8),
        )
        scaled = SymTwoDiff(w.a * h, w.b * h, w.c * h)
        assert discriminant(scaled).eq_through(h * h * discriminant(w))


# -- rank -------------------------------------------------------------------------


def test_rank_examples(exact_ctx):
    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    assert rank(SymTwoDiff(one, zero, -one)) == 2
    mu = OneForm(one, z2)
    assert rank(product(mu, mu)) == 1
    assert rank(SymTwoDiff(one, z1 * z2, zero)) == 2


def test_rank_inconclusive_on_truncated_zero_disc(exact_ctx):
    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    mu = OneForm(one.truncated(6), z2.truncated(6))
    with pytest.raises(Inconclusive):
        rank(product(mu, mu))


# -- split ---------------------------------------------------------------------------


def test_split_constant_coefficients(ctx):
    z1, z2, one, zero = gens(ctx)
    w = SymTwoDiff(one, zero, -one)
    mu1, mu2 = split(w)
    assert product(mu1, mu2).eq_through(w)


def test_split_common_leaf_example(ctx):
    z1, z2, one, zero = gens(ctx)
    w = SymTwoDiff(one, z1 * z2, zero)
    mu1, mu2 = split(w)
    assert product(mu1, mu2).eq_through(w)
    # one factor is a multiple of dz1
    assert mu1.B.is_zero() or mu2.B.is_zero()


def test_split_not_split_certificate(ctx):
    z1, z2, one, zero = gens(ctx)
    with pytest.raises(NotSplit) as exc:
        split(SymTwoDiff(z1, zero, -one))
    assert exc.value.witness == "z1"
    assert exc.value.multiplicity == 1


def test_split_recovers_random_products(ctx):
    rnd = random.Random(4)
    small = tame(ctx)
    done = 0
    while done < 30:
        mu, nu = rand_oneform(ctx, rnd, small), rand_oneform(ctx, rnd, small)
        w = product(mu, nu)
        w = SymTwoDiff(w.a.truncated(8), w.b.truncated(8), w.c.truncated(8))
        try:
            f1, f2 = split(w)
        except (NotSplit, Inconclusive):
            continue  # e.g. odd axis content or non-axis degeneracy in the draw
        assert product(f1, f2).eq_through(w)
        done += 1


def test_split_gauge_is_deterministic(ctx):
    z1, z2, one, zero = gens(ctx)
    w = SymTwoDiff((one + z1).truncated(10), (z1 * z2).truncated(10),
                   (-(z2 * z2)).truncated(10))
    a1, a2 = split(w)
    b1, b2 = split(w)
    assert a1.eq_through(b1) and a2.eq_through(b2)
    assert product(a1, a2).eq_through(w)


def test_split_degenerate_axis_content(ctx):
    # w = z1 * (dz1^2 - dz2^2): content goes into the first factor
    z1, z2, one, zero = gens(ctx)
    w = SymTwoDiff(z1, zero, -z1)
    mu1, mu2 = split(w)
    assert product(mu1, mu2).eq_through(w)


# -- pullback -------------------------------------------------------------------------


def test_pullback_identity(ctx):
    from symdiff2 import CoordMap

    z1, z2, one, zero = gens(ctx)
    w = SymTwoDiff(one, z1 * z2, z2 * z2)
    phi = CoordMap.identity(ctx, 10)
    back = pullback(w, phi)
    assert back.eq_through(w)


def test_pullback_cover_example(ctx):
    z1, z2, one, zero = gens(ctx)
    w = SymTwoDiff(z1, zero, -one)
    cov = pullback_cover(w, 2)
    s = Series2.variable(ctx, 0, names=("s", "z2"))
    assert cov.a.eq_through((s * s * s * s).scale(4))
    assert cov.b.is_zero()
    assert cov.c.eq_through(Series2.const(ctx, -1, names=("s", "z2")))
    f1, f2 = split(cov)
    assert product(f1, f2).eq_through(cov)
    assert f1.is_closed() and f2.is_closed()


def test_pullback_functoriality(exact_ctx):
    ctx = exact_ctx
    rnd = random.Random(5)
    for _ in range(10):
        w = SymTwoDiff(
            rand_poly2(ctx, rnd, deg=2, nterms=3),
            rand_poly2(ctx, rnd, deg=2, nterms=3),
            rand_poly2(ctx, rnd, deg=2, nterms=3),
        )
        phi = rand_coordmap(ctx, rnd, order=6)
        psi = rand_coordmap(ctx, rnd, order=6)
        lhs = pullback(w, phi.compose(psi))
        rhs = pullback(pullback(w, phi), psi)
        assert lhs.eq_through(rhs)


def test_pullback_discriminant_identity(exact_ctx):
    ctx = exact_ctx
    rnd = random.Random(6)
    for _ in range(10):
        w = SymTwoDiff(
            rand_poly2(ctx, rnd, deg=2, nterms=3),
            rand_poly2(ctx, rnd, deg=2, nterms=3),
            rand_poly2(ctx, rnd, deg=2, nterms=3),
        )
        phi = rand_coordmap(ctx, rnd, order=6)
        det = jacobian_det(phi)
        lhs = discriminant(pullback(w, phi))
        rhs = det * det * discriminant(w).substitute(phi.comp1, phi.comp2)
        assert lhs.eq_through(rhs)


def test_pullback_singular_map_rejected(ctx):
    from symdiff2 import CoordMap, SingularJacobian

    z1, z2, one, zero = gens(ctx)
    w = SymTwoDiff(one, zero, -one)
    phi = CoordMap((z1 * z1).truncated(6), z2.truncated(6))
    with pytest.raises(SingularJacobian):
        pullback(w, phi)


# -- division and multiplicities ---------------------------------------------------------


def test_try_divide_monomial(exact_ctx):
    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    s = z1 * z1 * z2 + z1 * z1 * z1 * z2
    q = try_divide(s, z1 * z1)
    assert q.eq_through(z2 + z1 * z2)
    assert try_divide(s, z1 * z1 * z1) is None


def test_try_divide_general_polynomial(exact_ctx):
    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    h = z1 + z2
    s = (z1 + z2) * (one + z1 * z2) * (z1 + z2)
    q = try_divide(s, h)
    assert (q * h).eq_through(s)
    assert multiplicity(s, h) == 2
    assert try_divide(z1 * z1 + z2, h) is None


def test_try_divide_local_ring_unit_quotient(exact_ctx):
    # z1 divides z1 exactly; z1*(1+z1) divides z1 in the local ring with a
    # unit series quotient
    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    h = z1 + z1 * z1
    q = try_divide(z1, h)
    assert q is not None
    assert (q * h).eq_through(z1.truncated(q.order))


def test_multiplicity_examples(exact_ctx):
    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    disc = discriminant(SymTwoDiff(one, z1 * z2, zero))
    assert multiplicity(disc, z1) == 2
    assert multiplicity(disc, z2) == 2
    disc2 = discriminant(SymTwoDiff(z1, zero, -one))
    assert multiplicity(disc2, z1) == 1


def test_multiplicity_of_a_unit_is_inconclusive(exact_ctx):
    # a unit divides everything: the loop stops at what s holds
    z1, z2, one, zero = gens(exact_ctx)
    for s in (z1 * z2, (one + z1).truncated(10)):
        with pytest.raises(Inconclusive):
            multiplicity(s, one + z1)


def test_core_discriminant_examples(exact_ctx):
    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    # divisorial content subtracts twice
    w = SymTwoDiff(zero, z1 * z1 * (one + z2), zero)
    core, table = core_discriminant(w, [("z1", z1)])
    assert table["z1"] == {"disc": 4, "content": 2, "core": 0}
    w2 = SymTwoDiff(one, z1 * z2, zero)
    core, table = core_discriminant(w2, [("z1", z1), ("z2", z2)])
    assert table["z1"]["disc"] == 2 and table["z1"]["core"] == 2
    assert table["z2"]["disc"] == 2 and table["z2"]["core"] == 2
    assert core.eq_through(discriminant(w2))
    w3 = SymTwoDiff(z1, zero, -one)
    core, table = core_discriminant(w3, [("z1", z1)])
    assert table["z1"] == {"disc": 1, "content": 0, "core": 1}


# -- component classification ----------------------------------------------------------------


def test_classify_component_examples(exact_ctx):
    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    w = SymTwoDiff(one, z1 * z2, zero)
    cc = classify_component(w, z1, "z1")
    assert (cc.parity, cc.geometry) == ("S", "C")
    cc = classify_component(w, z2, "z2")
    assert (cc.parity, cc.geometry) == ("S", "R")
    w2 = SymTwoDiff(z1, zero, -one)
    cc = classify_component(w2, z1, "z1")
    assert cc.parity == "N" and cc.geometry == "undecided"
    assert cc.mult_disc == 1


def test_classify_common_leaf_lies_in_core(exact_ctx):
    # geometry C forces core multiplicity >= 1 on a sample of products
    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    cases = [
        (SymTwoDiff(one, z1 * z2, zero), z1),
        (product(OneForm(one, zero), OneForm(one, (z1 * z1) * z2)), z1),
    ]
    for w, h in cases:
        cc = classify_component(w, h, "h")
        if cc.geometry == "C":
            assert cc.mult_core >= 1


def test_perfect_square_root(exact_ctx):
    from symdiff2.differentials import perfect_square_root

    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    s = (z1 + z2) * (z1 + z2)
    r = perfect_square_root(s)
    assert (r * r).eq_through(s.truncated(r.order))
    base = ((z1 + z2.scale(2)) * (one + z1 * z2)).truncated(10)
    r = perfect_square_root(base * base)
    assert r is not None and (r * r).eq_through((base * base).truncated(r.order))
    assert perfect_square_root(z1 * z1 + z2 * z2) is None
    assert perfect_square_root(z1) is None


def test_split_non_axis_square_discriminant(exact_ctx):
    # w = d(z1+z2) d((z1+z2)(1+z1)): common leaf along {z1+z2 = 0}
    from symdiff2.expressions import DifferentialInput

    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    di = DifferentialInput.from_strings(
        {"scale": "1", "u": "z1+z2", "r": "(z1+z2)*(1+z1)"}
    )
    w = SymTwoDiff(*di.coefficient_triple(ctx, 12))
    mu1, mu2 = split(w)
    assert product(mu1, mu2).eq_through(w)
    h = z1 + z2
    cc = classify_component(w, h, "z1+z2")
    assert (cc.parity, cc.geometry) == ("S", "C")
    assert cc.mult_core >= 1
    # tangency along the same curve: dz1 * (dz1 + (z1+z2) dz2)
    w2 = product(OneForm(one, zero), OneForm(one, h))
    cc2 = classify_component(w2, h, "z1+z2")
    assert (cc2.parity, cc2.geometry) == ("S", "R")


def test_classify_requires_dividing_component(exact_ctx):
    from symdiff2 import DivisionFailure

    ctx = exact_ctx
    z1, z2, one, zero = gens(ctx)
    w = SymTwoDiff(one, z1 * z2, zero)
    with pytest.raises(DivisionFailure):
        classify_component(w, z1 + z2, "z1+z2")


@pytest.mark.parametrize(
    "abc, labels",
    [
        # no content: z1 is a common leaf, z2 a tangency
        (("exp(z2)", "z1*z2*exp(z1)", "0"), ("z1", "z2")),
        # content 1 along z1, divided out of the core and before the split
        (("z1*exp(z2)", "z1*z2*exp(z1)", "z1*(1+z2)"), ("z1",)),
    ],
)
def test_component_layer_refines_with_truncation(abc, labels):
    # guaranteed-order contract: raising N leaves every answer and every
    # coefficient through the lower run's order unchanged
    from symdiff2 import EXACT
    from symdiff2.expressions import eval_text

    def run_at(N):
        w = SymTwoDiff(*(eval_text(t, N, EXACT) for t in abc))
        comps = [(lbl, eval_text(lbl, N, EXACT)) for lbl in labels]
        core, table = core_discriminant(w, comps)
        classes = [classify_component(w, h, lbl) for lbl, h in comps]
        return core, table, classes

    core, table, classes = run_at(10)
    core4, table4, classes4 = run_at(14)
    assert table == table4
    assert classes == classes4
    assert core.order < core4.order
    assert core.eq_through(core4)


def test_sym_two_diff_is_frozen_and_holds_its_discriminant(exact_ctx):
    from dataclasses import FrozenInstanceError

    z1, z2, one, zero = gens(exact_ctx)
    w = SymTwoDiff(one, z1 * z2, z2)
    assert w.disc is w.disc
    assert w.disc.eq_through(discriminant(w))
    with pytest.raises(FrozenInstanceError):
        w.a = z1
