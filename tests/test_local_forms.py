import math
import random
from fractions import Fraction

import pytest

from symdiff2 import APPROX, EXACT, Series2
from symdiff2.closedness import is_closed
from symdiff2.differentials import SymTwoDiff
from symdiff2.errors import (
    DegenerateBasePoint,
    NonzeroResidual,
    NotALeafPresentation,
    NotNormalized,
    PrecisionExhausted,
    ValuationError,
    ZeroSeries,
)
from symdiff2.expressions import DifferentialInput, eval_text, parse
from symdiff2.local_forms import (
    analyze_product_form,
    classify_leaf,
    compose_singular_decomposition,
    leaf_chart,
    monodromy_index,
    order_of_contact,
    solve_singular_decomposition,
)
from symdiff2.scalars import GaussianRational
from conftest import P_NAMES, assert_refines, axis_series, rand_fraction, rand_unit2


def gens(ctx):
    return (
        Series2.variable(ctx, 0),
        Series2.variable(ctx, 1),
        Series2.const(ctx, 1),
    )


def normal_form_triple(v: Series2, m: int) -> SymTwoDiff:
    """Coefficients of v dz1 d[z1(1 + z1^m z2)]."""
    ctx = v.ctx
    z1, z2, one = gens(ctx)
    r = z1 * (one + Series2.monomial(ctx, m, 0) * z2)
    return SymTwoDiff(v * r.derive(0), v * r.derive(1), Series2.zero(ctx))


# -- order of contact -----------------------------------------------------------


def test_order_of_contact_examples(ctx):
    z1, z2, one = gens(ctx)
    assert order_of_contact(z1 * (one + z1 * z2)) == 1
    assert order_of_contact(z1 * (one + z2)) == 0
    assert order_of_contact(z1 * (one + Series2.monomial(ctx, 3, 0) * z2)) == 3


def test_order_of_contact_errors(ctx):
    z1, z2, one = gens(ctx)
    with pytest.raises(NotALeafPresentation):
        order_of_contact(z1 * z1 * (one + z2))
    with pytest.raises(NotALeafPresentation):
        order_of_contact(z1 * (z2 + z1))
    # r or dr/dv2 vanishing identically presents no leaf; vanishing only
    # through a finite guaranteed order asks for a higher truncation
    for r in (z1 * (one + z1), Series2.zero(ctx)):
        with pytest.raises(NotALeafPresentation):
            order_of_contact(r)
    for r in ((z1 * (one + z1)).truncated(6), Series2.zero(ctx, 6)):
        with pytest.raises(ZeroSeries):
            order_of_contact(r)


def test_order_of_contact_invariance_under_unit_rescaling(exact_ctx):
    # recompute after v2 -> v2 (1 + v2): same m
    ctx = exact_ctx
    z1, z2, one = gens(ctx)
    rnd = random.Random(13)
    for _ in range(20):
        m = rnd.randint(0, 3)
        u = rand_unit2(ctx, rnd).truncated(10)
        r = (z1 * (one + Series2.monomial(ctx, m, 0) * z2 * u)).truncated(10)
        try:
            base = order_of_contact(r)
        except (NotALeafPresentation, ZeroSeries):
            continue
        r2 = r.substitute(z1, z2 + z2 * z2, 10)
        assert order_of_contact(r2) == base


# -- the chart construction -------------------------------------------------------


def test_leaf_chart_worked_example(exact_ctx):
    ctx = exact_ctx
    z1, z2, one = gens(ctx)
    r = z1 * (one + z1 + z2 + z2 * z2)
    nf = leaf_chart(one.truncated(12), r)
    assert nf.m == 0
    assert nf.s.eq_through(axis_series(ctx, {0: 1, 1: 1}))
    assert nf.t.eq_through(axis_series(ctx, {1: 1, 2: 1}, axis=1))
    assert nf.gcorr.is_zero()
    # chart identity: z1 (1 + z2) pulled back equals r
    recon = nf.chart.comp1 * (one + nf.chart.comp2)
    assert recon.eq_through(r)


def test_leaf_chart_trivial(ctx):
    z1, z2, one = gens(ctx)
    r = z1 * (one + z2)
    nf = leaf_chart(one.truncated(10), r)
    assert nf.m == 0
    assert nf.s.eq_through(axis_series(ctx, {0: 1}))
    assert nf.t.eq_through(axis_series(ctx, {1: 1}, axis=1))
    assert nf.fout.eq_through(Series2.const(ctx, 1, order=nf.fout.order))


def test_leaf_chart_degenerate_base_point(exact_ctx):
    ctx = exact_ctx
    z1, z2, one = gens(ctx)
    r = z1 * eval_text("exp(z2^2/2)", 12, ctx)
    with pytest.raises(DegenerateBasePoint):
        leaf_chart(one.truncated(12), r)
    # polynomial data recenters exactly
    rp = z1 * (one + z2 * z2)
    with pytest.raises(DegenerateBasePoint):
        leaf_chart(one.truncated(12), rp)
    nf = leaf_chart(one.truncated(12), rp.substitute(z1, z2 + one))
    assert nf.m == 0


def test_leaf_chart_identity_random_units(exact_ctx):
    ctx = exact_ctx
    z1, z2, one = gens(ctx)
    rnd = random.Random(14)
    done = 0
    while done < 50:
        m = rnd.randint(0, 3)
        u = rand_unit2(ctx, rnd, deg=3, nterms=4).truncated(8)
        r = (z1 * (one + Series2.monomial(ctx, m, 0) * z2 * u)).truncated(9)
        h = rand_unit2(ctx, rnd, deg=2, nterms=3).truncated(8)
        try:
            nf = leaf_chart(h, r)
        except (DegenerateBasePoint, NotALeafPresentation, ZeroSeries):
            continue
        mono = Series2.monomial(ctx, nf.m, 0)
        recon = nf.chart.comp1 * (one + mono.substitute(nf.chart.comp1, nf.chart.comp2) * nf.chart.comp2)
        assert recon.eq_through(r.truncated(recon.order))
        # u reproduction
        u_back = nf.s + Series2.monomial(ctx, nf.m, 0) * (nf.t + z1 * nf.gcorr)
        assert u_back.eq_through(r.div_monomial(1, 0).truncated(u_back.order))
        done += 1


# -- the solver ---------------------------------------------------------------------


def test_solver_essential_example(exact_ctx):
    ctx = exact_ctx
    v = eval_text("exp(z2/(1+z1*z2))", 12, ctx)
    dec = solve_singular_decomposition(v, 1)
    assert dec.k == 0
    assert dec.alpha == GaussianRational(0)
    assert dec.f.eq_through(axis_series(ctx, {-1: 1}))
    assert dec.g.eq_through(axis_series(ctx, {-1: -1}, names=P_NAMES))
    assert dec.residual_zero


def test_solver_monodromy_example(exact_ctx):
    ctx = exact_ctx
    v = eval_text("(1+z2)^(1/2)", 12, ctx)
    dec = solve_singular_decomposition(v, 0)
    assert dec.k == 0
    assert dec.alpha == GaussianRational(Fraction(1, 2))
    assert dec.f.is_zero() and dec.g.is_zero()
    assert dec.residual_zero


def test_solver_trivial(ctx):
    one = Series2.const(ctx, 1).truncated(8)
    for m in (0, 1, 3):
        dec = solve_singular_decomposition(one, m)
        assert dec.k == 0
        assert ctx.is_zero(dec.alpha)
        assert dec.f.is_zero() and dec.g.is_zero() and dec.residual_zero


def test_solver_closed_exponential_chart(exact_ctx):
    # e^{z1 z2} in the m = 0 chart: e^{z1 z2} = e^{-z1} e^{p} with p = z1(1+z2),
    # so the input is closed and the residual vanishes
    ctx = exact_ctx
    v = eval_text("exp(z1*z2)", 10, ctx)
    dec = solve_singular_decomposition(v, 0)
    assert dec.residual_zero
    assert dec.f.eq_through(axis_series(ctx, {1: -1}))
    assert dec.g.eq_through(axis_series(ctx, {1: 1}, names=P_NAMES))
    rep = is_closed(normal_form_triple(v, 0))
    assert rep.verdict == "yes"


def test_solver_detects_non_closed_input(exact_ctx):
    ctx = exact_ctx
    v = eval_text("exp(z2^2)", 10, ctx)
    dec = solve_singular_decomposition(v, 0)
    assert not dec.residual_zero
    rep = is_closed(normal_form_triple(v, 0))
    assert rep.verdict == "no"
    with pytest.raises(NonzeroResidual):
        classify_leaf(dec)


def test_solver_closedness_consistency(exact_ctx):
    ctx = exact_ctx
    rnd = random.Random(15)
    for _ in range(10):
        m = rnd.randint(0, 2)
        f = axis_series(ctx, {i: GaussianRational(rand_fraction(rnd))
                              for i in rnd.sample(range(1, 6), 2)}, order=10)
        g = axis_series(ctx, {i: GaussianRational(rand_fraction(rnd))
                              for i in rnd.sample(range(1, 6), 2)}, order=10, names=P_NAMES)
        v = compose_singular_decomposition(ctx, 0, GaussianRational(0), f, g, m, 10)
        dec = solve_singular_decomposition(v, m)
        assert dec.residual_zero
        assert is_closed(normal_form_triple(v, m)).verdict == "yes"
    # non-closed draws: keep m <= 1 so the z2^2 obstruction stays within the
    # residual's guaranteed order at this truncation
    from symdiff2.closedness import separability_defect

    for _ in range(10):
        m = rnd.randint(0, 1)
        v = rand_unit2(ctx, rnd).truncated(10)
        if separability_defect(v).is_zero():
            continue
        dec = solve_singular_decomposition(v, m)
        triple = normal_form_triple(v, m)
        verdict = is_closed(triple).verdict
        assert dec.residual_zero == (verdict == "yes")


def test_solver_not_normalized(ctx):
    z1, z2, one = gens(ctx)
    with pytest.raises(NotNormalized):
        solve_singular_decomposition(z2.truncated(10), 0)


def test_solver_precision_guard(ctx):
    one = Series2.const(ctx, 1).truncated(6)
    with pytest.raises(PrecisionExhausted):
        solve_singular_decomposition(one, 10)


def test_solver_laurent_data_refine(exact_ctx):
    # closed, m = 1: f = 1/z1 + z1/(1 - z1), g = -1/p + log(1 + p)/2, alpha = 1/3
    text = ("exp(z2/(1+z1*z2)) * exp(z1/(1-z1)) * (1+z1+z1^2*z2)^(1/2)"
            " * (1+z1*z2)^(1/3)")
    decs = []
    for N in (10, 14):
        dec = solve_singular_decomposition(eval_text(text, N, exact_ctx), 1)
        assert dec.residual_zero and dec.alpha == GaussianRational(Fraction(1, 3))
        assert dec.f.pole == 1 and dec.g.pole == 1
        decs.append(dec)
    low, high = decs
    assert_refines(low.f, high.f)
    assert_refines(low.g, high.g)


def test_solver_roundtrips_with_poles(exact_ctx):
    ctx = exact_ctx
    rnd = random.Random(16)
    for m in (1, 2, 3):
        for _ in range(5):
            k = rnd.randint(0, 2)
            alpha = GaussianRational(rand_fraction(rnd))
            fpole = {i: GaussianRational(rand_fraction(rnd)) for i in range(-m, 0)}
            ftail = {i: GaussianRational(rand_fraction(rnd))
                     for i in rnd.sample(range(1, 6), 2)}
            gtail = {i: GaussianRational(rand_fraction(rnd))
                     for i in rnd.sample(range(1, 6), 2)}
            f = axis_series(ctx, {**fpole, **ftail}, order=10)
            g = axis_series(ctx, {**{i: -c for i, c in fpole.items()}, **gtail}, order=10,
                            names=P_NAMES)
            v = compose_singular_decomposition(ctx, k, alpha, f, g, m, 10)
            dec = solve_singular_decomposition(v, m)
            assert dec.k == k
            assert dec.alpha == alpha
            assert dec.residual_zero
            assert dec.f.eq_through(f.truncated(dec.f.order))
            assert dec.g.eq_through(g.truncated(dec.g.order))
            assert dec.f.pole <= m and dec.g.pole <= m


def test_compose_rejects_unmatched_poles(exact_ctx):
    ctx = exact_ctx
    f = axis_series(ctx, {-1: 1})
    g = axis_series(ctx, {-1: 1}, names=P_NAMES)  # should be -1
    with pytest.raises(ValuationError):
        compose_singular_decomposition(ctx, 0, GaussianRational(0), f, g, 1, 10)


# -- monodromy ---------------------------------------------------------------------


def test_monodromy_exact_values(exact_ctx):
    mi = monodromy_index(GaussianRational(Fraction(1, 3)), EXACT)
    assert mi.order_type == "finite" and mi.order == 3
    assert abs(mi.c ** 3 - 1) < 1e-9
    assert abs(mi.pair[0] * mi.pair[1] - 1) < 1e-12
    mi = monodromy_index(GaussianRational(-1), EXACT)
    assert mi.order_type == "trivial"
    mi = monodromy_index(GaussianRational(Fraction(1, 2), Fraction(1, 3)), EXACT)
    assert mi.order_type == "infinite"


def test_monodromy_approx_detection(approx_ctx):
    mi = monodromy_index(complex(0.5), APPROX)
    assert mi.order_type == "finite" and mi.order == 2 and mi.heuristic
    mi = monodromy_index(complex(2.0), APPROX)
    assert mi.order_type == "trivial"
    mi = monodromy_index(complex(math.sqrt(2)), APPROX)
    assert mi.order_type == "infinite"
    assert "no small rational" in mi.note
    mi = monodromy_index(complex(1 / 3 + 1e-12), APPROX)
    assert mi.order_type == "finite" and mi.order == 3


def test_monodromy_well_defined_mod_integers(ctx):
    # exp(2 pi i (alpha + n)) = exp(2 pi i alpha)
    for base in (Fraction(1, 3), Fraction(-2, 7), Fraction(0)):
        cs = []
        for n in (-2, 0, 5):
            alpha = (
                GaussianRational(base + n)
                if ctx.name == "exact"
                else complex(float(base + n))
            )
            cs.append(monodromy_index(alpha, ctx).c)
        assert abs(cs[0] - cs[1]) < 1e-9 and abs(cs[1] - cs[2]) < 1e-9


# -- leaf classification ---------------------------------------------------------------


def _dec(ctx, k, alpha, f, g, m=1, order=10):
    v = compose_singular_decomposition(ctx, k, alpha, f, g, m, order)
    return solve_singular_decomposition(v, m)


def test_classify_leaf_essential(exact_ctx):
    ctx = exact_ctx
    f = axis_series(ctx, {-1: 1})
    g = axis_series(ctx, {-1: -1}, names=P_NAMES)
    leaf = classify_leaf(_dec(ctx, 0, GaussianRational(0), f, g))
    assert leaf.singularity == "essential"
    assert leaf.monodromy.order_type == "trivial"
    assert leaf.in_breakdown and not leaf.first_kind


def test_classify_leaf_meromorphic(exact_ctx):
    ctx = exact_ctx
    f = Series2.zero(ctx, 10)
    g = Series2.zero(ctx, 10, P_NAMES)
    leaf = classify_leaf(_dec(ctx, 0, GaussianRational(-1), f, g, m=0))
    assert leaf.singularity == "meromorphic"
    assert leaf.monodromy.order_type == "trivial"
    assert leaf.in_breakdown and not leaf.first_kind


def test_classify_leaf_first_kind(exact_ctx):
    ctx = exact_ctx
    f = axis_series(ctx, {1: 1, 2: Fraction(1, 3)})
    g = axis_series(ctx, {1: -2}, names=P_NAMES)
    leaf = classify_leaf(_dec(ctx, 2, GaussianRational(1), f, g, m=1))
    assert leaf.first_kind and not leaf.in_breakdown
    assert leaf.singularity == "none"
    assert leaf.monodromy.order_type == "trivial"


def test_classify_leaf_pure_monodromy(exact_ctx):
    ctx = exact_ctx
    f = Series2.zero(ctx, 10)
    g = Series2.zero(ctx, 10, P_NAMES)
    leaf = classify_leaf(_dec(ctx, 0, GaussianRational(Fraction(1, 2)), f, g, m=0))
    assert leaf.singularity == "none"
    assert leaf.monodromy.order_type == "finite" and leaf.monodromy.order == 2
    assert leaf.in_breakdown


def test_products_of_holomorphic_closed_factors_are_first_kind(exact_ctx):
    ctx = exact_ctx
    rnd = random.Random(17)
    for _ in range(10):
        m = rnd.randint(0, 2)
        k = rnd.randint(0, 2)
        # w = z1^k A(z1) dz1 * B(p) dp with A, B holomorphic units (const 1)
        f = axis_series(ctx, {i: GaussianRational(rand_fraction(rnd))
                              for i in rnd.sample(range(1, 5), 2)}, order=10)
        g = axis_series(ctx, {i: GaussianRational(rand_fraction(rnd))
                              for i in rnd.sample(range(1, 5), 2)}, order=10, names=P_NAMES)
        v = compose_singular_decomposition(ctx, k, GaussianRational(k), f, g, m, 10)
        leaf = classify_leaf(solve_singular_decomposition(v, m))
        assert leaf.first_kind


# -- the product-form pipeline ------------------------------------------------------------


def test_pipeline_meromorphic_example(exact_ctx):
    di = DifferentialInput(
        scale=parse("exp(-(z2^2)/2)"), u=parse("z1"), r=parse("z1*exp(z2^2/2)")
    )
    res = analyze_product_form(*di.product_factors(EXACT, 12, Fraction(1)), order=12)
    assert res.normal_form.m == 0
    dec = res.decomposition
    assert dec.k == 0 and dec.alpha == GaussianRational(-1)
    assert dec.residual_zero
    assert res.leaf.singularity == "meromorphic"
    assert res.leaf.monodromy.order_type == "trivial"
    assert res.leaf.in_breakdown and not res.leaf.first_kind


def test_pipeline_requires_leaf_through_base_point(exact_ctx):
    with pytest.raises(NotALeafPresentation):
        di = DifferentialInput(scale=parse("1"), u=parse("1+z1"), r=parse("z1*(1+z2)"))
        analyze_product_form(*di.product_factors(EXACT, 10), order=10)


def test_pipeline_preliminary_chart(exact_ctx):
    # u = z1 + z1^2 is a coordinate only after a preliminary chart
    di = DifferentialInput(scale=parse("1"), u=parse("z1+z1^2"), r=parse("z1*(1+z2)"))
    res = analyze_product_form(*di.product_factors(EXACT, 10), order=10)
    assert res.decomposition.residual_zero
    assert res.leaf is not None and res.leaf.first_kind
    assert any("preliminary chart" in w for w in res.warnings)


def test_pipeline_essential_example(exact_ctx):
    di = DifferentialInput(
        scale=parse("exp(z2/(1+z1*z2))"), u=parse("z1"), r=parse("z1*(1+z1*z2)")
    )
    res = analyze_product_form(*di.product_factors(EXACT, 12), order=12)
    assert res.normal_form.m == 1
    dec = res.decomposition
    assert dec.alpha == GaussianRational(0) and dec.k == 0
    assert dec.f.eq_through(axis_series(EXACT, {-1: 1}))
    assert dec.g.eq_through(axis_series(EXACT, {-1: -1}, names=P_NAMES))
    assert res.leaf.singularity == "essential"
