"""Order oracle: a result's claimed order is never more than it knows.

Each case builds one mathematical object at truncation N and at N + 8 on
the exact backend.  Every coefficient up to the order the lower run claims
must agree with the higher run; a claim one degree too long fails here.
"""

import json
import random

from symdiff2 import EXACT, INF, Series2, SymTwoDiff, brioschi_numerator, reverse_map, split
from symdiff2.cli import run
from symdiff2.expressions import DifferentialInput, eval_text
from symdiff2.local_forms import analyze_product_form, leaf_chart

from conftest import (P_NAMES, assert_refines, rand_coordmap, rand_poly1, rand_poly2,
                      rand_unit2)

DELTA = 8


def agree_through_low(low, high):
    """Like assert_refines, but a zero residual may be zero on both sides."""
    assert low.order <= high.order
    assert low.eq_through(high)


def gens(ctx):
    return (
        Series2.variable(ctx, 0),
        Series2.variable(ctx, 1),
        Series2.const(ctx, 1),
    )


def tail_series(ctx, seed, N):
    """exp of a seeded polynomial without constant term: no finite support."""
    a = rand_poly2(ctx, random.Random(seed), deg=3, nterms=4)
    return (a - a.constant_term).exp(N)


def laurent_outer(ctx, seed, pole, N):
    """A one-axis Laurent series with pole ``pole`` known only through its order."""
    rnd = random.Random(seed)
    a = Series2.from_terms(ctx, {(i, 0): rnd.choice((1, -1, 2, -2)) for i in (1, 2, 3)})
    return a.exp(N).div_monomial(pole, 0).with_names(P_NAMES)


def test_substitute_power_series_under_a_full_map():
    ctx = EXACT
    for seed in range(12):
        N = 4 + seed % 4
        runs = []
        for n in (N, N + DELTA):
            phi = rand_coordmap(ctx, random.Random(100 + seed), order=n)
            runs.append(tail_series(ctx, seed, n).substitute(phi.comp1, phi.comp2))
        assert runs[0].order == N
        assert_refines(*runs)


def test_substitute_laurent_outer_at_z1_times_unit():
    ctx = EXACT
    z1, z2, one = gens(ctx)
    zero = Series2.zero(ctx)
    for seed in range(12):
        pole, N = 1 + seed % 3, 6 + seed % 4
        unit = rand_unit2(ctx, random.Random(200 + seed), deg=3, nterms=3)
        for truncated in (False, True):
            runs = []
            for n in (N, N + DELTA):
                u = (unit - one + z1 * z2).exp(n) if truncated else unit
                g = laurent_outer(ctx, seed, pole, n)
                runs.append(g.substitute(z1 * u, zero, n))
            assert_refines(*runs)


def test_substitute_laurent_without_an_order_keeps_the_outer_order():
    # with no order the quotient by u^P is solved through the lifted series'
    # own order, as the power-series branch composes, not through 16
    ctx = EXACT
    z1, z2, one = gens(ctx)
    g = eval_text("exp(z1+z1^2)", 30, ctx).div_monomial(2, 0)
    p, zero = z1 * (one + z2), Series2.zero(ctx)
    got, wide = g.substitute(p, zero), g.substitute(p, zero, 40)
    assert got.order == wide.order == g.order == 28
    assert got.eq_through(wide)
    assert_refines(got, eval_text("exp(z1+z1^2)", 30 + DELTA, ctx).div_monomial(2, 0)
                   .substitute(p, zero))


def test_substitute_laurent_order_is_tight_for_polynomial_inner():
    # (z1^P g)(p) * u^-P / z1^P keeps every degree that g and N determine
    ctx = EXACT
    z1, z2, one = gens(ctx)
    zero = Series2.zero(ctx)
    for seed in range(12):
        pole, N, m = 1 + seed % 3, 6 + seed % 5, seed % 4
        p = z1 * (one + Series2.monomial(ctx, m, 0) * z2)
        for g_order in (N - 1 - m, N + 2):
            g = laurent_outer(ctx, seed, pole, g_order + pole)
            assert g.order == g_order
            assert g.substitute(p, zero, N).order == min(N - pole, g.order)


def test_divide_refines():
    # Laurent and power-series numerators over z1^k times a polynomial or a
    # truncated unit
    ctx = EXACT
    z1, z2, one = gens(ctx)
    for seed in range(12):
        N, k, pole = 5 + seed % 4, seed % 3, seed % 2
        unit = rand_unit2(ctx, random.Random(400 + seed), deg=3, nterms=3)
        for truncated in (False, True):
            runs = []
            for n in (N, N + DELTA):
                num = tail_series(ctx, seed, n).div_monomial(pole, 0)
                u = (unit - one + z1 * z2).exp(n) if truncated else unit
                runs.append(num.divide(u * Series2.monomial(ctx, k, 0), n))
            assert runs[0].order == N - pole - k
            assert_refines(*runs)


# -- ring operations and calculus, at N and N + 4 ------------------------------

STEP = 4


def truncated_operand(ctx, seed, N, i0, j0):
    """z1^i0 z2^j0 times a series known through degree N; i0 < 0 is a pole."""
    s = tail_series(ctx, seed, N)
    s = s.div_monomial(-i0, 0) if i0 < 0 else s * Series2.monomial(ctx, i0, 0)
    return s * Series2.monomial(ctx, 0, j0)


def test_product_of_truncated_operands_refines():
    # the claim min(Na + val b, Nb + val a), with a pole, a valuation or an
    # exact polynomial on either side
    ctx = EXACT
    for seed in range(16):
        rnd = random.Random(500 + seed)
        Na, Nb = rnd.randint(3, 7), rnd.randint(3, 7)
        ia, ja, ib, jb = rnd.randint(-2, 2), rnd.randint(0, 2), rnd.randint(0, 2), rnd.randint(0, 2)
        exact_b = seed % 4 == 3
        runs = []
        for step in (0, STEP):
            a = truncated_operand(ctx, seed, Na + step, ia, ja)
            b = (rand_poly2(ctx, random.Random(600 + seed), deg=3, nterms=4) if exact_b
                 else truncated_operand(ctx, 700 + seed, Nb + step, ib, jb))
            runs.append((a, b, a * b))
        (a, b, low), (_, _, high) = runs
        assert low.order == min(a.order + b.valuation, b.order + a.valuation)
        assert_refines(low, high)


def test_derive_refines():
    ctx = EXACT
    for seed in range(8):
        N, i0, j0 = 4 + seed % 4, seed % 3 - 1, seed % 2
        for axis in (0, 1):
            low, high = (truncated_operand(ctx, seed, n, i0, j0).derive(axis)
                         for n in (N, N + STEP))
            assert low.order == N + i0 + j0 - 1
            assert_refines(low, high)


def test_div_monomial_refines():
    # dividing by z1^k beyond the valuation makes a pole
    ctx = EXACT
    for seed in range(8):
        N, i0, j0 = 4 + seed % 4, seed % 3, seed % 2
        k = i0 + seed % 2
        low, high = (truncated_operand(ctx, seed, n, i0, j0).div_monomial(k, j0)
                     for n in (N, N + STEP))
        assert low.order == N + i0 - k
        assert_refines(low, high)


# not closed: its curvature numerator has nonzero terms at every truncation
BRIOSCHI_W = {"a": "exp(z1*z2)", "b": "z1+z2*exp(z2)", "c": "1+z2^2*exp(z1)"}


def test_brioschi_numerator_refines():
    for W in (BRIOSCHI_W, M3_TWIN_W):
        for N in (6, 9):
            low, high = (
                brioschi_numerator(SymTwoDiff(
                    *DifferentialInput.from_strings(W).coefficient_triple(EXACT, n)))
                for n in (N, N + STEP)
            )
            assert low.order is not INF and low.order < high.order
            assert_refines(low, high)


def test_reverse_map_refines():
    ctx = EXACT
    for seed in range(8):
        N = 4 + seed % 3
        low, high = (
            reverse_map(rand_coordmap(ctx, random.Random(300 + seed), order=n))
            for n in (N, N + DELTA)
        )
        for a, b in ((low.comp1, high.comp1), (low.comp2, high.comp2)):
            assert a.order == N
            assert_refines(a, b)


# -- the product-form pipeline ---------------------------------------------

README_W = {"scale": "exp(z2/(1+z1*z2))", "u": "z1", "r": "z1*(1+z1*z2)"}
# the twin of the closed m = 2 construction in chart coordinates u = z1 + z2^2
M2_CHART_TWIN_W = {
    "scale": "(1+(z1+z2^2)^2*z2)^1*exp((-1)*(z1+z2^2)^1+(1/2)*(z1+z2^2)^2)"
    "*exp((1/3)*((z1+z2^2)*(1+(z1+z2^2)^2*z2))^1)*exp((1/2)*z2)",
    "u": "z1+z2^2",
    "r": "(z1+z2^2)*(1+(z1+z2^2)^2*z2)",
}
# the doc pinned as theorem26-twin-m2 in data/report_digests.json
PINNED_M2_TWIN_W = {
    "scale": "(1+(z1+z2^2)^2*z2)^(-1)*exp(1*(z1+z2^2)+(1/2)*(z1+z2^2)^2)"
    "*exp((1/3)*((z1+z2^2)*(1+(z1+z2^2)^2*z2)))*exp((1/2)*z2)",
    "u": "z1+z2^2",
    "r": "(z1+z2^2)*(1+(z1+z2^2)^2*z2)",
}
# its closed sibling, whose scale holds the power (1+(z1+z2^2)^2*z2)^(-1)
PINNED_M2_CLOSED_W = {
    **PINNED_M2_TWIN_W,
    "scale": PINNED_M2_TWIN_W["scale"].removesuffix("*exp((1/2)*z2)"),
}
M3_CLOSED = (
    "(z1)^2*(1+(z1)^3*z2)^(-1/3)*exp((-1)*(z1)*z2*(2+1*(z1)^3*z2^1)/(1+(z1)^3*z2)^2)"
    "*exp((-1)*(z1)^1+(-1/2)*(z1)^2)*exp((1/3)*((z1)*(1+(z1)^3*z2))^1)"
)
M3_W = {"scale": M3_CLOSED, "u": "z1", "r": "(z1)*(1+(z1)^3*z2)"}
M3_TWIN_W = {**M3_W, "scale": M3_CLOSED + "*exp((1/2)*z2)"}


def theorem26(w, N):
    code, text = run(["theorem26"], json.dumps({"truncation": N, "backend": "exact", "w": w}))
    return code, json.loads(text)["results"]["decomposition"]


def test_twins_with_a_residual_long_enough_are_not_closed():
    # the residual's claimed order reaches the twin's first nonzero degree
    for w, N in ((M2_CHART_TWIN_W, 8), (M3_TWIN_W, 11), (M3_TWIN_W, 12)):
        code, dec = theorem26(w, N)
        assert (code, dec["residual_zero"]) == (1, False)


def test_pipeline_chart_factor_and_residual_refine():
    for w in (README_W, PINNED_M2_TWIN_W, M3_W):
        N = 8
        runs = []
        for n in (N, N + DELTA):
            di = DifferentialInput.from_strings(w)
            runs.append(analyze_product_form(*di.product_factors(EXACT, n), order=n))
        low, high = runs
        assert_refines(low.chart_factor, high.chart_factor)
        agree_through_low(low.decomposition.residual, high.decomposition.residual)


def leaf_factors(seed, m, n):
    """h and r = z1 * exp(p(z1) + z1^m z2 + z1^(m+1) q) known through degree
    n, so that r presents the leaf {z1 = 0} with contact order m."""
    ctx = EXACT
    z1, z2, _ = gens(ctx)
    rnd = random.Random(1000 + seed)
    p = rand_poly1(ctx, rnd, deg=3)
    q = rand_poly2(ctx, rnd, deg=2, nterms=3)
    mono = Series2.monomial(ctx, m, 0)
    r = z1 * (p - p.constant_term + mono * z2 + mono * z1 * q).exp(n)
    return tail_series(ctx, 1100 + seed, n), r


def test_leaf_chart_refines():
    # the chart on its own, from truncated h and r: every part it returns
    # agrees with the run at N + 8 through the order it claims
    for m in range(4):
        for seed in range(3):
            N = 6 + seed
            low, high = (leaf_chart(*leaf_factors(seed, m, n)) for n in (N, N + DELTA))
            assert low.m == high.m == m
            for name in ("s", "t", "gcorr", "fout"):
                assert_refines(getattr(low, name), getattr(high, name))
            assert_refines(low.chart.comp1, high.chart.comp1)
            assert_refines(low.chart.comp2, high.chart.comp2)


# exact h and r: every quotient of the chart used to stop at DEFAULT_ORDER = 16
EXACT_FACTORS_W = {"scale": "1+z2", "u": "z1", "r": "z1*(1+z1+z1*z2)"}


def test_chart_of_exact_factors_follows_the_truncation():
    # below 16 the claims fall to N as well: nothing past N is computed
    for command in ("theorem26", "normal-form", "analyze"):
        for N in (12, 20, 24):
            _, text = run([command], json.dumps(
                {"truncation": N, "backend": "exact", "w": EXACT_FACTORS_W}))
            results = json.loads(text)["results"]
            nf = results["normal_form"]
            got = (results["chart_factor"]["order"], nf["conformal_factor"]["order"],
                   nf["chart_z2"]["order"])
            assert got == (N, N, N + 1), (command, N)


def test_chart_of_exact_factors_refines():
    for N in (12, 20):
        low, high = (
            analyze_product_form(
                *DifferentialInput.from_strings(EXACT_FACTORS_W).product_factors(EXACT, n),
                order=n, solve=False,
            )
            for n in (N, N + DELTA)
        )
        assert low.chart_factor.order == N
        assert_refines(low.chart_factor, high.chart_factor)
        assert_refines(low.normal_form.fout, high.normal_form.fout)
        assert_refines(low.normal_form.chart.comp2, high.normal_form.chart.comp2)


def test_negative_power_in_the_scale_follows_the_truncation():
    # the power is solved through the job's truncation, so raising N past 16
    # lengthens the chart factor and the residual
    code, text = run(
        ["theorem26"], json.dumps({"truncation": 20, "backend": "exact", "w": PINNED_M2_CLOSED_W})
    )
    results = json.loads(text)["results"]
    assert code == 0
    assert results["chart_factor"]["order"] == 19
    assert results["decomposition"]["residual"]["order"] == 16
    low, high = (
        analyze_product_form(
            *DifferentialInput.from_strings(PINNED_M2_CLOSED_W).product_factors(EXACT, n),
            order=n, solve=False,
        )
        for n in (20, 24)
    )
    assert_refines(low.chart_factor, high.chart_factor)


# the split-sqrt document pinned in data/report_digests.json
SPLIT_SQRT_W = {"a": "1+z1-z2", "b": "z2*exp(-z1)", "c": "-(1+2*z1+z2^2)"}


def split_at(N):
    return split(SymTwoDiff(*DifferentialInput.from_strings(SPLIT_SQRT_W).coefficient_triple(
        EXACT, N)))


def test_split_factors_follow_the_truncation():
    # each quotient (b + delta) / 2a is solved through its numerator's own
    # order, not through DEFAULT_ORDER = 16
    for N in (16, 20, 24):
        orders = {s.order for mu in split_at(N) for s in (mu.A, mu.B)}
        assert orders == {INF, N + 1}, N


def test_split_factors_refine():
    for N in (12, 16, 20):
        for low, high in zip(split_at(N), split_at(N + DELTA)):
            for a, b in ((low.A, high.A), (low.B, high.B)):
                if a.order is INF:
                    assert a.eq_through(b) and b.order is INF
                else:
                    assert a.order == N + 1
                    assert_refines(a, b)
