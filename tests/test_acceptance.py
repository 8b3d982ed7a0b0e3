"""Acceptance suite: nine oracle- and property-based criteria at desk scale.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); any failure is a hard test failure.  Exact backend unless stated,
truncation <= 16 throughout.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from symdiff2 import APPROX, EXACT, NotSplit, Series2
from symdiff2.cli import run as cli_run
from symdiff2.closedness import (
    brioschi_numerator,
    first_kind_decompose,
    separability_defect,
)
from symdiff2.differentials import (
    OneForm,
    SymTwoDiff,
    discriminant,
    jacobian_det,
    product,
    pullback,
    pullback_cover,
    split,
)
from symdiff2.errors import DegenerateBasePoint, NotSeparable
from symdiff2.expressions import DifferentialInput, eval_text, parse
from symdiff2.local_forms import (
    analyze_product_form,
    compose_singular_decomposition,
    solve_singular_decomposition,
)
from symdiff2.scalars import GaussianRational
from conftest import (
    P_NAMES,
    axis_series,
    rand_coordmap,
    rand_fraction,
    rand_poly1,
    rand_poly2,
    rand_unit2,
)

TOL = 1e-9


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS ({text})")


def test_criterion_1_essential_singularity_oracle():
    t0 = time.time()
    v = eval_text("exp(z2/(1+z1*z2))", 12, EXACT)
    dec = solve_singular_decomposition(v, 1)
    assert dec.k == 0
    assert dec.alpha == GaussianRational(0)
    assert dec.f.eq_through(axis_series(EXACT, {-1: 1}))
    assert dec.g.eq_through(axis_series(EXACT, {-1: -1}, names=P_NAMES))
    assert dec.residual.is_zero() and dec.residual_zero
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"k=0, alpha=0, f=1/z1, g=-1/p, residual 0 in {elapsed * 1000:.0f} ms")


def test_criterion_2_monodromy_oracle():
    # exact alpha = 1/2 recovered exactly; c = -1; finite order 2
    di = DifferentialInput(scale=parse("(1+z2)^(1/2)"), u=parse("z1"), r=parse("z1*(1+z2)"))
    res = analyze_product_form(*di.product_factors(EXACT, 12), order=12)
    dec = res.decomposition
    assert dec.alpha == GaussianRational(Fraction(1, 2))
    mi = res.leaf.monodromy
    assert abs(mi.c - (-1)) <= TOL
    assert mi.order_type == "finite" and mi.order == 2
    # approx alpha = sqrt(2): flagged infinite
    di = DifferentialInput(
        scale=parse(f"(1+z2)^({math.sqrt(2)!r})"), u=parse("z1"), r=parse("z1*(1+z2)")
    )
    res = analyze_product_form(*di.product_factors(APPROX, 12), order=12)
    alpha = complex(res.decomposition.alpha)
    assert abs(alpha - math.sqrt(2)) <= TOL
    assert res.leaf.monodromy.order_type == "infinite"
    _report(2, "alpha=1/2 -> c=-1 order 2; alpha=sqrt2 -> infinite")


def test_criterion_3_meromorphic_oracle():
    w = SymTwoDiff(
        Series2.const(EXACT, 1),
        Series2.variable(EXACT, 0) * Series2.variable(EXACT, 1),
        Series2.zero(EXACT),
    )
    mu1, mu2 = split(w)
    assert product(mu1, mu2).eq_through(w)
    di = DifferentialInput(
        scale=parse("exp(-(z2^2)/2)"), u=parse("z1"), r=parse("z1*exp(z2^2/2)")
    )
    with pytest.raises(DegenerateBasePoint):
        analyze_product_form(*di.product_factors(EXACT, 12, 0), order=12)
    res = analyze_product_form(*di.product_factors(EXACT, 12, Fraction(1)), order=12)
    leaf = res.leaf
    assert leaf.singularity == "meromorphic"
    assert leaf.monodromy.order_type == "trivial"
    assert leaf.in_breakdown is True
    assert leaf.first_kind is False
    _report(3, "meromorphic, trivial monodromy, in breakdown, not first kind")


def test_criterion_4_non_split_oracle():
    w = SymTwoDiff(
        Series2.variable(EXACT, 0), Series2.zero(EXACT), Series2.const(EXACT, -1)
    )
    with pytest.raises(NotSplit) as exc:
        split(w)
    assert exc.value.witness == "z1"
    assert exc.value.multiplicity == 1
    cov = pullback_cover(w, 2)
    mu1, mu2 = split(cov)
    assert product(mu1, mu2).eq_through(cov)
    assert mu1.is_closed() and mu2.is_closed()
    _report(4, "NotSplit witness z1 mult 1; split after z1 <- s^2, factors exact")


def test_criterion_5_first_kind_equivalence_suite():
    rnd = random.Random(101)
    separable = 0
    while separable < 100:
        A = rand_poly1(EXACT, rnd, axis=0)
        B = rand_poly1(EXACT, rnd, axis=1)
        A = A + (1 - A.coefficient(0, 0))
        B = B + (1 - B.coefficient(0, 0))
        g = (A * B).truncated(8)
        num = brioschi_numerator(SymTwoDiff(Series2.zero(EXACT), g, Series2.zero(EXACT)))
        assert num.is_zero()
        f, h = first_kind_decompose(g)  # must not raise
        assert (f * h).eq_through(g)
        separable += 1
    nonseparable = 0
    while nonseparable < 100:
        g = rand_unit2(EXACT, rnd).truncated(8)
        if separability_defect(g).is_zero():
            continue
        num = brioschi_numerator(SymTwoDiff(Series2.zero(EXACT), g, Series2.zero(EXACT)))
        assert not num.is_zero()
        with pytest.raises(NotSeparable):
            first_kind_decompose(g)
        nonseparable += 1
    _report(5, "100 separable accepted, 100 non-separable rejected, 0 false verdicts")


def _roundtrip_case(ctx, rnd, m, order, exact):
    k = rnd.randint(0, 2)
    if exact:
        alpha = GaussianRational(
            rand_fraction(rnd), rand_fraction(rnd) if rnd.random() < 0.2 else 0
        )
    else:
        alpha = complex(rnd.choice([math.sqrt(2), math.pi / 3, math.e / 7]))
    fpole = {i: rand_fraction(rnd) for i in range(-m, 0)}
    ftail = {i: rand_fraction(rnd) for i in rnd.sample(range(1, order - 3), 2)}
    gtail = {i: rand_fraction(rnd) for i in rnd.sample(range(1, order - 3), 2)}
    mk = (lambda q: GaussianRational(q)) if exact else (lambda q: complex(float(q)))
    f = axis_series(ctx, {i: mk(c) for i, c in {**fpole, **ftail}.items()}, order=order)
    g = axis_series(
        ctx,
        {i: mk(c) for i, c in {**{i: -c for i, c in fpole.items()}, **gtail}.items()},
        order=order,
        names=P_NAMES,
    )
    v = compose_singular_decomposition(ctx, k, alpha, f, g, m, order)
    dec = solve_singular_decomposition(v, m)
    assert dec.k == k
    if exact:
        assert dec.alpha == alpha
    else:
        assert abs(complex(dec.alpha) - alpha) <= TOL
    assert dec.residual_zero
    assert dec.f.eq_through(f.truncated(dec.f.order))
    assert dec.g.eq_through(g.truncated(dec.g.order))
    assert dec.f.pole <= m and dec.g.pole <= m
    assert all(i >= -m for i, _ in dec.f.coeffs) and all(i >= -m for i, _ in dec.g.coeffs)


def test_criterion_6_decomposition_roundtrip_suite():
    rnd = random.Random(202)
    count = 0
    for m in (0, 1, 2, 3):
        for _ in range(40):
            _roundtrip_case(EXACT, rnd, m, 10, exact=True)
            count += 1
    for m in (0, 1, 2, 3):
        for _ in range(10):
            _roundtrip_case(APPROX, rnd, m, 10, exact=False)
            count += 1
    assert count == 200
    _report(6, "200 roundtrips (m in 0..3) recovered, pole orders <= m, 0 failures")


def test_criterion_7_curvature_structural_identity():
    rnd = random.Random(303)
    zero = Series2.zero(EXACT)
    for _ in range(100):
        g = rand_unit2(EXACT, rnd).truncated(8)
        num = brioschi_numerator(SymTwoDiff(zero, g, zero))
        expect = (g * separability_defect(g)).scale(Fraction(-1, 8))
        assert num.eq_through(expect)
    for _ in range(100):
        F = rand_poly2(EXACT, rnd).truncated(8)
        G = rand_poly2(EXACT, rnd).truncated(8)
        w = product(OneForm(F.derive(0), F.derive(1)), OneForm(G.derive(0), G.derive(1)))
        assert brioschi_numerator(w).is_zero()
    _report(7, "100 chart-form identities, 100 exact-pair products vanish")


def test_criterion_8_discriminant_functoriality():
    rnd = random.Random(404)
    for _ in range(50):
        w = SymTwoDiff(
            rand_poly2(EXACT, rnd, deg=2, nterms=3).truncated(8),
            rand_poly2(EXACT, rnd, deg=2, nterms=3).truncated(8),
            rand_poly2(EXACT, rnd, deg=2, nterms=3).truncated(8),
        )
        phi = rand_coordmap(EXACT, rnd, order=8)
        det = jacobian_det(phi)
        lhs = discriminant(pullback(w, phi))
        rhs = det * det * discriminant(w).substitute(phi.comp1, phi.comp2)
        assert lhs.eq_through(rhs)
    _report(8, "disc(pullback) = (det J)^2 * disc o phi on 50 random pairs")


def test_criterion_9_cli_determinism():
    jobs = [
        ("theorem26", {"truncation": 12, "backend": "exact",
                       "w": {"scale": "exp(z2/(1+z1*z2))", "u": "z1",
                             "r": "z1*(1+z1*z2)"}}),
        ("theorem26", {"truncation": 12, "backend": "exact",
                       "w": {"scale": "(1+z2)^(1/2)", "u": "z1", "r": "z1*(1+z2)"}}),
        ("theorem26", {"truncation": 12, "backend": "exact",
                       "w": {"scale": "exp(-(z2^2)/2)", "u": "z1",
                             "r": "z1*exp(z2^2/2)"}, "base_shift": "1"}),
        ("split", {"truncation": 12, "backend": "exact",
                   "w": {"a": "z1", "b": "0", "c": "-1"}}),
    ]
    for cmd, job in jobs:
        payload = json.dumps(job)
        outputs = [cli_run([cmd], payload) for _ in range(3)]
        assert len({text for _, text in outputs}) == 1
        assert len({code for code, _ in outputs}) == 1
    _report(9, "byte-identical reports across 3 runs of the oracle inputs")
