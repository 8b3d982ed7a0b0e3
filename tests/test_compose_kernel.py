"""Oracle for composition, ``Series2.substitute``.

``ref_substitute`` below is the two-level Horner scheme that composition ran
before it became a sum of products in the kernel: Horner's rule in inner1
over rows that are themselves Horner sums in inner2, each step truncated at
the claim.  On seeded random exact inputs the sum of inner1^i times each
z1-row (the sum of c_ij * inner2^j) over cached powers of the inner series
must reproduce its coefficients, its key set and its claimed order,
over outer series that are polynomial, truncated, gapped between z1-rows,
zero or constant, and inner maps that are the identity, ``inner2 = z2``,
one-term, dense or zero, with inner orders above and below the requested
order.  Many of these claims lie below the requested order, so a sum that
claimed it whatever the inner orders would fail.  On the approx backend the
two agree within the backend's tolerance.
"""

import random

import pytest

from symdiff2 import APPROX, EXACT, INF, CoordMap, Series2, ValuationError
from conftest import rand_fraction


def ref_substitute(s, inner1, inner2, order=None):
    """s(inner1, inner2) by Horner in inner1 over Horner rows in inner2."""
    ctx = s.ctx
    P = s.pole
    if P:
        u = inner1.div_monomial(1, 0)
        lifted = ref_substitute(s.div_monomial(-P, 0), inner1, inner2, order)
        q = lifted.divide(u._int_pow(P, order), lifted._resolve_order(order))
        return q.div_monomial(P, 0)
    top = min(INF if order is None else order, s.order)
    names = inner1.names
    powers2 = [Series2.const(ctx, ctx.one, top, names)]

    def pow2(n):
        while len(powers2) <= n:
            powers2.append((powers2[-1] * inner2).truncated(top))
        return powers2[n]

    def eval_row(jmap):
        js = sorted(jmap, reverse=True)
        acc = Series2.const(ctx, jmap[js[0]], top, names)
        for hi, lo in zip(js, js[1:]):
            acc = (acc * pow2(hi - lo)).truncated(top) + jmap[lo]
        return (acc * pow2(js[-1])).truncated(top) if js[-1] else acc

    rows = {}
    for (i, j), c in s.coeffs.items():
        rows.setdefault(i, {})[j] = c
    if not rows:
        return Series2.zero(ctx, top, names)
    exps = sorted(rows, reverse=True)
    acc = eval_row(rows[exps[0]])
    for hi, lo in zip(exps, exps[1:]):
        for _ in range(hi - lo):
            acc = (acc * inner1).truncated(top)
        acc = acc + eval_row(rows[lo])
    for _ in range(exps[-1]):
        acc = (acc * inner1).truncated(top)
    return acc


def rand_scalar(ctx, rnd, small):
    im = rand_fraction(rnd, small) if rnd.random() < 0.3 else 0
    return ctx.from_rational(rand_fraction(rnd, small), im)


def rand_series(ctx, rnd, nterms, lo_degree, deg, order, small, rows=None):
    """Up to ``nterms`` terms of total degree lo_degree..deg, z1-exponents
    drawn from ``rows`` when given."""
    terms = {}
    for _ in range(nterms):
        i = rnd.choice(rows) if rows else rnd.randint(0, deg)
        d = rnd.randint(max(lo_degree, i), max(deg, i))
        terms[(i, d - i)] = rand_scalar(ctx, rnd, small)
    return Series2(ctx, terms, order)


def rand_order(rnd):
    return INF if rnd.random() < 0.3 else rnd.randint(0, 10)


def rand_outer(ctx, rnd, small):
    kind = rnd.choice(("polynomial", "truncated", "gapped", "zero", "constant"))
    order = INF if kind == "polynomial" else rand_order(rnd)
    if kind == "zero":
        return Series2.zero(ctx, order)
    if kind == "constant":
        return Series2.const(ctx, rand_scalar(ctx, rnd, small), order)
    rows = rnd.sample(range(7), 3) if kind == "gapped" else None
    return rand_series(ctx, rnd, rnd.randint(1, 14), 0, 7, order, small, rows)


def rand_inner(ctx, rnd, small):
    """An inner map fixing the origin, of one of the shapes compositions meet."""
    z1, z2 = Series2.variable(ctx, 0), Series2.variable(ctx, 1)
    kind = rnd.choice(("identity", "inner2 = z2", "one-term", "dense", "zero"))
    o1, o2 = rand_order(rnd), rand_order(rnd)
    if kind == "identity":
        return z1.truncated(o1), z2.truncated(o2)
    if kind == "zero":
        inner1 = rand_series(ctx, rnd, rnd.randint(1, 6), 1, 5, o1, small)
        zero = Series2.zero(ctx, o2)
        return (zero, inner1) if rnd.random() < 0.5 else (inner1, zero)
    if kind == "one-term":
        return tuple(rand_series(ctx, rnd, 1, 1, 3, o, small) for o in (o1, o2))
    inner1 = rand_series(ctx, rnd, rnd.randint(2, 12), 1, 6, o1, small)
    if kind == "inner2 = z2":
        return inner1, z2.truncated(o2)
    return inner1, rand_series(ctx, rnd, rnd.randint(2, 12), 1, 6, o2, small)


@pytest.mark.parametrize("seed", range(6))
def test_one_sum_matches_nested_horner(seed):
    rnd = random.Random(seed)
    below = 0
    for _ in range(100):
        s = rand_outer(EXACT, rnd, 3)
        inner1, inner2 = rand_inner(EXACT, rnd, 3)
        order = None if rnd.random() < 0.3 else rnd.randint(0, 10)
        want = ref_substitute(s, inner1, inner2, order)
        got = s.substitute(inner1, inner2, order)
        assert got.order == want.order, (s, inner1, inner2, order)
        assert got.coeffs.keys() == want.coeffs.keys()
        assert got.coeffs == want.coeffs
        below += want.order < min(INF if order is None else order, s.order)
    assert below >= 10  # the inner orders cut the claim


@pytest.mark.parametrize("seed", range(3))
def test_laurent_path_matches_nested_horner(seed):
    rnd = random.Random(100 + seed)
    for _ in range(20):
        terms = {(-rnd.randint(1, 3), 0): EXACT.one}
        s = Series2(EXACT, terms, rand_order(rnd)) + rand_outer(EXACT, rnd, 3)
        unit = Series2.const(EXACT, EXACT.one) + rand_series(EXACT, rnd, 4, 1, 4, INF, 3)
        inner1 = (Series2.variable(EXACT, 0) * unit).truncated(rnd.randint(4, 12))
        inner2 = rand_inner(EXACT, rnd, 3)[1]
        order = rnd.randint(2, 10)
        want = ref_substitute(s, inner1, inner2, order)
        got = s.substitute(inner1, inner2, order)
        assert got.order == want.order
        assert got.coeffs == want.coeffs


@pytest.mark.parametrize("seed", range(3))
def test_approx_agrees_with_nested_horner(seed):
    rnd = random.Random(200 + seed)
    for _ in range(60):
        s = rand_outer(APPROX, rnd, 1)
        inner1, inner2 = rand_inner(APPROX, rnd, 1)
        order = None if rnd.random() < 0.3 else rnd.randint(0, 10)
        want = ref_substitute(s, inner1, inner2, order)
        got = s.substitute(inner1, inner2, order)
        assert got.order == want.order
        for k in got.coeffs.keys() | want.coeffs.keys():
            assert APPROX.eq(got.coefficient(*k), want.coefficient(*k)), k


@pytest.mark.parametrize("ctx", [EXACT, APPROX], ids=["exact", "approx"])
def test_an_inner_series_with_a_pole_is_refused(ctx):
    # exp(z1) at z1^-1 has a coefficient at every z1^-n; no truncation holds it
    z1, z2 = Series2.variable(ctx, 0), Series2.variable(ctx, 1)
    outer = z1.exp(4)
    inv = Series2.monomial(ctx, -1, 0)
    for inner1, inner2 in ((inv, z2), (z1, Series2.monomial(ctx, -1, 1))):
        with pytest.raises(ValuationError):
            outer.substitute(inner1, inner2)
        with pytest.raises(ValuationError):
            CoordMap(z1, z2).compose(CoordMap(inner1, inner2))
