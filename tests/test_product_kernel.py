"""Oracle for the kernel behind series products.

``ref_mul`` below is the pair loop that every product ran before the kernel:
one scalar product and sum per pair of terms, pairs beyond the truncation
skipped.  On seeded random exact tables every product must reproduce its
coefficients, its key set (a coefficient that cancels to zero is absent) and
its guaranteed order: a product of two tables of two terms or more runs the
kernel, and a product with a one-term or zero operand shifts the keys of the
other operand.  On the same tables rounded to floats, the kernel and the pair
loop must both give the exact product to within a rounding bound scaled to
the absolute values of each coefficient's summands.  Subtraction is one pass
over both tables and must equal ``a + (-b)``: exactly on the exact backend,
bit for bit on the approx backend.

At the kernel's exact boundary, ``ref_table`` and ``ref_sum`` are the code
that tabling and the outputs ran before they cost what the integers cost:
an lcm taken per coefficient, and one ``GaussianRational(Fraction(n, M),
...)`` per output with the target's terms beyond the order left for
``Series2`` to drop.  ``_table`` and ``_sum`` must give the same tables and
the same outputs, key order included.  Every exact result of ``__mul__``,
``products_sum`` and ``substitute`` is taken without a second pass, so it
must already be what ``Series2`` would make of it: no zero, no key beyond
its order, each part an int when integral and otherwise a Fraction in
lowest terms.
"""

import math
import random
from fractions import Fraction

import pytest

from symdiff2 import APPROX, EXACT, INF, Series2
from symdiff2.scalars import GaussianRational
from symdiff2.series import _norm_order, _sum, _table, products_sum
from conftest import absolute, assert_exact_parts, assert_within_rounding, rand_coordmap


def ref_mul(a, b):
    """(coefficient table, order) of a * b by the pair loop."""
    if a.order is INF and b.order is INF:
        order = INF
    else:
        order = _norm_order(min(a.order + b.valuation, b.order + a.valuation))
    out = {}
    finite = order is not INF
    bitems = list(b.coeffs.items())
    for (i1, j1), c1 in a.coeffs.items():
        d1 = i1 + j1
        for (i2, j2), c2 in bitems:
            if finite and d1 + i2 + j2 > order:
                continue
            k = (i1 + i2, j1 + j2)
            p = c1 * c2
            if k in out:
                out[k] = out[k] + p
            else:
                out[k] = p
    return Series2(a.ctx, out, order, a.names).coeffs, order


def rand_part(rnd, integer):
    den = 1 if integer else rnd.choice((1, 2, 3, 4, 6, 9, 10, 12, 35))
    return Fraction(rnd.randint(-20, 20), den)


def rand_table(rnd, nterms, *, complex_ok, integer, laurent, truncated):
    """A random exact series of up to ``nterms`` terms."""
    lo = -3 if laurent else 0
    terms = {}
    while len(terms) < nterms:
        i, j = rnd.randint(lo, 6), rnd.randint(0, 6)
        re = rand_part(rnd, integer)
        im = rand_part(rnd, integer) if complex_ok and rnd.random() < 0.5 else 0
        if re or im:
            terms[(i, j)] = EXACT.from_rational(re, im)
    order = rnd.randint(lo + 2, 9) if truncated else INF
    return Series2(EXACT, terms, order)


def assert_same_product(a, b):
    coeffs, order = ref_mul(a, b)
    got = a * b
    assert got.order == order
    assert list(got.coeffs) == list(coeffs)
    assert got.coeffs == coeffs


@pytest.mark.parametrize("seed", range(8))
def test_kernel_matches_the_pair_loop(seed):
    rnd = random.Random(seed)
    for _ in range(60):
        shape = dict(
            complex_ok=rnd.random() < 0.5,
            integer=rnd.random() < 0.3,
            laurent=rnd.random() < 0.3,
            truncated=rnd.random() < 0.5,
        )
        a = rand_table(rnd, rnd.randint(3, 40), **shape)
        b = rand_table(rnd, rnd.randint(3, 40), **{**shape, "truncated": rnd.random() < 0.5})
        assert_same_product(a, b)
        assert_same_product(b, a)


@pytest.mark.parametrize("complex_ok", [False, True])
def test_kernel_drops_the_coefficients_that_cancel(complex_ok):
    # (u + v)(u - v) = u^2 - v^2 and (u + i v)(u - i v) = u^2 + v^2: every
    # cross term cancels
    rnd = random.Random(7)
    unit = EXACT.from_rational(0, 1) if complex_ok else EXACT.one
    for _ in range(40):
        u = rand_table(rnd, rnd.randint(3, 12), complex_ok=False, integer=False,
                       laurent=True, truncated=False)
        v = rand_table(rnd, rnd.randint(3, 12), complex_ok=False, integer=False,
                       laurent=True, truncated=False)
        a, b = u + v.scale(unit), u - v.scale(unit)
        assert_same_product(a, b)
        pairs = {(i1 + i2, j1 + j2) for i1, j1 in a.coeffs for i2, j2 in b.coeffs}
        assert set((a * b).coeffs) < pairs


def test_kernel_boundary_operands():
    # two-term operands take the kernel, one-term and zero operands a key shift
    rnd = random.Random(3)
    for n in (0, 1, 2, 3):
        for _ in range(20):
            a = rand_table(rnd, n, complex_ok=True, integer=False, laurent=True,
                           truncated=rnd.random() < 0.5)
            b = rand_table(rnd, rnd.randint(1, 20), complex_ok=True, integer=False,
                           laurent=True, truncated=rnd.random() < 0.5)
            assert_same_product(a, b)
            assert_same_product(b, a)
    # 3*z1*z2 known through degree 3 claims 3 + val(b) = 3, which cuts the
    # shift of b's terms of degree 2 and more; a zero operand leaves no key
    b = Series2(EXACT, {(0, 0): EXACT.one, (1, 0): EXACT.from_rational(1, 2),
                        (0, 2): EXACT.from_rational(0, 1), (-1, 3): EXACT.one}, INF)
    one = Series2(EXACT, {(1, 1): EXACT.from_int(3)}, 3)
    assert set((one * b).coeffs) == set((b * one).coeffs) == {(1, 1), (2, 1)}
    for a in (one, Series2.zero(EXACT), Series2.zero(EXACT, 4)):
        assert_same_product(a, b)
        assert_same_product(b, a)


@pytest.mark.parametrize("seed", range(4))
def test_approx_products_are_the_exact_product_within_rounding(seed):
    # two-term operands and more take the kernel, a one-term operand a key
    # shift; ref_mul runs the pair loop on every shape
    rnd = random.Random(50 + seed)
    for _ in range(40):
        shape = dict(complex_ok=rnd.random() < 0.5, integer=False, laurent=rnd.random() < 0.3)
        a = rand_table(rnd, rnd.randint(1, 30), **shape, truncated=rnd.random() < 0.5)
        b = rand_table(rnd, rnd.randint(1, 30), **shape, truncated=rnd.random() < 0.5)
        want = Series2(EXACT, *ref_mul(a, b))
        mag = Series2(APPROX, *ref_mul(absolute(a), absolute(b)))
        n = min(len(a.coeffs), len(b.coeffs))
        ax, bx = a.as_backend(APPROX), b.as_backend(APPROX)
        assert_within_rounding(ax * bx, want, mag, n)
        assert_within_rounding(Series2(APPROX, *ref_mul(ax, bx)), want, mag, n)


def ref_sub(a, b):
    """a - b as it was defined before: a + (-b)."""
    if not isinstance(b, Series2):
        b = Series2.const(a.ctx, b, names=a.names)
    return a + (-b)


def _bits(s):
    return s.order, [(k, complex(c).real.hex(), complex(c).imag.hex())
                     for k, c in s.coeffs.items()]


@pytest.mark.parametrize("seed", range(4))
def test_subtraction_is_addition_of_the_negative(seed):
    rnd = random.Random(seed)
    for _ in range(40):
        a = rand_table(rnd, rnd.randint(1, 30), complex_ok=True, integer=False,
                       laurent=True, truncated=rnd.random() < 0.5)
        b = rand_table(rnd, rnd.randint(1, 30), complex_ok=True, integer=False,
                       laurent=True, truncated=rnd.random() < 0.5)
        b = b + a.truncated(3)  # shared keys, some of which cancel
        for x, y in ((a, b), (b, a), (a, a)):
            want = ref_sub(x, y)
            got = x - y
            assert got.order == want.order
            assert list(got.coeffs.items()) == list(want.coeffs.items())
            assert list((x - 5).coeffs.items()) == list(ref_sub(x, 5).coeffs.items())
            ax, ay = x.as_backend(APPROX), y.as_backend(APPROX)
            # a complex factor gives some coefficients a -0.0 part
            ax = ax * Series2.const(APPROX, complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1)))
            assert _bits(ax - ay) == _bits(ref_sub(ax, ay))
            assert _bits(ax - 0.1) == _bits(ref_sub(ax, 0.1))


def ref_table(coeffs, deg=None):
    """The exact ``_table`` with one lcm and one quotient per coefficient."""
    D = 1
    for c in coeffs.values():
        D = math.lcm(D, c.re.denominator, c.im.denominator)
    rows = []
    for k, c in coeffs.items():
        i, j = k if deg is None else (k, deg - k)
        rows.append((i, j, i + j, c.re.numerator * (D // c.re.denominator),
                     c.im.numerator * (D // c.im.denominator)))
    return D, rows, not any(t[4] for t in rows)


def ref_sum(terms, order, target=None, den=1, inv=None):
    """The exact ``_sum`` by one complex pair loop over the same tables, with
    one ``GaussianRational(Fraction(n, M), ...)`` per output, followed by the
    drop of the keys beyond ``order`` that ``Series2`` made."""
    L = 1
    for _, _, a, b in terms:
        L = math.lcm(L, a[0] * b[0])
    M = L * den
    acc = {}
    if target is not None:
        M = math.lcm(target[0], M)
        for i, j, _, r, m in target[1]:
            acc[(i, j)] = (r * (M // target[0]), m * (M // target[0]))
    for wr, wi, (Da, ta, _), (Db, tb, _) in terms:
        f = M // (den * Da * Db)
        for i1, j1, d1, r1, m1 in ta:
            for i2, j2, d2, r2, m2 in tb:
                if d1 + d2 <= order:
                    x, y = acc.get((i1 + i2, j1 + j2), (0, 0))
                    pr, pm = r1 * r2 - m1 * m2, r1 * m2 + m1 * r2
                    acc[(i1 + i2, j1 + j2)] = (x + f * (wr * pr - wi * pm),
                                               y + f * (wr * pm + wi * pr))
    if inv is not None:
        Dl, ((*_, lr, li),), _ = inv
        M *= Dl
    zero = Fraction(0)
    out = {}
    for k, (n, m) in acc.items():
        if inv is not None:
            n, m = n * lr - m * li, n * li + m * lr
        if n or m:
            out[k] = GaussianRational(Fraction(n, M), Fraction(m, M) if m else zero)
    return {k: c for k, c in out.items() if k[0] + k[1] <= order}


def assert_clean(s):
    """``s`` is what Series2 makes of its own table: the same keys in the
    same order, no zero, no key beyond the order, every part an int when
    integral and otherwise a Fraction in lowest terms."""
    rebuilt = Series2(s.ctx, dict(s.coeffs), s.order, s.names)
    assert list(rebuilt.coeffs.items()) == list(s.coeffs.items())
    for (i, j), c in s.coeffs.items():
        assert c and j >= 0 and (s.order is INF or i + j <= s.order)
        assert_exact_parts(c)


def rand_form(rnd, deg, nterms, *, complex_ok, integer):
    """A random exact form of degree ``deg`` as {z1-exponent: c}."""
    out = {}
    for _ in range(nterms):
        re = rand_part(rnd, integer)
        im = rand_part(rnd, integer) if complex_ok and rnd.random() < 0.5 else 0
        if re or im:
            out[rnd.randint(0, deg)] = EXACT.from_rational(re, im)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_boundary_matches_the_retired_boundary(seed):
    # D = 1 and D > 1, real and complex, forms and series, with and without
    # inv and a target, over a finite order or none
    rnd = random.Random(100 + seed)
    for _ in range(40):
        shape = dict(complex_ok=rnd.random() < 0.5, integer=rnd.random() < 0.4)
        if rnd.random() < 0.5:
            e = rnd.randint(1, 8)
            coeffs = [rand_form(rnd, e, rnd.randint(1, 8), **shape) for _ in range(3)]
            tables = [_table(EXACT, c, e) for c in coeffs]
            assert tables == [ref_table(c, e) for c in coeffs]
            order = 2 * e
        else:
            coeffs = [rand_table(rnd, rnd.randint(1, 20), laurent=False, truncated=False,
                                 **shape).coeffs for _ in range(3)]
            tables = [_table(EXACT, c) for c in coeffs]
            assert tables == [ref_table(c) for c in coeffs]
            order = rnd.choice((INF, rnd.randint(0, 8)))
        a, b, t = tables
        terms = [(rnd.randint(-3, 3), rnd.choice((0, 0, 1, -2)), a, b),
                 (rnd.randint(1, 3), 0, b, b)]
        target = t if rnd.random() < 0.5 else None
        den = rnd.choice((1, 1, 2, 6))
        inv = None
        if rnd.random() < 0.5:
            inv = _table(EXACT, {0: EXACT.from_rational(rand_part(rnd, False) or 1,
                                                        rand_part(rnd, False))}, 0)
        got = _sum(EXACT, terms, order, target, den, inv)
        want = ref_sum(terms, order, target, den, inv)
        assert list(got.items()) == list(want.items())
        for c in got.values():
            assert_exact_parts(c)


def test_exact_kernel_output_over_a_common_denominator_is_int():
    # M = 2 divides every output of (z1/2 + z2/2) * (2*z1 + 2*z2)
    half, two = EXACT.from_rational(Fraction(1, 2)), EXACT.from_int(2)
    a = Series2.from_terms(EXACT, {(1, 0): half, (0, 1): half})
    b = Series2.from_terms(EXACT, {(1, 0): two, (0, 1): two})
    assert _table(EXACT, a.coeffs)[0] == 2
    p = a * b
    assert p.coeffs == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    for c in p.coeffs.values():
        assert type(c.re) is int and type(c.im) is int
    assert_clean(p)


@pytest.mark.parametrize("seed", range(4))
def test_exact_kernel_outputs_are_clean(seed):
    rnd = random.Random(200 + seed)
    for _ in range(30):
        shape = dict(complex_ok=rnd.random() < 0.5, integer=rnd.random() < 0.4,
                     laurent=rnd.random() < 0.3)
        a = rand_table(rnd, rnd.randint(2, 30), truncated=rnd.random() < 0.5, **shape)
        b = rand_table(rnd, rnd.randint(2, 30), truncated=rnd.random() < 0.5, **shape)
        start = rand_table(rnd, rnd.randint(0, 30), truncated=rnd.random() < 0.5, **shape)
        assert_clean(a * b)
        assert_clean(products_sum([(Fraction(1, 2), a, b), (-1, b, b)], start))
        assert_clean(products_sum([(1, a, b), (-1, b, a)], start))  # the products cancel
        outer = rand_table(rnd, rnd.randint(1, 20), truncated=rnd.random() < 0.5,
                           **{**shape, "laurent": False})
        phi = rand_coordmap(EXACT, rnd, order=rnd.choice((4, 8, INF)))
        assert_clean(outer.substitute(phi.comp1, phi.comp2, rnd.choice((None, 5))))


def test_products_sum_drops_the_start_beyond_its_claim():
    # a is known through degree 4, so a*b claims 4; start's z1^5 is dropped
    # and its z1*z2 cancels against the product's
    third = EXACT.from_rational(Fraction(1, 3))
    a = Series2(EXACT, {(0, 0): EXACT.one, (1, 0): third}, 4)
    b = Series2(EXACT, {(0, 0): EXACT.one, (0, 1): EXACT.from_int(2)}, INF)
    start = Series2(EXACT, {(5, 0): EXACT.from_int(7), (1, 1): -2 * third,
                            (0, 0): EXACT.one}, INF)
    s = products_sum([(1, a, b)], start)
    assert s.order == 4
    assert list(s.coeffs) == [(0, 0), (0, 1), (1, 0)]
    assert s.coeffs[(0, 0)] == EXACT.from_int(2)
    assert_clean(s)


def test_approx_kernel_outputs_refuse_overflow():
    big = Series2(APPROX, {(0, 0): 1e200, (1, 0): 1e200, (0, 1): 3.0}, INF)
    with pytest.raises(ValueError):
        big * big
    with pytest.raises(ValueError):
        products_sum([(1, big, big)])
    inner = Series2(APPROX, {(1, 0): 1e200, (0, 1): 1.0}, 6)
    with pytest.raises(ValueError):
        (big * Series2.variable(APPROX, 0)).substitute(inner, Series2.variable(APPROX, 1, 6))
