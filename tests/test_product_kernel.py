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
"""

import random
from fractions import Fraction

import pytest

from symdiff2 import APPROX, EXACT, INF, Series2
from symdiff2.series import _norm_order
from conftest import absolute, assert_within_rounding


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
