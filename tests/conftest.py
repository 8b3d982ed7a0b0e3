"""Shared generators for the randomized property suites.

All randomness is seeded per test, so failures reproduce deterministically.
"""

import random
from fractions import Fraction

import pytest

from symdiff2 import APPROX, EXACT, INF, CoordMap, Series2

P_NAMES = ("p", "z2")  # variables of the Laurent datum g(p)


def rand_fraction(rnd: random.Random, small: int = 3) -> Fraction:
    return Fraction(rnd.randint(-small, small), rnd.randint(1, small))


def rand_nonzero_fraction(rnd: random.Random, small: int = 3) -> Fraction:
    while True:
        q = rand_fraction(rnd, small)
        if q:
            return q


def rand_scalar(ctx, rnd: random.Random, complex_ok: bool = True):
    re = rand_fraction(rnd)
    im = rand_fraction(rnd) if complex_ok and rnd.random() < 0.25 else 0
    return ctx.from_rational(re, im)


def rand_poly2(ctx, rnd: random.Random, deg: int = 4, nterms: int = 5, names=("z1", "z2"),
               small: int = 3):
    """Sparse random exact polynomial (order = inf)."""
    terms = {}
    for _ in range(nterms):
        i = rnd.randint(0, deg)
        j = rnd.randint(0, deg - i)
        terms[(i, j)] = ctx.from_rational(rand_fraction(rnd, small))
    return Series2.from_terms(ctx, terms, names=names)


def rand_unit2(ctx, rnd: random.Random, deg: int = 4, nterms: int = 5, constant=1,
               names=("z1", "z2"), small: int = 3):
    """Random polynomial unit; constant term defaults to 1 (exact-friendly).

    Approx-backend property tests should pass small=1 so that roundoff in
    high powers stays below the comparison tolerance.
    """
    s = rand_poly2(ctx, rnd, deg, nterms, names, small)
    shift = ctx.from_rational(Fraction(constant)) - s.constant_term
    return s + Series2.const(ctx, shift, names=names)


def tame(ctx) -> int:
    """Coefficient size bound keeping approx roundoff under the tolerance."""
    return 1 if ctx.name == "approx" else 3


def axis_series(ctx, terms: dict, axis: int = 0, order=INF, names=("z1", "z2")):
    """A one-variable series ``{exponent: value}`` as a Series2 on one axis."""
    key = (lambda e: (e, 0)) if axis == 0 else (lambda e: (0, e))
    return Series2.from_terms(ctx, {key(e): v for e, v in terms.items()}, order, names)


def assert_refines(low, high):
    """Raising the truncation keeps every coefficient ``low`` guarantees."""
    assert low.order is not INF and low.order <= high.order
    assert low.coeffs, "nothing guaranteed: the comparison would be vacuous"
    assert low.eq_through(high)


UNIT_ROUNDOFF = 2.0 ** -53


def rounding_bound(mag: float, n: int) -> float:
    """4 * (n + 3) unit roundoffs of ``mag``: the error of a sum of n or fewer
    products whose absolute values sum to ``mag``, with slack for complex
    products, for rounding the rational inputs and for the final quotient."""
    return 4 * (n + 3) * UNIT_ROUNDOFF * mag


def absolute(s: Series2) -> Series2:
    """The approx series of the absolute values of s's coefficients."""
    return Series2(APPROX, {k: abs(complex(c)) for k, c in s.coeffs.items()}, s.order, s.names)


def assert_within_rounding(got: Series2, want: Series2, mag: Series2, n: int):
    """The approx ``got`` is the exact ``want`` computed in floats: the same
    order, the keys of every exact value above the tolerance, and each
    coefficient within ``rounding_bound`` of its majorant ``mag`` (the sum of
    the absolute values of its n or fewer summands)."""
    assert got.ctx.name == "approx" and want.ctx.name == "exact"
    assert got.order == want.order
    assert got.names == want.names
    tol = got.ctx.tol
    assert set(got.coeffs) == {k for k, c in want.coeffs.items() if abs(complex(c)) > tol}
    for k, c in got.coeffs.items():
        err = abs(c - complex(want.coefficient(*k)))
        assert err <= rounding_bound(abs(mag.coefficient(*k)), n), (k, c, want.coefficient(*k))


def rand_poly1(ctx, rnd: random.Random, deg: int = 4, nterms: int = 3, axis: int = 0):
    terms = {rnd.randint(0, deg): ctx.from_rational(rand_fraction(rnd)) for _ in range(nterms)}
    return axis_series(ctx, terms, axis)


def rand_coordmap(ctx, rnd: random.Random, order: int = 8, names=("z1", "z2")) -> CoordMap:
    """Random invertible polynomial coordinate map with terms through degree 3.

    The linear part is kept close to the identity so jet inversion stays
    well conditioned on the approx backend.
    """
    small = tame(ctx)
    while True:
        a11 = 1 + rand_fraction(rnd, small) / 4
        a22 = 1 + rand_fraction(rnd, small) / 4
        a12 = rand_fraction(rnd, small) / 4
        a21 = rand_fraction(rnd, small) / 4
        if a11 * a22 - a12 * a21:
            break
    comps = []
    for lin in ((a11, a12), (a21, a22)):
        terms = {(1, 0): ctx.from_rational(lin[0]), (0, 1): ctx.from_rational(lin[1])}
        for _ in range(rnd.randint(0, 3)):
            i = rnd.randint(0, 3)
            j = rnd.randint(0, 3 - i)
            if i + j >= 2:
                terms[(i, j)] = ctx.from_rational(rand_fraction(rnd, small))
        comps.append(Series2.from_terms(ctx, terms, order=order, names=names))
    return CoordMap(comps[0], comps[1])


@pytest.fixture(params=["exact", "approx"])
def ctx(request):
    return EXACT if request.param == "exact" else APPROX


@pytest.fixture
def exact_ctx():
    return EXACT


@pytest.fixture
def approx_ctx():
    return APPROX
