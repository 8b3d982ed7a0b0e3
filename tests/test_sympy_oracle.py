"""An independent oracle for the series engine: sympy's univariate expansion.

The degree-d part of the series of f(z1, z2) is the coefficient of t^d in
f(t*x, t*y), so sympy's ``series`` in the one variable t, expanded through
t^N, gives every coefficient of total degree up to N without any of this
package's code.  On the exact backend ``eval_text`` must claim the order N
and give exactly those coefficients, with no other keys; on the approx
backend it must give the same keys and each coefficient to within a small
relative error.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
import sympy

from symdiff2 import APPROX, EXACT
from symdiff2.expressions import eval_text

N = 8
CASES = [
    "exp(z2/(1+z1*z2))",
    "log(1+z1+z2^2)*(1+z1)^(1/3)",
    "(1+z1-z2)^(-2)*exp(z1)",
    "(1+z1*z2)^(2/3)/(1-z2)",
    "exp(z1-2*z2)*log(1-z1*z2/3)/(1+z1)^(1/2)",
]
REL = 1e-12


@lru_cache(maxsize=None)
def sympy_parts(text):
    """{(i, j): Fraction} for every nonzero coefficient of degree <= N."""
    t, x, y = sympy.symbols("t x y")
    f = sympy.parse_expr(text.replace("^", "**"), local_dict={"z1": t * x, "z2": t * y})
    expansion = sympy.expand(sympy.series(f, t, 0, N + 1).removeO())
    out = {}
    for (d, i, j), c in sympy.Poly(expansion, t, x, y).terms():
        assert d == i + j
        out[(i, j)] = Fraction(int(c.p), int(c.q))
    return out


@pytest.mark.parametrize("text", CASES)
def test_exact_coefficients_are_sympys(text):
    want = sympy_parts(text)
    got = eval_text(text, N, EXACT)
    assert got.order == N
    assert got.coeffs == {k: EXACT.from_rational(c) for k, c in want.items()}


@pytest.mark.parametrize("text", CASES)
def test_approx_coefficients_are_sympys_within_a_relative_bound(text):
    want = sympy_parts(text)
    got = eval_text(text, N, APPROX)
    assert got.order == N
    assert set(got.coeffs) == set(want)
    for k, c in want.items():
        assert abs(got.coeffs[k] - float(c)) <= REL * abs(c), k
