"""Each constant factor is applied once, where it is known.

``exp``, ``log`` and fractional powers start the graded solve from the
operand's constant term instead of normalising the operand to constant term
1 and rescaling the result; the evaluator multiplies a series by a unit
constant only when that constant is not 1; and ``reverse_map`` applies the
inverse of the linear part once to the nonlinear part and once to the
identity, not once per pass.  Calls of ``Series2.scale`` are counted.
"""

from fractions import Fraction

import pytest

from symdiff2 import APPROX, EXACT, CoordMap, Series2, reverse_map
from symdiff2.expressions import eval_text


@pytest.fixture
def scale_calls(monkeypatch):
    calls = []
    scale = Series2.scale

    def counted(self, x):
        calls.append(x)
        return scale(self, x)

    monkeypatch.setattr(Series2, "scale", counted)
    return calls


def unit(ctx):
    """A unit whose constant term is 4, not 1."""
    s = Series2.from_terms(EXACT, {(0, 0): 4, (1, 0): 1, (0, 2): Fraction(-1, 3),
                                   (2, 1): 2})
    return s if ctx is EXACT else s.as_backend(ctx)


OPS = [
    ("exp", APPROX, lambda s: s.exp(8)),
    ("log", APPROX, lambda s: s.log(8)),
    ("sqrt", EXACT, lambda s: s.sqrt(8)),
    ("pow(-5/2)", EXACT, lambda s: s.pow_scalar(Fraction(-5, 2), 8)),
    ("pow(1/3)", APPROX, lambda s: s.pow_scalar(Fraction(1, 3), 8)),
]


@pytest.mark.parametrize("op, ctx, fn", OPS, ids=[o[0] for o in OPS])
def test_graded_operations_start_from_the_constant_term(op, ctx, fn, scale_calls):
    s = unit(ctx)
    assert fn(s).order == 8
    assert scale_calls == []


@pytest.mark.parametrize("text", ["exp(z2/(1+z1*z2))", "1+z1*z2-3*z2^2+z1-(2+z2)^2"])
def test_evaluation_applies_no_constant_of_one(text, scale_calls):
    for ctx in (EXACT, APPROX):
        assert not eval_text(text, 10, ctx).is_zero()
    assert scale_calls == []


def test_reverse_map_inverts_its_linear_part_once(scale_calls):
    z1, z2 = Series2.variable(EXACT, 0), Series2.variable(EXACT, 1)
    phi = CoordMap(2 * z1 + z2 + z1 * z2 - z2 ** 3, z1 - z2 + z1 ** 2 * z2 + 3 * z1 ** 2)
    counts = []
    for order in (8, 16):
        scale_calls.clear()
        psi = reverse_map(phi, order)
        counts.append(len(scale_calls))
        ident = phi.compose(psi)
        assert ident.comp1.eq_through(Series2.variable(EXACT, 0, order))
        assert ident.comp2.eq_through(Series2.variable(EXACT, 1, order))
    assert counts[0] == counts[1]
