import random
from fractions import Fraction

import pytest

from symdiff2 import APPROX, EXACT, BackendMismatch, ExactValueError, Series2
from symdiff2.scalars import ApproxContext, GaussianRational, format_complex, format_exact


def test_gaussian_rational_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(3))
    b = GaussianRational(Fraction(-2), Fraction(1, 5))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * GaussianRational(1) == a
    assert -(-a) == a
    assert (a - a) == GaussianRational(0)
    assert a ** 3 == a * a * a
    assert a ** -2 == GaussianRational(1) / (a * a)


def test_operators_on_real_complex_and_plain_operands():
    r = GaussianRational(Fraction(2, 3))
    z = GaussianRational(Fraction(1, 2), Fraction(-1, 4))
    for x, y in ((r, r), (r, z), (z, r), (z, z), (r, 2), (z, Fraction(1, 3)), (3, z)):
        gx, gy = GaussianRational._coerce(x), GaussianRational._coerce(y)
        for got, want in (
            (x + y, (gx.re + gy.re, gx.im + gy.im)),
            (x - y, (gx.re - gy.re, gx.im - gy.im)),
            (x * y, (gx.re * gy.re - gx.im * gy.im, gx.re * gy.im + gx.im * gy.re)),
            (-gx, (-gx.re, -gx.im)),
        ):
            assert (got.re, got.im) == want
            assert type(got.re) is Fraction and type(got.im) is Fraction


def test_gaussian_rational_rejects_floats():
    with pytest.raises(TypeError):
        GaussianRational(0.5)


def test_exact_equality_is_decidable():
    x = GaussianRational(Fraction(1, 3))
    y = GaussianRational(Fraction(1, 3))
    assert EXACT.eq(x, y)
    assert not EXACT.eq(x, GaussianRational(Fraction(1, 3), Fraction(1, 10 ** 12)))


def test_exact_sqrt():
    assert EXACT.sqrt(GaussianRational(4)) == GaussianRational(2)
    assert EXACT.sqrt(GaussianRational(Fraction(9, 16))) == GaussianRational(Fraction(3, 4))
    assert EXACT.sqrt(GaussianRational(-1)) == GaussianRational(0, 1)
    # (1+2i)^2 = -3+4i
    assert EXACT.sqrt(GaussianRational(-3, 4)) == GaussianRational(1, 2)
    with pytest.raises(ExactValueError):
        EXACT.sqrt(GaussianRational(2))


def test_exact_pow():
    two = GaussianRational(2)
    assert EXACT.pow(two, 3) == GaussianRational(8)
    assert EXACT.pow(GaussianRational(8), Fraction(1, 3)) == GaussianRational(2)
    assert EXACT.pow(GaussianRational(Fraction(4, 9)), Fraction(1, 2)) == GaussianRational(
        Fraction(2, 3)
    )
    assert EXACT.pow(GaussianRational(1), Fraction(2, 7)) == GaussianRational(1)
    with pytest.raises(ExactValueError):
        EXACT.pow(two, Fraction(1, 2))


def test_exact_exp_log_domain():
    assert EXACT.exp(GaussianRational(0)) == GaussianRational(1)
    assert EXACT.log(GaussianRational(1)) == GaussianRational(0)
    with pytest.raises(ExactValueError):
        EXACT.exp(GaussianRational(1))
    with pytest.raises(ExactValueError):
        EXACT.log(GaussianRational(2))


def test_approx_tolerance_semantics():
    ctx = APPROX
    assert ctx.eq(1.0 + 0j, 1.0 + 5e-10)
    assert not ctx.eq(1.0 + 0j, 1.0 + 5e-9)
    # relative comparison for large values
    assert ctx.eq(1e6 + 0j, 1e6 + 1e-4)
    assert ctx.is_zero(5e-10 + 0j)
    assert not ctx.is_zero(5e-9 + 0j)
    custom = ApproxContext(1e-3)
    assert custom.is_zero(5e-4 + 0j)


def test_formatting():
    assert format_exact(GaussianRational(Fraction(3, 4))) == "3/4"
    assert format_exact(GaussianRational(0, Fraction(-1, 2))) == "0-1/2*i"
    assert format_exact(GaussianRational(Fraction(1, 2), 2)) == "1/2+2*i"
    assert format_complex(complex(-0.0, 0.0)) == "0"
    assert format_complex(0.5 - 0.25j) == "0.5-0.25*i"


def test_backends_agree_on_field_ops():
    rnd = random.Random(11)
    for _ in range(50):
        a = GaussianRational(Fraction(rnd.randint(-5, 5), rnd.randint(1, 5)),
                             Fraction(rnd.randint(-5, 5), rnd.randint(1, 5)))
        b = GaussianRational(Fraction(rnd.randint(-5, 5), rnd.randint(1, 5)),
                             Fraction(rnd.randint(1, 5), rnd.randint(1, 5)))
        za, zb = complex(a), complex(b)
        assert APPROX.eq(complex(a * b), za * zb)
        assert APPROX.eq(complex(a + b), za + zb)
        assert APPROX.eq(complex(a / b), za / zb)


def test_approx_contexts_differ_by_tolerance():
    custom = ApproxContext(1e-3)
    assert custom != APPROX and APPROX != custom
    assert ApproxContext(1e-9) == APPROX
    assert hash(ApproxContext(1e-9)) == hash(APPROX)
    assert custom != EXACT and EXACT != custom
    # mixed, x + y would keep the 1e-4 term and y + x drop it
    x = Series2.const(APPROX, 1e-4)
    y = Series2.zero(custom)
    for left, right in ((x, y), (y, x)):
        with pytest.raises(BackendMismatch, match="tol 0.001"):
            left + right
        with pytest.raises(BackendMismatch):
            left * right
