"""Scalar arithmetic backends.

Two interchangeable coefficient domains drive the whole series engine:

* ``exact``  -- Gaussian rationals, i.e. complex numbers with arbitrary
  precision rational real and imaginary parts.  Every field operation is
  exact and equality is decidable.  Transcendental constants (``exp`` of a
  nonzero rational, ``log`` of anything but 1, roots that do not exist in
  Q(i)) raise :class:`~symdiff2.errors.ExactValueError` instead of silently
  approximating.
* ``approx`` -- complex doubles with a relative comparison tolerance ``tol``
  (default ``1e-9``).  ``x == y`` means ``|x - y| <= tol * max(1, |x|, |y|)``.

A :class:`ScalarContext` bundles the domain-dependent operations so the
series code stays backend agnostic.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import ExactValueError

DEFAULT_TOLERANCE = 1e-9

_FR0 = Fraction(0)
_FR1 = Fraction(1)
# results of the hot operators skip __init__'s coercion: both parts are
# already Fractions
_new = object.__new__


def _iroot(n: int, k: int):
    """Exact integer k-th root of n >= 0, or None if it does not exist."""
    if n < 0:
        return None
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        r = math.isqrt(n)
        return r if r * r == n else None
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x ** k == n else None


def _fraction_root(q: Fraction, k: int):
    """Exact k-th root of a nonnegative rational, or None."""
    rn = _iroot(q.numerator, k)
    rd = _iroot(q.denominator, k)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("GaussianRational components must be exact rationals")
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = other if other.__class__ is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        r = _new(GaussianRational)
        r.re = self.re + o.re
        r.im = self.im + o.im if self.im or o.im else _FR0
        return r

    __radd__ = __add__

    def __sub__(self, other):
        o = other if other.__class__ is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        r = _new(GaussianRational)
        r.re = self.re - o.re
        r.im = self.im - o.im if self.im or o.im else _FR0
        return r

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __neg__(self):
        r = _new(GaussianRational)
        r.re, r.im = -self.re, -self.im if self.im else _FR0
        return r

    def __mul__(self, other):
        o = other if other.__class__ is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        r = _new(GaussianRational)
        # real-only fast path: the common case by far
        if not self.im and not o.im:
            r.re, r.im = self.re * o.re, _FR0
        else:
            r.re = self.re * o.re - self.im * o.im
            r.im = self.re * o.im + self.im * o.re
        return r

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return GaussianRational(self.re / o.re)
        n = o.re * o.re + o.im * o.im
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return GaussianRational(1) / self ** (-e)
        out = GaussianRational(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_exact(self)

    @property
    def is_real(self) -> bool:
        return not self.im

    @property
    def is_integer(self) -> bool:
        return not self.im and self.re.denominator == 1


def _fmt_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_exact(x: GaussianRational) -> str:
    if not x.im:
        return _fmt_fraction(x.re)
    sign = "-" if x.im < 0 else "+"
    return f"{_fmt_fraction(x.re)}{sign}{_fmt_fraction(abs(x.im))}*i"


def format_float(v: float) -> str:
    v = v + 0.0  # kill -0.0
    return format(v, ".17g")


def format_complex(z: complex) -> str:
    re, im = z.real + 0.0, z.imag + 0.0
    if im == 0.0:
        return format_float(re)
    sign = "-" if im < 0 else "+"
    return f"{format_float(re)}{sign}{format_float(abs(im))}*i"


class ScalarContext:
    """Backend-dependent scalar operations; see :class:`ExactContext` and
    :class:`ApproxContext`."""

    name: str

    def __eq__(self, other):
        return isinstance(other, ScalarContext) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"<{self.name} scalar context>"


class ExactContext(ScalarContext):
    name = "exact"

    def __init__(self):
        self.zero = GaussianRational(0)
        self.one = GaussianRational(1)

    def from_rational(self, re, im=0):
        return GaussianRational(re, im)

    def from_int(self, n: int):
        return GaussianRational(n)

    def coerce(self, x):
        c = GaussianRational._coerce(x)
        if c is None:
            raise TypeError(f"cannot coerce {x!r} into an exact scalar")
        return c

    def is_zero(self, x) -> bool:
        return not x

    def eq(self, x, y) -> bool:
        return x == y

    def inv(self, x):
        return self.one / x

    def exp(self, x):
        if not x:
            return self.one
        raise ExactValueError(f"exp({x}) is not a Gaussian rational")

    def log(self, x):
        if x == self.one:
            return self.zero
        raise ExactValueError(f"log({x}) is not a Gaussian rational")

    def sqrt(self, x):
        """Principal square root inside Q(i); raises when none exists."""
        x = self.coerce(x)
        if not x.im:
            if x.re >= 0:
                r = _fraction_root(x.re, 2)
                if r is not None:
                    return GaussianRational(r)
            else:
                r = _fraction_root(-x.re, 2)
                if r is not None:
                    return GaussianRational(0, r)
            raise ExactValueError(f"sqrt({x}) is not a Gaussian rational")
        norm = x.re * x.re + x.im * x.im
        s = _fraction_root(norm, 2)
        if s is not None:
            a = _fraction_root((x.re + s) / 2, 2)
            if a is not None and a != 0:
                b = x.im / (2 * a)
                # principal branch: real part >= 0
                return GaussianRational(a, b)
        raise ExactValueError(f"sqrt({x}) is not a Gaussian rational")

    def pow(self, x, e):
        """x**e for integer or rational e, when the result stays in Q(i)."""
        x = self.coerce(x)
        if isinstance(e, GaussianRational):
            if e.im:
                if x == self.one:
                    return self.one
                raise ExactValueError(f"{x}**{e} is not a Gaussian rational")
            e = e.re
        if isinstance(e, int) or (isinstance(e, Fraction) and e.denominator == 1):
            return x ** int(e)
        if not isinstance(e, Fraction):
            raise TypeError(f"exact pow exponent must be rational, got {e!r}")
        if x == self.one:
            return self.one
        p, q = e.numerator, e.denominator
        if q == 2:
            return self.sqrt(x) ** p
        if not x.im:
            if x.re > 0:
                r = _fraction_root(x.re, q)
                if r is not None:
                    return GaussianRational(r) ** p
            elif x.re < 0 and q % 2 == 1:
                r = _fraction_root(-x.re, q)
                if r is not None:
                    # odd-order principal root of a negative real is complex;
                    # only the q=1 case stays rational, handled above
                    raise ExactValueError(f"{x}**{e} is not a Gaussian rational")
        raise ExactValueError(f"{x}**{e} is not a Gaussian rational")

    def to_complex(self, x) -> complex:
        return complex(x)

    def fmt(self, x) -> str:
        return format_exact(x)


class ApproxContext(ScalarContext):
    name = "approx"

    def __init__(self, tol: float = DEFAULT_TOLERANCE):
        self.tol = tol
        self.zero = 0j
        self.one = 1 + 0j

    # the tolerance decides which coefficients a series keeps, so series
    # under different tolerances must not combine
    def __eq__(self, other):
        return isinstance(other, ApproxContext) and self.tol == other.tol

    def __hash__(self):
        return hash((self.name, self.tol))

    def __repr__(self):
        return f"<approx scalar context, tol {self.tol:g}>"

    def from_rational(self, re, im=0):
        return complex(float(re), float(im))

    def from_int(self, n: int):
        return complex(n)

    def coerce(self, x):
        if isinstance(x, GaussianRational):
            return complex(x)
        return complex(x)

    def is_zero(self, x) -> bool:
        return abs(x) <= self.tol

    def eq(self, x, y) -> bool:
        return abs(x - y) <= self.tol * max(1.0, abs(x), abs(y))

    def inv(self, x):
        return 1 / x

    def exp(self, x):
        return cmath.exp(x)

    def log(self, x):
        return cmath.log(x)

    def sqrt(self, x):
        return cmath.sqrt(x)

    def pow(self, x, e):
        if isinstance(e, GaussianRational):
            e = complex(e)
        elif isinstance(e, Fraction):
            e = complex(float(e), 0.0)
        if isinstance(e, int):
            return complex(x) ** e
        return cmath.exp(e * cmath.log(x))

    def to_complex(self, x) -> complex:
        return complex(x)

    def fmt(self, x) -> str:
        return format_complex(complex(x))


EXACT = ExactContext()
APPROX = ApproxContext()


def get_context(name: str) -> ScalarContext:
    """Resolve a backend name ('exact' | 'approx') to a context instance;
    ``ApproxContext(tol)`` makes an approx context with another tolerance."""
    if name == "exact":
        return EXACT
    if name == "approx":
        return APPROX
    raise ValueError(f"unknown backend {name!r}")
