"""Truncated bivariate power/Laurent series and formal coordinate maps.

The substrate for everything else in the package.  A :class:`Series2` is a
finitely supported coefficient table ``{(i, j): c}`` for ``c * z1^i * z2^j``
together with a *guaranteed order*: all terms of total degree ``i + j`` up to
``order`` are correct, everything beyond is unknown (never assumed zero).
Exact polynomial data carries ``order = math.inf``.  Negative exponents are
allowed in the first variable only (local Laurent behaviour along the
distinguished leaf ``{z1 = 0}``); the second variable is always a power
series direction.

Operations propagate the guarantee conservatively: a product is guaranteed
through ``min(Na + val(b), Nb + val(a))``, a derivative loses one degree,
dividing by ``z1^k`` loses ``k``.  Consuming more precision than guaranteed
raises instead of silently truncating.  An omitted order (None or INF) has one
rule, ``Series2._resolve_order``: a truncated series' own order, or an exact
series' degree but never below ``DEFAULT_ORDER`` (16).  An operation that
would not change its operand returns it: ``truncated`` at an order it would
not cut and ``div_monomial(0, 0)``.  A ``Series2`` is never mutated, so this
is safe.

One kernel, ``_sum``, serves every convolution on both backends: each table
is brought to integer (re, im) numerators over the lcm of its denominators,
as FLINT's ``fmpq_poly`` stores a polynomial (Hart, ICMS 2010), or on the
approx backend to its complex values over 1; weighted products are summed in
one pass, and only the outputs become exact parts again, or complex quotients.
The exact boundary costs what the integers cost: a table takes one lcm over
its distinct denominators and uses the numerators as they are when it is 1,
and each output part is an int when the lcm divides it (the integer itself
over 1) and otherwise one Fraction in lowest terms, with no zero and no key
beyond the order.  ``_kernel_series`` therefore takes an exact output as a
``Series2`` as it is, and sends an approx one through ``Series2``, which
drops values within the tolerance and refuses inf and nan.
``_table``, ``_sum`` and ``_kernel_series`` are the only places that tell
the backends apart.
The kernel forms every product of two tables of at least two terms each; a
product with a one-term operand, where the tabling costs more than it saves,
is a key shift of the other operand.  A sum of weighted products ``start +
sum w*a*b`` (the curvature numerator, the discriminant, a chart form's
residual, wedges) is one call of ``products_sum`` and one call of the kernel:
no intermediate product series is built, and the sum claims the order of the
chained expression.

One graded solver finds every series fixed degree by degree: at degree e it
divides a target part plus weighted cross terms of lower degrees by a leading
scalar or form.  With the weights of the Euler operator ``z1*d/dz1 +
z2*d/dz2`` (Brent-Kung for exp/log, J.C.P. Miller for powers) it gives
``exp``, ``log`` and fractional ``pow_scalar`` (``sqrt`` is the power 1/2) for
about one truncated product, and with a leading form the roots of
``differentials``; the operand's constant term U_0 is the lead (1 for
``exp``) and its image the start P_0, so nothing is normalised and rescaled.
With weight -1 it divides: by a scalar lead in ``divide``, every quotient by
z1^k times a unit (``invert_unit`` is 1/u), and by a leading form in the
local-ring quotients of ``differentials``.  Degree d reads only input parts
of degree <= d, so a result is guaranteed through exactly the order of its
input.  Each degree is one call of the kernel, which also applies the Euler
weight's 1/e and a scalar lead's inverse once per output coefficient.

An integer power is repeated squaring of the base, and a negative one the
quotient 1 / base^-n; a power is exact only when no order is asked for, and
otherwise truncated at that order.  A negative power of z1^k * u cuts only
u's power at that order before dividing, so the cut does not grow with |n|.

Composition ``s(inner1, inner2)`` needs inner power series that fix the
origin and sums inner1^i times the z1-rows of ``s`` (row i is the sum of c_ij *
inner2^j) in the kernel, from powers of each inner series cached once, so every
map (the identity, a shear, a dense chart) takes the same path.  It is
guaranteed through ``min(order, s.order)`` where the inner series' orders
allow.  A Laurent ``s`` with pole P needs ``inner1 = z1 * (unit)`` and is
composed as the power series ``z1^P * s``; dividing back by z1^P leaves
``min(order - P, s.order)``.

A one-variable series (a slice along an axis, or the Laurent data along the
leaf) is a :class:`Series2` whose terms lie on one axis.  :class:`CoordMap`
packages a pair of series as a formal change of coordinates with composition
and reversion.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    BackendMismatch,
    DivisionByNonUnit,
    DivisionFailure,
    NotAUnit,
    SingularJacobian,
    ValuationError,
    ZeroSeries,
)
from .scalars import GaussianRational, ScalarContext

INF = math.inf
DEFAULT_ORDER = 16


def _norm_order(order):
    """Canonicalize a guaranteed order: an int, or the INF sentinel."""
    if isinstance(order, float):
        if math.isinf(order):
            return INF
        return int(order)
    return order


def _term_key(kv):
    """A term's place in ``terms_sorted``: by total degree, then by key."""
    return kv[0][0] + kv[0][1], kv[0]


def _axis_index(axis) -> int:
    if type(axis) is int and axis in (0, 1):
        return axis
    raise ValueError(f"axis must be 0 or 1, not {axis!r}")


class Series2:
    """Bivariate truncated series over a scalar backend."""

    __slots__ = ("ctx", "coeffs", "order", "names")

    def __init__(self, ctx: ScalarContext, coeffs: dict, order, names=("z1", "z2")):
        self.ctx = ctx
        self.names = tuple(names)
        order = _norm_order(order)
        clean = {}
        for (i, j), c in coeffs.items():
            if j < 0:
                raise ValuationError(
                    f"negative exponent of {self.names[1]} is not representable"
                )
            if order is not INF and i + j > order:
                continue
            if not ctx.is_zero(c):
                clean[(i, j)] = c
        self.coeffs = clean
        self.order = order

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, ctx, order=INF, names=("z1", "z2")):
        return cls(ctx, {}, order, names)

    @classmethod
    def const(cls, ctx, value, order=INF, names=("z1", "z2")):
        return cls(ctx, {(0, 0): ctx.coerce(value)}, order, names)

    @classmethod
    def variable(cls, ctx, which: int, order=INF, names=("z1", "z2")):
        key = (1, 0) if which == 0 else (0, 1)
        return cls(ctx, {key: ctx.one}, order, names)

    @classmethod
    def monomial(cls, ctx, i, j, coeff=1, order=INF, names=("z1", "z2")):
        return cls(ctx, {(i, j): ctx.coerce(coeff)}, order, names)

    @classmethod
    def from_terms(cls, ctx, terms: dict, order=INF, names=("z1", "z2")):
        return cls(ctx, {k: ctx.coerce(v) for k, v in terms.items()}, order, names)

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        """True when every known coefficient vanishes (zero through order)."""
        return not self.coeffs

    @property
    def pole(self) -> int:
        neg = [i for (i, _) in self.coeffs if i < 0]
        return -min(neg) if neg else 0

    @property
    def is_unit(self) -> bool:
        return self.pole == 0 and not self.ctx.is_zero(self.constant_term)

    @property
    def constant_term(self):
        return self.coeffs.get((0, 0), self.ctx.zero)

    @property
    def valuation(self):
        """Least total degree of a known term; order + 1 (or inf) if none."""
        if self.coeffs:
            return min(i + j for (i, j) in self.coeffs)
        return INF if self.order is INF else self.order + 1

    def coefficient(self, i, j):
        return self.coeffs.get((i, j), self.ctx.zero)

    def terms_sorted(self):
        return sorted(self.coeffs.items(), key=_term_key)

    def _check_compat(self, other: "Series2"):
        if self.ctx != other.ctx:
            raise BackendMismatch(
                f"backend mismatch: {self.ctx!r} vs {other.ctx!r}"
            )
        if self.names != other.names:
            raise BackendMismatch(
                f"variable mismatch: {self.names} vs {other.names}"
            )

    def with_names(self, names) -> "Series2":
        return Series2(self.ctx, self.coeffs, self.order, names)

    def as_backend(self, ctx: ScalarContext) -> "Series2":
        """Re-coerce coefficients into another backend (exact -> approx)."""
        return Series2(
            ctx,
            {k: ctx.coerce(complex(v)) for k, v in self.coeffs.items()},
            self.order,
            self.names,
        )

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series2):
            other = Series2.const(self.ctx, other, names=self.names)
        self._check_compat(other)
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            if k in out:
                out[k] = out[k] + c
            else:
                out[k] = c
        return Series2(self.ctx, out, order, self.names)

    __radd__ = __add__

    def __neg__(self):
        return Series2(
            self.ctx, {k: -c for k, c in self.coeffs.items()}, self.order, self.names
        )

    def __sub__(self, other):
        if not isinstance(other, Series2):
            other = Series2.const(self.ctx, other, names=self.names)
        self._check_compat(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] - c if k in out else -c
        return Series2(self.ctx, out, min(self.order, other.order), self.names)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, x) -> "Series2":
        x = self.ctx.coerce(x)
        if self.ctx.is_zero(x):
            return Series2.zero(self.ctx, self.order, self.names)
        return Series2(
            self.ctx, {k: c * x for k, c in self.coeffs.items()}, self.order, self.names
        )

    def __mul__(self, other):
        if not isinstance(other, Series2):
            return self.scale(other)
        self._check_compat(other)
        order = _product_order(self, other)
        ctx = self.ctx
        if len(self.coeffs) > 1 and len(other.coeffs) > 1:
            a, b = _table(ctx, self.coeffs), _table(ctx, other.coeffs)
            return _kernel_series(ctx, _sum(ctx, [(1, 0, a, b)], order), order, self.names)
        # a one-term operand shifts the other's keys; a zero one leaves none
        one, many = (self, other) if len(self.coeffs) <= len(other.coeffs) else (other, self)
        out = {(i1 + i2, j1 + j2): c1 * c2 for (i1, j1), c1 in one.coeffs.items()
               for (i2, j2), c2 in many.coeffs.items() if i1 + j1 + i2 + j2 <= order}
        return Series2(ctx, out, order, self.names)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("use pow_scalar for non-integer exponents")
        return self.pow_scalar(n)

    def _int_pow(self, n: int, order):
        """The natural power ``self**n``, exact when ``order`` is None, else
        truncated at ``order``."""
        out = Series2.const(self.ctx, self.ctx.one, INF, self.names)
        base = self if order is None else self.truncated(order)
        e = n
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        if order is not None:
            out = out.truncated(order)
        return out

    def truncated(self, order) -> "Series2":
        if order >= self.order:
            return self
        return Series2(self.ctx, self.coeffs, order, self.names)

    def eq_through(self, other) -> bool:
        """Coefficient equality through the common guaranteed order."""
        if not isinstance(other, Series2):
            other = Series2.const(self.ctx, other, names=self.names)
        self._check_compat(other)
        order = min(self.order, other.order)
        zero = self.ctx.zero
        for k in set(self.coeffs) | set(other.coeffs):
            if order is not INF and k[0] + k[1] > order:
                continue
            if not self.ctx.eq(self.coeffs.get(k, zero), other.coeffs.get(k, zero)):
                return False
        return True

    # -- calculus -----------------------------------------------------

    def derive(self, axis) -> "Series2":
        idx = _axis_index(axis)
        out = {}
        for (i, j), c in self.coeffs.items():
            e = i if idx == 0 else j
            if e == 0:
                continue
            k = (i - 1, j) if idx == 0 else (i, j - 1)
            out[k] = c * self.ctx.from_int(e)
        return Series2(self.ctx, out, self.order - 1, self.names)

    def ord_along_axis(self, axis) -> int:
        """Least exponent of the axis variable carried by a known term."""
        idx = _axis_index(axis)
        if not self.coeffs:
            raise ZeroSeries(
                "all known coefficients vanish"
                + ("" if self.order is INF else "; raise the truncation order")
            )
        return min(k[idx] for k in self.coeffs)

    def div_monomial(self, i0: int, j0: int) -> "Series2":
        """Exact division by z1^i0 * z2^j0 (Laurent shift in z1 only)."""
        if not (i0 or j0):
            return self
        out = {}
        for (i, j), c in self.coeffs.items():
            if j - j0 < 0:
                raise DivisionFailure(
                    f"{self.names[1]}^{j0} does not divide this series"
                )
            out[(i - i0, j - j0)] = c
        return Series2(self.ctx, out, self.order - i0 - j0, self.names)

    # -- slices -------------------------------------------------------

    def slice_z2_zero(self) -> "Series2":
        """The restriction s(z1, 0): the terms with no z2."""
        coeffs = {k: c for k, c in self.coeffs.items() if k[1] == 0}
        return Series2(self.ctx, coeffs, self.order, self.names)

    def slice_z1_zero(self) -> "Series2":
        """The restriction s(0, z2); undefined on series with a pole part."""
        if self.pole:
            raise ValuationError("cannot restrict a z1-Laurent series to {z1=0}")
        coeffs = {k: c for k, c in self.coeffs.items() if k[0] == 0}
        return Series2(self.ctx, coeffs, self.order, self.names)

    # -- inverses, exp, log and powers ----------------------------------

    def _resolve_order(self, order):
        # the module's one order rule; a given order is capped at self.order
        if order is not None and order != INF:
            return min(order, self.order)
        if self.order is not INF:
            return self.order
        return max([DEFAULT_ORDER] + [i + j for (i, j) in self.coeffs])

    def divide(self, den: "Series2", order=None) -> "Series2":
        """The quotient self / den for den = z1^k * u with u a unit.

        q * u = self is solved degree by degree from self's valuation v
        through ``min(self.order, u._resolve_order(order) + v)`` (u's own
        order when u is one term) and shifted by z1^-k.
        """
        self._check_compat(den)
        if den.is_zero():
            raise DivisionByNonUnit("division by a series that vanishes identically")
        k = min(i for (i, _) in den.coeffs)
        u = den.div_monomial(k, 0)
        if not u.is_unit:
            raise DivisionByNonUnit("denominator is not a unit times a power of z1")
        v = self.valuation
        if len(u.coeffs) == 1 or self.is_zero():
            q = self.scale(self.ctx.inv(u.constant_term)).truncated(u.order + v)
        else:
            top = min(self.order, u._resolve_order(order) + v)
            forms = _graded_solve(self.ctx, _forms(self, v, top), u.constant_term, [],
                                  _forms(u, 0, top - v))
            q = _from_forms(self.ctx, forms, v, top, self.names)
        return q.div_monomial(k, 0)

    def invert_unit(self, order=None) -> "Series2":
        if not self.is_unit:
            raise NotAUnit("invert_unit: constant term vanishes or series has a pole")
        return Series2.const(self.ctx, self.ctx.one, INF, self.names).divide(self, order)

    def exp(self, order=None) -> "Series2":
        if self.pole:
            raise ValuationError("exp requires a pole-free series")
        return self._graded(self._resolve_order(order), self.ctx.exp(self.constant_term),
                            self.ctx.one, 0)

    def log(self, order=None) -> "Series2":
        if not self.is_unit:
            raise NotAUnit("log of a non-unit")
        c = self.constant_term
        p0 = self.ctx.zero if self.ctx.eq(c, self.ctx.one) else self.ctx.log(c)
        return self._graded(self._resolve_order(order), p0, self.ctx.one, 1, log=True)

    def pow_scalar(self, e, order=None) -> "Series2":
        """Raise to a scalar power; an integer power is a product, and a
        negative one the quotient 1 / self**-n, so self may be z1^k times a
        unit."""
        n = _as_int(e)
        if n is not None and n >= 0:
            return self._int_pow(n, order)
        if n is not None:  # self = z1^k * u: only u's power is cut at order
            k = max(0, min((i for i, _ in self.coeffs), default=0))
            u = self.div_monomial(k, 0)
            cut = None if len(u.coeffs) == 1 and u.order is INF else order
            one = Series2.const(self.ctx, self.ctx.one, INF, self.names)
            return one.divide(u._int_pow(-n, cut), order).div_monomial(-k * n, 0)
        if not self.is_unit:
            raise NotAUnit("fractional powers require a unit base")
        p0 = self.ctx.pow(self.constant_term, e)  # an inexact one raises before the solve
        alpha = self.ctx.coerce(e)
        return self._graded(self._resolve_order(order), p0, alpha + self.ctx.one, 1)

    def sqrt(self, order=None) -> "Series2":
        return self.pow_scalar(Fraction(1, 2), order)

    def _graded(self, order, p0, a, b, log=False) -> "Series2":
        """The series P solved degree by degree through ``order`` from the
        parts U_k of this pole-free series by the Euler recurrence
        U_0^b*d*P_d = sum_{k=1..d} (a*k - b*d)*U_k*P_{d-k} [+ d*U_d if log]
        from P_0 = p0: (a, b) = (1, 0) gives exp(U) from exp(U_0), (alpha + 1,
        1) U**alpha from U_0**alpha, and (1, 1) with log log(U) from log(U_0)."""
        ctx = self.ctx
        parts = _forms(self, 0, order)
        target = parts if log else [{}] * (order + 1)
        start = [{0: p0} if not ctx.is_zero(p0) else {}]
        lead = self.constant_term if b else ctx.one
        solved = _graded_solve(ctx, target, lead, start, parts, (a, b))
        return _from_forms(ctx, solved, 0, order, self.names)

    # -- composition ----------------------------------------------------

    def substitute(self, inner1: "Series2", inner2: "Series2", order=None) -> "Series2":
        """Formal composition s(inner1, inner2); both inner series must be
        power series that fix the origin.

        A power series is the sum over its z1-rows of inner1^i * row_i, row_i
        the sum of c_ij * inner2^j: one ``_sum`` call per row (products with
        the table of 1) and one over the rows, from powers of each inner series
        formed once and truncated at ``top = min(order, self.order)``, so a
        dense map costs about one truncated product per row.  It claims the
        least ``_product_order`` of the pairs (inner1^i, inner2^j) it reads.
        A Laurent series with pole P needs ``inner1 = z1 * u`` with u a unit:
        ``z1^P * self`` is composed, divided by ``u^P`` and by ``z1^P``, so the
        result is guaranteed through ``min(order - P, self.order)``.
        """
        inner1._check_compat(inner2)
        ctx = self.ctx
        if ctx != inner1.ctx:
            raise BackendMismatch("backend mismatch in substitution")
        if not (ctx.is_zero(inner1.constant_term) and ctx.is_zero(inner2.constant_term)):
            raise ValuationError("inner series must fix the origin")
        if inner1.pole or inner2.pole:
            raise ValuationError("inner series must be power series, without a pole")
        P = self.pole
        if P:
            u = inner1.div_monomial(1, 0)
            if not u.is_unit:
                raise ValuationError(
                    "Laurent substitution needs inner1 of the form z1*(unit)"
                )
            lifted = self.div_monomial(-P, 0).substitute(inner1, inner2, order)
            q = lifted.divide(u._int_pow(P, order), lifted._resolve_order(order))
            return q.div_monomial(P, 0)
        top = min(INF if order is None else order, self.order)
        names, one = inner1.names, _table(ctx, {(0, 0): ctx.one})
        powers = []
        for inner, n in ((inner1, 0), (inner2, 1)):
            p = [Series2.const(ctx, ctx.one, top, names)]
            for _ in range(max((k[n] for k in self.coeffs), default=0)):
                p.append((p[-1] * inner).truncated(top))
            powers.append([(x, _table(ctx, x.coeffs)) for x in p])
        D, coeffs, _ = _table(ctx, self.coeffs)
        claim, rows = top, {}
        for i, j, _, x, y in coeffs:
            (a, _), (b, tb) = powers[0][i], powers[1][j]
            claim = min(claim, _product_order(a, b))
            if a.coeffs and b.coeffs:
                rows.setdefault(i, []).append((x, y, one, tb))
        terms = [(1, 0, powers[0][i][1], _table(ctx, _sum(ctx, row, claim, den=D)))
                 for i, row in rows.items()]
        return _kernel_series(ctx, _sum(ctx, terms, claim), claim, names)

    # -- display --------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for (i, j), c in self.terms_sorted()[:12]:
                mono = []
                if i:
                    mono.append(f"{self.names[0]}^{i}" if i != 1 else self.names[0])
                if j:
                    mono.append(f"{self.names[1]}^{j}" if j != 1 else self.names[1])
                parts.append(self.ctx.fmt(c) + ("*" + "*".join(mono) if mono else ""))
            body = " + ".join(parts)
            if len(self.coeffs) > 12:
                body += " + ..."
        tail = "" if self.order is INF else f" + O(deg>{self.order})"
        return body + tail

    def __repr__(self):
        return f"Series2({self})"


def _product_order(a: Series2, b: Series2):
    """The guaranteed order of a * b: min(Na + val b, Nb + val a)."""
    if a.order is INF and b.order is INF:
        return INF
    return _norm_order(min(a.order + b.valuation, b.order + a.valuation))


def products_sum(terms: list, start: Series2 = None) -> Series2:
    """start + sum of w * a * b over ``terms`` [(w, a, b)] with rational
    weights w (start None for 0), guaranteed through the least of start's
    order and each product's ``_product_order``: the claim of the chained
    expression.

    This is one ``_sum`` on either backend: each operand is tabled once, the
    weights go over one denominator, and no intermediate product series is
    built, so a sum that cancels builds none.
    """
    ref = start if start is not None else terms[0][1]
    ctx = ref.ctx
    order = INF if start is None else start.order
    den = 1
    for w, a, b in terms:
        ref._check_compat(a)
        ref._check_compat(b)
        order = min(order, _product_order(a, b))
        den = math.lcm(den, Fraction(w).denominator)
    tables = {}

    def table(s):
        if id(s) not in tables:
            tables[id(s)] = _table(ctx, s.coeffs)
        return tables[id(s)]

    kernel = [(int(w * den), 0, table(a), table(b)) for w, a, b in terms
              if a.coeffs and b.coeffs]
    target = table(start) if start is not None and start.coeffs else None
    return _kernel_series(ctx, _sum(ctx, kernel, order, target, den), order, ref.names)


def _table(ctx, coeffs: dict, deg=None):
    """(D, rows, real) for a table {(i, j): c}, or for a form {x: c} of degree
    ``deg`` keyed (x, deg - x), with rows [(i, j, i + j, x, y)].  On the exact
    backend D is the lcm of the distinct real and imaginary denominators, x
    and y are the integers re*D and im*D (the int parts themselves when D is
    1), and real says that every y is 0; on the approx backend D = 1, x is the
    complex coefficient and y = 0."""
    if ctx.name != "exact":
        if deg is None:
            return 1, [(i, j, i + j, c, 0) for (i, j), c in coeffs.items()], True
        return 1, [(x, deg - x, deg, c, 0) for x, c in coeffs.items()], True
    items = coeffs.items() if deg is None else [((x, deg - x), c) for x, c in coeffs.items()]
    values = coeffs.values()
    D = math.lcm(*{c.re.denominator for c in values}, *{c.im.denominator for c in values})
    if D == 1:
        rows = [(i, j, i + j, c.re.numerator, c.im.numerator) for (i, j), c in items]
    else:
        rows = [(i, j, i + j, c.re.numerator * (D // c.re.denominator),
                 c.im.numerator * (D // c.im.denominator)) for (i, j), c in items]
    return D, rows, not any(t[4] for t in rows)


def _sum(ctx, terms: list, order, target=None, den: int = 1, inv=None) -> dict:
    """inv * (target + S / den) as {(i, j): c} through ``order``, zero
    coefficients dropped.  S sums (wr + i*wi) * a * b over ``terms``
    [(wr, wi, a, b)] of integer weights and ``_table`` tables, skipping pairs
    beyond ``order``; ``target`` is such a table (its rows beyond ``order``
    dropped) or None, and ``inv`` the one-row table of a scalar or None for
    1.  The sum runs over the lcm M of the denominators, as FLINT's
    fmpq_poly keeps a polynomial, with one loop for real tables and weights
    (every approx table), and each output is (x + i*y) / M: on the exact
    backend each part is x // M when M divides x and otherwise one Fraction
    in lowest terms, on the approx backend one complex quotient.
    Keys come in the order first seen: the target's, then each term's
    pairs."""
    L = 1
    for _, _, a, b in terms:
        L = math.lcm(L, a[0] * b[0])
    M = L * den
    re, im = {}, {}
    if target is not None:
        Dt, rows, _ = target
        M = math.lcm(Dt, M)
        f = M // Dt
        for i, j, d, r, m in rows:
            if d <= order:
                re[(i, j)] = r * f
                im[(i, j)] = m * f
    s = M // (L * den)
    for wr, wi, (Da, ta, real_a), (Db, tb, real_b) in terms:
        f = s * (L // (Da * Db))
        wr, wi = wr * f, wi * f
        # for an exact product, a bound no pair reaches
        top = order if order is not INF else max(t[2] for t in ta) + max(t[2] for t in tb)
        if real_a and real_b and not wi:
            for i1, j1, d1, r1, _ in ta:
                r1 *= wr
                room = top - d1
                for i2, j2, d2, r2, _ in tb:
                    if d2 > room:
                        continue
                    k = (i1 + i2, j1 + j2)
                    re[k] = re.get(k, 0) + r1 * r2
            continue
        for i1, j1, d1, r1, m1 in ta:
            r1, m1 = r1 * wr - m1 * wi, r1 * wi + m1 * wr
            room = top - d1
            for i2, j2, d2, r2, m2 in tb:
                if d2 > room:
                    continue
                k = (i1 + i2, j1 + j2)
                re[k] = re.get(k, 0) + (r1 * r2 - m1 * m2)
                im[k] = im.get(k, 0) + (r1 * m2 + m1 * r2)
    if inv is not None:
        Dl, ((*_, lr, li),), _ = inv
        M *= Dl
    if ctx.name != "exact":
        if inv is not None:
            M /= lr
        return {k: x / M for k, x in re.items() if x}
    # each part an int when M divides it, else a Fraction in lowest terms;
    # over M = 1 the integer itself
    part = int if M == 1 else (lambda x: Fraction(x, M) if x % M else x // M)
    new, out = object.__new__, {}
    for k, n in re.items():
        m = im.get(k, 0)
        if inv is not None:
            n, m = n * lr - m * li, n * li + m * lr
        if n or m:
            c = out[k] = new(GaussianRational)
            c.re, c.im = part(n), part(m) if m else 0
    return out


def _kernel_series(ctx, coeffs: dict, order, names) -> Series2:
    """The series of a ``_sum`` output through ``order``.  An exact output is
    taken as it is: it holds no zero and no key beyond ``order``.  An approx
    output goes through ``Series2``, which drops values within the tolerance
    and refuses inf and nan."""
    if ctx.name != "exact":
        return Series2(ctx, coeffs, order, names)
    s = object.__new__(Series2)
    s.ctx, s.coeffs, s.order, s.names = ctx, coeffs, _norm_order(order), tuple(names)
    return s


def _forms(s: Series2, lo: int, hi: int) -> list:
    """The homogeneous parts of ``s`` of degrees lo..hi as {z1-exponent: c}."""
    parts = [{} for _ in range(lo, hi + 1)]
    for (i, j), c in s.coeffs.items():
        if lo <= i + j <= hi:
            parts[i + j - lo][i] = c
    return parts


def _from_forms(ctx, forms, qdeg, order, names) -> Series2:
    """The series whose part of degree qdeg + e is ``forms[e]``."""
    terms = {(x, qdeg + e - x): c for e, f in enumerate(forms) for x, c in f.items()}
    return Series2(ctx, terms, order, names)


def _homog_div(R: dict, H: dict, ctx, qdeg_max: int):
    """The exact quotient R / H of two forms as {z1-exponent: c}, or None when
    H does not divide R or the quotient needs a z1-exponent above qdeg_max."""
    Q = {}
    R = {x: c for x, c in R.items() if not ctx.is_zero(c)}
    hmax = max(H)
    hlead_inv = ctx.inv(H[hmax])
    while R:
        rmax = max(R)
        qe = rmax - hmax
        if qe < 0 or qe > qdeg_max:
            return None
        qc = R[rmax] * hlead_inv
        Q[qe] = qc
        for he, hc in H.items():
            k = he + qe
            nv = R.get(k, ctx.zero) - qc * hc
            if ctx.is_zero(nv):
                R.pop(k, None)
            else:
                R[k] = nv
    return Q


def _graded_solve(ctx, target, lead, solved, cross, euler=None, qdeg=0):
    """Extend the forms ``solved`` (q_e of degree qdeg + e, as {z1-exponent: c})
    through the degrees of ``target`` by Brent & Kung's (J. ACM 25, 1978)
    lead * q_e = target_e + sum_{k>=1} w(k, e) * cross_k * q_{e-k}.

    w is the Euler weight (a*k - b*e)/e for ``euler = (a, b)`` (exp, log,
    powers and roots; b an int), else -1 (quotients).  ``lead`` is a scalar,
    or a form divided out exactly at each degree; None when that division
    fails.  Each degree is one ``_sum``, which also applies 1/e and a scalar
    lead's inverse: every cross form is tabled up front, and each solved form
    when it is appended.
    """
    q = list(solved)
    scale = None if isinstance(lead, dict) or lead == ctx.one else ctx.inv(lead)
    ct = [_table(ctx, f, k) if k and f else None for k, f in enumerate(cross)]
    qt = [_table(ctx, f, e) if f else None for e, f in enumerate(q)]
    inv = None if scale is None else _table(ctx, {0: scale}, 0)
    if euler:
        wden, ((*_, ar, ai),), _ = _table(ctx, {0: euler[0]}, 0)
    for e in range(len(q), len(target)):
        terms = []
        for k in range(1, min(e, len(cross) - 1) + 1):
            if qt[e - k] is None or ct[k] is None:
                continue
            wr, wi = (ar * k - euler[1] * e * wden, ai * k) if euler else (-1, 0)
            if wr or wi:
                terms.append((wr, wi, ct[k], qt[e - k]))
        t = _table(ctx, target[e], e) if target[e] else None
        acc = _sum(ctx, terms, e, t, wden * e if euler else 1, inv)
        qe = {x: c for (x, _), c in acc.items()}
        if isinstance(lead, dict):
            qe = _homog_div(qe, lead, ctx, qdeg + e)
            if qe is None:
                return None
        q.append(qe)
        if e + 1 < len(target):  # the last form is never read
            qt.append(_table(ctx, qe, e) if qe else None)
    return q


def _as_int(e):
    if isinstance(e, int):
        return e
    if isinstance(e, Fraction) and e.denominator == 1:
        return int(e)
    if isinstance(e, GaussianRational) and e.is_integer:
        return int(e.re)
    if isinstance(e, float) and e == int(e):
        return int(e)
    if isinstance(e, complex) and e.imag == 0 and e.real == int(e.real):
        return int(e.real)
    return None


class CoordMap:
    """A formal change of coordinates: two series components fixing the origin."""

    __slots__ = ("comp1", "comp2")

    def __init__(self, comp1: Series2, comp2: Series2):
        comp1._check_compat(comp2)
        if not comp1.ctx.is_zero(comp1.constant_term) or not comp2.ctx.is_zero(
            comp2.constant_term
        ):
            raise ValuationError("coordinate map components must fix the origin")
        self.comp1 = comp1
        self.comp2 = comp2

    @property
    def ctx(self):
        return self.comp1.ctx

    @property
    def names(self):
        return self.comp1.names

    @classmethod
    def identity(cls, ctx, order=INF, names=("z1", "z2")):
        return cls(
            Series2.variable(ctx, 0, order, names),
            Series2.variable(ctx, 1, order, names),
        )

    def jacobian_origin(self):
        return (
            self.comp1.coefficient(1, 0),
            self.comp1.coefficient(0, 1),
            self.comp2.coefficient(1, 0),
            self.comp2.coefficient(0, 1),
        )

    def det_origin(self):
        a, b, c, d = self.jacobian_origin()
        return a * d - b * c

    def compose(self, inner: "CoordMap") -> "CoordMap":
        """self after inner: v -> self(inner(v))."""
        return CoordMap(
            self.comp1.substitute(inner.comp1, inner.comp2),
            self.comp2.substitute(inner.comp1, inner.comp2),
        )


def reverse_map(phi: CoordMap, order=None) -> CoordMap:
    """Compositional inverse by graded jet lifting: for phi = A*v + h (h of
    degree >= 2), psi = A^-1*v - (A^-1*h)(psi) gains one exact total degree
    per composition, through the guaranteed order of the input map.
    """
    ctx = phi.ctx
    names = phi.names
    if order is None or order is INF:  # a truncated component bounds the claim
        comps = [c for c in (phi.comp1, phi.comp2) if c.order is not INF]
        order = min(c._resolve_order(None) for c in comps or (phi.comp1, phi.comp2))
    a11, a12, a21, a22 = phi.jacobian_origin()
    det = phi.det_origin()
    if ctx.is_zero(det):
        raise SingularJacobian("coordinate map has vanishing Jacobian at the origin")
    dinv = ctx.inv(det)
    b11, b12 = a22 * dinv, -a12 * dinv
    b21, b22 = -a21 * dinv, a11 * dinv

    def lin_inv(s1, s2):
        return (s1.scale(b11) + s2.scale(b12), s1.scale(b21) + s2.scale(b22))

    # A^-1 applied once, to h (each component minus its linear part) and to v
    g1, g2 = lin_inv(phi.comp1 - Series2(ctx, {(1, 0): a11, (0, 1): a12}, INF, names),
                     phi.comp2 - Series2(ctx, {(1, 0): a21, (0, 1): a22}, INF, names))
    w1, w2 = psi1, psi2 = lin_inv(Series2.variable(ctx, 0, order, names),
                                  Series2.variable(ctx, 1, order, names))
    for d in range(2, order + 1):
        psi1, psi2 = ((w1 - g1.substitute(psi1, psi2, d)).truncated(d),
                      (w2 - g2.substitute(psi1, psi2, d)).truncated(d))
    # the graded construction determines the degree<=order jet exactly
    psi1 = Series2(ctx, psi1.coeffs, order, names)
    psi2 = Series2(ctx, psi2.coeffs, order, names)
    return CoordMap(psi1, psi2)
