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
raises instead of silently truncating.

One graded solver finds every series fixed degree by degree: at degree e it
divides a target part plus weighted cross terms of lower degrees by a leading
scalar or form.  With the weights of the Euler operator ``z1*d/dz1 +
z2*d/dz2`` (Brent-Kung for exp/log, J.C.P. Miller for powers) it gives
``invert_unit``, ``exp``, ``log``, ``sqrt`` and fractional ``pow_scalar`` for
about one truncated product; with weight -1 and a leading form it gives the
local-ring quotients and square roots of ``differentials``.  Degree d reads
only input parts of degree <= d, so a result is guaranteed through exactly the
order of its input.

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


def _axis_index(axis, names) -> int:
    if axis in (0, 1):
        return axis
    if axis in names:
        return names.index(axis)
    if axis in ("z1", "z2"):
        return 0 if axis == "z1" else 1
    raise ValueError(f"unknown axis {axis!r} for variables {names}")


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
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0]))

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
            {k: ctx.coerce(self.ctx.to_complex(v)) for k, v in self.coeffs.items()},
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
        return self + (-other)

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
        if self.order is INF and other.order is INF:
            order = INF
        else:
            order = _norm_order(
                min(self.order + other.valuation, other.order + self.valuation)
            )
        out = {}
        finite = order is not INF
        bitems = list(other.coeffs.items())
        for (i1, j1), c1 in self.coeffs.items():
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
        return Series2(self.ctx, out, order, self.names)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("use pow_scalar for non-integer exponents")
        return self._int_pow(n, None)

    def _int_pow(self, n: int, order):
        if n < 0:
            return self.invert_unit(order)._int_pow(-n, order)
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
        idx = _axis_index(axis, self.names)
        out = {}
        for (i, j), c in self.coeffs.items():
            e = i if idx == 0 else j
            if e == 0:
                continue
            k = (i - 1, j) if idx == 0 else (i, j - 1)
            out[k] = c * self.ctx.from_int(e)
        order = self.order if self.order is INF else self.order - 1
        return Series2(self.ctx, out, order, self.names)

    def ord_along_axis(self, axis) -> int:
        """Least exponent of the axis variable carried by a known term."""
        idx = _axis_index(axis, self.names)
        if not self.coeffs:
            raise ZeroSeries(
                "all known coefficients vanish"
                + ("" if self.order is INF else "; raise the truncation order")
            )
        return min(k[idx] for k in self.coeffs)

    def div_monomial(self, i0: int, j0: int) -> "Series2":
        """Exact division by z1^i0 * z2^j0 (Laurent shift in z1 only)."""
        out = {}
        for (i, j), c in self.coeffs.items():
            if j - j0 < 0:
                raise DivisionFailure(
                    f"{self.names[1]}^{j0} does not divide this series"
                )
            out[(i - i0, j - j0)] = c
        order = self.order if self.order is INF else self.order - i0 - j0
        return Series2(self.ctx, out, order, self.names)

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
        if order is None:
            return self.order if self.order is not INF else DEFAULT_ORDER
        return order if self.order is INF else min(order, self.order)

    def invert_unit(self, order=None) -> "Series2":
        if not self.is_unit:
            raise NotAUnit("invert_unit: constant term vanishes or series has a pole")
        cinv = self.ctx.inv(self.constant_term)
        if len(self.coeffs) == 1:
            return Series2(self.ctx, {(0, 0): cinv}, self.order, self.names)
        return self._unit_power(self.ctx.from_int(-1), cinv, order)

    def exp(self, order=None) -> "Series2":
        if self.pole:
            raise ValuationError("exp requires a pole-free series")
        order = self._resolve_order(order)
        c = self.constant_term
        lead = self.ctx.exp(c) if not self.ctx.is_zero(c) else self.ctx.one
        return self._graded(order, self.ctx.one, 0).scale(lead)

    def log(self, order=None) -> "Series2":
        if not self.is_unit:
            raise NotAUnit("log requires a unit series")
        order = self._resolve_order(order)
        c = self.constant_term
        lead = self.ctx.zero if self.ctx.eq(c, self.ctx.one) else self.ctx.log(c)
        u = self.scale(self.ctx.inv(c))
        return u._graded(order, self.ctx.one, 1, log=True) + lead

    def pow_scalar(self, e, order=None) -> "Series2":
        """Raise to a scalar power; integer exponents reduce to products."""
        n = _as_int(e)
        if n is not None:
            return self._int_pow(n, None if order is None else order)
        if not self.is_unit:
            raise NotAUnit("fractional powers require a unit base")
        lead = self.ctx.pow(self.constant_term, e)
        return self._unit_power(_exponent_scalar(self.ctx, e), lead, order)

    def sqrt(self, order=None) -> "Series2":
        if not self.is_unit:
            raise NotAUnit("sqrt requires a unit series")
        lead = self.ctx.sqrt(self.constant_term)
        return self._unit_power(_exponent_scalar(self.ctx, Fraction(1, 2)), lead, order)

    def _unit_power(self, alpha, lead, order) -> "Series2":
        """``lead * (self / c)**alpha`` for this unit with constant term ``c``."""
        u = self.scale(self.ctx.inv(self.constant_term))
        return u._graded(self._resolve_order(order), alpha + self.ctx.one, 1).scale(lead)

    def _graded(self, order, a, b, log=False) -> "Series2":
        """The series P solved degree by degree through ``order`` from the
        parts U_k (k >= 1) of this pole-free series by the Euler recurrence
        d*P_d = sum_{k=1..d} (a*k - b*d)*U_k*P_{d-k} [+ d*U_d if log], with
        P_0 = 1 (0 if log).  For U_0 = 1, (a, b) = (1, 0) gives exp(U - 1),
        (alpha + 1, 1) gives U**alpha and (1, 1) with log gives log(U)."""
        ctx = self.ctx
        parts = _forms(self, 0, order)
        target = parts if log else [{}] * (order + 1)
        start = [{} if log else {0: ctx.one}]
        solved = _graded_solve(ctx, target, ctx.one, start, parts, (a, b))
        return _from_forms(ctx, solved, 0, order, self.names)

    # -- composition ----------------------------------------------------

    def substitute(self, inner1: "Series2", inner2: "Series2", order=None) -> "Series2":
        """Formal composition s(inner1, inner2).

        Both inner series must fix the origin, except that an exact
        finitely-supported outer series may be recentered (nonzero inner
        constants are then legal and the result stays exact).  A Laurent
        outer series additionally needs ``inner1 = z1 * (unit)`` so that
        negative powers expand through ``invert_unit``.
        """
        inner1._check_compat(inner2)
        if self.ctx != inner1.ctx:
            raise BackendMismatch("backend mismatch in substitution")
        const_shift = not (
            inner1.ctx.is_zero(inner1.constant_term)
            and inner2.ctx.is_zero(inner2.constant_term)
        )
        if const_shift and self.order is not INF:
            raise ValuationError(
                "inner series has a nonzero constant term against an "
                "infinite-tail outer series"
            )
        inv1 = None
        if any(i < 0 for (i, _) in self.coeffs):
            u = None
            if not inner1.is_zero() and min(i for (i, _) in inner1.coeffs) >= 1:
                u = inner1.div_monomial(1, 0)
            if u is None or not u.is_unit:
                raise ValuationError(
                    "Laurent substitution needs inner1 of the form z1*(unit)"
                )
            inv1 = u.invert_unit(order) * Series2.monomial(
                u.ctx, -1, 0, names=u.names
            )
        target = order
        if self.order is not INF:
            target = self.order if target is None else min(target, self.order)

        names = inner1.names
        ctx = self.ctx
        one = Series2.const(ctx, ctx.one, INF if target is None else target, names)

        def trunc(s):
            return s if target is None else s.truncated(target)

        pow2_cache = {0: one}

        def pow2(n):
            if n not in pow2_cache:
                best = max(k for k in pow2_cache if k <= n)
                p = pow2_cache[best]
                for k in range(best + 1, n + 1):
                    p = trunc(p * inner2)
                    pow2_cache[k] = p
            return pow2_cache[n]

        rows = {}
        for (i, j), c in self.coeffs.items():
            rows.setdefault(i, {})[j] = c

        def eval_row(jmap):
            js = sorted(jmap, reverse=True)
            acc = Series2.const(ctx, jmap[js[0]], INF, names)
            prev = js[0]
            for j in js[1:]:
                acc = trunc(acc * pow2(prev - j)) + jmap[j]
                prev = j
            return trunc(acc * pow2(prev)) if prev else acc

        pos = {i: eval_row(r) for i, r in rows.items() if i >= 0}
        neg = {i: eval_row(r) for i, r in rows.items() if i < 0}

        def horner(parts, base):
            if not parts:
                return Series2.zero(ctx, INF if target is None else target, names)
            exps = sorted(parts, reverse=True)
            acc = parts[exps[0]]
            prev = exps[0]
            for e in exps[1:]:
                for _ in range(prev - e):
                    acc = trunc(acc * base)
                acc = acc + parts[e]
                prev = e
            for _ in range(prev):
                acc = trunc(acc * base)
            return acc

        result = horner(pos, inner1)
        if neg:
            flipped = {-i: s for i, s in neg.items()}
            result = result + horner(flipped, inv1)
        if self.order is not INF:
            result = result.truncated(self.order)
        if order is not None:
            result = result.truncated(order)
        return result

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


def _graded_solve(ctx, target, lead, solved, cross=None, euler=None, qdeg=0):
    """Extend the forms ``solved`` (q_e of degree qdeg + e, as {z1-exponent: c})
    through the degrees of ``target`` by Brent & Kung's (J. ACM 25, 1978)
    lead * q_e = target_e + sum_{k>=1} w(k, e) * cross_k * q_{e-k}.

    w is the Euler weight (a*k - b*e)/e for ``euler = (a, b)`` (exp, log,
    powers), else -1 (quotients, roots).  ``lead`` is a scalar, or a form
    divided out exactly at each degree; ``cross`` defaults to q itself (a
    square root, lead 2*q_0).  None when a division by the form fails.
    """
    q = list(solved)
    square = cross is None
    cross = q if square else cross
    scale = None if isinstance(lead, dict) or lead == ctx.one else ctx.inv(lead)
    for e in range(len(q), len(target)):
        acc = dict(target[e])
        einv = ctx.from_rational(Fraction(1, e)) if euler else None
        for k in range(1, (e // 2 if square else min(e, len(cross) - 1)) + 1):
            lower, part = q[e - k], cross[k]
            w = (euler[0] * k - euler[1] * e) * einv if euler else None
            if not lower or not part or (euler and not w):
                continue
            twice = square and 2 * k < e  # q_k q_{e-k} stands for q_{e-k} q_k too
            for x1, c1 in part.items():
                c1 = -c1 if w is None else c1 * w
                c1 = c1 + c1 if twice else c1
                for x2, c2 in lower.items():
                    key = x1 + x2
                    p = c1 * c2
                    acc[key] = acc[key] + p if key in acc else p
        if isinstance(lead, dict):
            qe = _homog_div(acc, lead, ctx, qdeg + e)
            if qe is None:
                return None
        else:
            qe = {x: c if scale is None else c * scale for x, c in acc.items() if c}
        q.append(qe)
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


def _exponent_scalar(ctx, e):
    if isinstance(e, (int, Fraction)):
        return ctx.from_rational(e)
    return ctx.coerce(e)


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

    def reverse(self, order=None) -> "CoordMap":
        return reverse_map(self, order)


def reverse_map(phi: CoordMap, order=None) -> CoordMap:
    """Compositional inverse by graded jet lifting.

    Solves the linear part, then corrects one total degree per pass, so the
    result is exact through the guaranteed order of the input map.
    """
    ctx = phi.ctx
    names = phi.names
    if order is None or order is INF:
        finite = [o for o in (phi.comp1.order, phi.comp2.order) if o is not INF]
        order = min(finite) if finite else DEFAULT_ORDER
    a11, a12, a21, a22 = phi.jacobian_origin()
    det = a11 * a22 - a12 * a21
    if ctx.is_zero(det):
        raise SingularJacobian("coordinate map has vanishing Jacobian at the origin")
    dinv = ctx.inv(det)
    b11, b12 = a22 * dinv, -a12 * dinv
    b21, b22 = -a21 * dinv, a11 * dinv

    def lin_inv(s1, s2):
        return (s1.scale(b11) + s2.scale(b12), s1.scale(b21) + s2.scale(b22))

    def high_part(s):
        return Series2(
            ctx,
            {k: c for k, c in s.coeffs.items() if k[0] + k[1] >= 2},
            s.order,
            names,
        )

    h1, h2 = high_part(phi.comp1), high_part(phi.comp2)
    v1 = Series2.variable(ctx, 0, order, names)
    v2 = Series2.variable(ctx, 1, order, names)
    psi1, psi2 = lin_inv(v1, v2)
    for d in range(2, order + 1):
        e1 = v1 - h1.substitute(psi1, psi2, d)
        e2 = v2 - h2.substitute(psi1, psi2, d)
        psi1, psi2 = lin_inv(e1, e2)
        psi1, psi2 = psi1.truncated(d), psi2.truncated(d)
    # the graded construction determines the degree<=order jet exactly
    psi1 = Series2(ctx, psi1.coeffs, order, names)
    psi2 = Series2(ctx, psi2.coeffs, order, names)
    return CoordMap(psi1, psi2)
