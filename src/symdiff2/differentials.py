"""The algebra of symmetric 2-differentials and 1-forms.

A :class:`SymTwoDiff` is the coefficient triple of
``a dz1^2 + b dz1 dz2 + c dz2^2``; a :class:`OneForm` is ``A dz1 + B dz2``.
This module computes products, discriminants (``a c - b^2 / 4``), rank,
local splittings into two 1-forms (with a certificate when the splitting is
obstructed by odd discriminant multiplicity), pullbacks along coordinate
maps and along monomial ramified covers of the first variable, and the
parity/geometry classification of discriminant components.

A :class:`SymTwoDiff` is immutable and holds its discriminant: ``w.disc`` is
computed on first use and shared by every stage that reads it (rank,
splitting, core discriminant, component classification), as are the
multiplicities measured along each component series.

Component multiplicities are computed by exact division in the local series
ring.  Division and the square root behind splitting, of a unit or not, call
the graded solver of ``series`` with one exact homogeneous division per
degree.  Irreducible components are supplied explicitly as polynomials (the
coordinate axes in all the worked cases); no factorization is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    DivisionFailure,
    Inconclusive,
    NotSplit,
    SingularJacobian,
    ValuationError,
)
from .series import (DEFAULT_ORDER, INF, CoordMap, Series2, _forms, _from_forms,
                     _graded_solve)


@dataclass(frozen=True)
class OneForm:
    """A 1-form A dz1 + B dz2."""

    A: Series2
    B: Series2

    @property
    def ctx(self):
        return self.A.ctx

    @property
    def names(self):
        return self.A.names

    def wedge(self, other: "OneForm") -> Series2:
        """The coefficient of dz1 ^ dz2 in self ^ other."""
        return self.A * other.B - self.B * other.A

    def is_closed(self) -> bool:
        """Mixed-partial test: d(A dz1 + B dz2) = 0."""
        return (self.B.derive(0) - self.A.derive(1)).is_zero()

    def scale(self, x) -> "OneForm":
        return OneForm(self.A.scale(x), self.B.scale(x))

    def mul_series(self, s: Series2) -> "OneForm":
        return OneForm(self.A * s, self.B * s)

    def is_zero(self) -> bool:
        return self.A.is_zero() and self.B.is_zero()

    def eq_through(self, other: "OneForm") -> bool:
        return self.A.eq_through(other.A) and self.B.eq_through(other.B)

    def __str__(self):
        n1, n2 = self.names
        return f"({self.A}) d{n1} + ({self.B}) d{n2}"


@dataclass(frozen=True)
class SymTwoDiff:
    """A symmetric 2-differential a dz1^2 + b dz1 dz2 + c dz2^2."""

    a: Series2
    b: Series2
    c: Series2
    provenance: tuple | None = None  # (OneForm, OneForm) if built as a product

    @property
    def ctx(self):
        return self.a.ctx

    @property
    def names(self):
        return self.a.names

    @cached_property
    def disc(self) -> Series2:
        """The discriminant a c - b^2 / 4, computed once."""
        return discriminant(self)

    @cached_property
    def _content(self) -> dict:
        """Component series h -> (m, g), filled by ``_disc_and_content``."""
        return {}

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero() and self.c.is_zero()

    def eq_through(self, other: "SymTwoDiff") -> bool:
        return (
            self.a.eq_through(other.a)
            and self.b.eq_through(other.b)
            and self.c.eq_through(other.c)
        )

    def __str__(self):
        n1, n2 = self.names
        return f"({self.a}) d{n1}^2 + ({self.b}) d{n1}d{n2} + ({self.c}) d{n2}^2"


def product(mu: OneForm, nu: OneForm) -> SymTwoDiff:
    """The symmetric product of two 1-forms."""
    return SymTwoDiff(
        mu.A * nu.A,
        mu.A * nu.B + mu.B * nu.A,
        mu.B * nu.B,
        provenance=(mu, nu),
    )


def discriminant(w: SymTwoDiff) -> Series2:
    """a c - b^2 / 4."""
    quarter = w.ctx.from_rational(Fraction(1, 4))
    return w.a * w.c - (w.b * w.b).scale(quarter)


def rank(w: SymTwoDiff):
    """2 when the discriminant is visibly nonzero, 1 when it vanishes exactly.

    A discriminant that merely vanishes through a finite guaranteed order is
    reported as Inconclusive rather than guessed.
    """
    if w.is_zero():
        raise ValueError("rank of the zero differential is undefined")
    d = w.disc
    if not d.is_zero():
        return 2
    if d.order is INF:
        return 1
    raise Inconclusive(
        "discriminant vanishes through the guaranteed order; "
        "rank could be 1 or the truncation is too low"
    )


# -- local-ring division ----------------------------------------------------


def _bound(s: Series2, order):
    """The degree through which s / h or sqrt(s) is solved; never past s.order."""
    if order is not None:
        return order if s.order is INF else min(order, s.order)
    if s.order is not INF:
        return s.order
    return max(DEFAULT_ORDER, max(i + j for (i, j) in s.coeffs))


def try_divide(s: Series2, h: Series2, order=None):
    """Exact division s / h in the local ring, through the guaranteed order.

    ``h`` must be an exact polynomial vanishing at the origin or a monomial.
    Returns the quotient, or None when h does not divide s.
    """
    ctx = s.ctx
    if h.is_zero():
        raise ZeroDivisionError("division by the zero series")
    if h.order is not INF:
        raise DivisionFailure("divisor components must be exact polynomials")
    if s.pole or h.pole:
        raise ValuationError("local-ring division is defined for pole-free series")
    if s.is_zero():
        new_order = s.order if s.order is INF else s.order - h.valuation
        return Series2.zero(ctx, new_order, s.names)
    if len(h.coeffs) == 1:
        ((i0, j0), c0) = next(iter(h.coeffs.items()))
        if any(i < i0 or j < j0 for (i, j) in s.coeffs):
            return None
        return s.div_monomial(i0, j0).scale(ctx.inv(c0))
    d = h.valuation
    bound = _bound(s, order)
    if s.valuation < min(d, bound + 1):  # a term below h's lowest degree
        return None
    hparts = _forms(h, d, max(d, bound))
    forms = _graded_solve(ctx, _forms(s, d, bound), hparts[0], [], hparts)
    if forms is None:
        return None
    q = _from_forms(ctx, forms, 0, INF, s.names)
    if s.order is INF and (q * h).eq_through(s):
        return q
    return q.truncated(bound - d)


def _homog_sqrt(F: dict, ctx):
    """Square root of a form in x-encoding, or None when it is not a square.

    In y = top - x the root is a power series from sqrt(F[top]); F is a square
    exactly when that series, solved through y^top, stops at y^(top/2).  May
    raise ExactValueError when sqrt(F[top]) is not an exact scalar.
    """
    top = max(F)
    if top % 2:
        return None
    m = top // 2
    lead = ctx.sqrt(F[top])
    rev = [{0: F[top - e]} if top - e in F else {} for e in range(top + 1)]
    p = _graded_solve(ctx, rev, lead * ctx.from_int(2), [{0: lead}])
    if any(not ctx.is_zero(c) for form in p[m + 1:] for c in form.values()):
        return None
    return {m - e: c for e, form in enumerate(p[: m + 1]) for c in form.values()}


def perfect_square_root(s: Series2, order=None):
    """A series delta with delta^2 = s through the guaranteed order, or None.

    The lowest form of s must be the square of a form; each higher degree of
    delta is one exact homogeneous division by twice that root, so delta^2 = s
    wherever the solve succeeds.  This covers units and square discriminants
    whose vanishing is not aligned with the coordinate axes.
    """
    ctx = s.ctx
    if s.is_zero() or s.pole:
        return None
    v = s.valuation
    if v % 2:
        return None
    d = v // 2
    bound = _bound(s, order)
    target = _forms(s, v, max(v, bound))
    root = _homog_sqrt(target[0], ctx)
    if root is None:
        return None
    lead = {x: c * ctx.from_int(2) for x, c in root.items()}
    forms = _graded_solve(ctx, target, lead, [root], qdeg=d)
    if forms is None:
        return None
    exact = s.order is INF and len(s.coeffs) == 1  # the root of a monomial
    return _from_forms(ctx, forms, d, INF if exact else bound - d, s.names)


def multiplicity(s: Series2, h: Series2) -> int:
    """Largest k with h^k | s, decided through the guaranteed order."""
    if s.is_zero():
        raise Inconclusive("series vanishes; multiplicity is unbounded or unknown")
    count = 0
    cur = s
    while count <= 4 * DEFAULT_ORDER:
        nxt = try_divide(cur, h)
        if nxt is None:
            return count
        count += 1
        cur = nxt
        if cur.is_zero():
            raise Inconclusive(
                "quotient vanishes through the guaranteed order; "
                "multiplicity undecidable at this truncation"
            )
    raise Inconclusive("multiplicity loop exceeded sanity bound")


def _disc_and_content(w: SymTwoDiff, h: Series2):
    """(m, g): the multiplicity of h in the discriminant, and the content of w
    along h (the least multiplicity across the nonzero a, b, c); measured once
    per component series and kept on w."""
    if h not in w._content:
        m = multiplicity(w.disc, h)
        contents = [multiplicity(x, h) for x in (w.a, w.b, w.c) if not x.is_zero()]
        w._content[h] = m, min(contents) if contents else 0
    return w._content[h]


def _divide_out(s: Series2, h: Series2, times: int, message: str) -> Series2:
    """s / h^times by repeated exact division, or DivisionFailure(message)."""
    for _ in range(times):
        s = try_divide(s, h)
        if s is None:
            raise DivisionFailure(message)
    return s


def core_discriminant(w: SymTwoDiff, components):
    """Discriminant multiplicities and the core discriminant representative.

    ``components`` is a sequence of (label, polynomial) pairs.  For each
    component the multiplicity in the discriminant is computed by repeated
    exact division; the divisorial content of w along the component (the
    least multiplicity across a, b, c) is subtracted twice from the
    discriminant to produce the core representative.
    """
    if w.disc.is_zero():
        raise Inconclusive("discriminant vanishes; core discriminant undefined")
    table = {}
    core = w.disc
    for label, h in components:
        m, g = _disc_and_content(w, h)
        core = _divide_out(core, h, 2 * g, f"component {label} does not divide the "
                           f"discriminant at the requested multiplicity {2 * g}")
        table[label] = {"disc": m, "content": g, "core": m - 2 * g}
    return core, table


# -- splitting ---------------------------------------------------------------


def _axis_content(w: SymTwoDiff):
    parts = [s for s in (w.a, w.b, w.c) if not s.is_zero()]
    if not parts:
        raise ValueError("zero differential")
    g1 = max(0, min(s.ord_along_axis(0) for s in parts))
    g2 = max(0, min(s.ord_along_axis(1) for s in parts))
    return g1, g2


def _normalize_pair(mu1: OneForm, mu2: OneForm):
    """Deterministic gauge: order foliations by their lowest monomials, then
    rescale by a constant pair so the first factor is monic in its lowest term."""

    def monokey(s: Series2):
        if s.is_zero():
            return (1, ())  # sort after nonzero series
        k = min((i + j, i, j) for (i, j) in s.coeffs)
        return (0, k)

    def formkey(mu: OneForm):
        return (monokey(mu.A), monokey(mu.B))

    if formkey(mu2) < formkey(mu1):
        mu1, mu2 = mu2, mu1
    lead_series = mu1.A if not mu1.A.is_zero() else mu1.B
    key = min((i + j, i, j) for (i, j) in lead_series.coeffs)
    lam = lead_series.coefficient(key[1], key[2])
    ctx = mu1.ctx
    return mu1.scale(ctx.inv(lam)), mu2.scale(lam)


def split(w: SymTwoDiff):
    """Split a rank-2 differential into two 1-forms, or certify failure.

    Axis powers of even multiplicity are removed from -4 disc before taking
    the series square root; an odd multiplicity along an axis is exactly the
    splitting obstruction and is raised as a NotSplit certificate carrying
    the witness axis.
    """
    ctx = w.ctx
    names = w.names
    g1, g2 = _axis_content(w)
    a, b, c = (s.div_monomial(g1, g2) for s in (w.a, w.b, w.c))
    one = Series2.const(ctx, ctx.one, INF, names)
    if a.is_zero():
        mu1, mu2 = OneForm(Series2.zero(ctx, a.order, names), one), OneForm(b, c)
    elif c.is_zero():
        mu1, mu2 = OneForm(one, Series2.zero(ctx, c.order, names)), OneForm(a, b)
    else:
        # dividing by a monomial shifts coefficients and order alike, so this
        # is the discriminant of the axis-stripped a, b, c
        D = w.disc.div_monomial(2 * g1, 2 * g2).scale(-4)
        if D.is_zero():
            raise Inconclusive(
                "b^2 - 4ac vanishes through the guaranteed order; "
                "rank < 2 or precision exhausted"
            )
        k1 = max(0, D.ord_along_axis(0))
        k2 = max(0, D.ord_along_axis(1))
        if k1 % 2:
            raise NotSplit(names[0], k1)
        if k2 % 2:
            raise NotSplit(names[1], k2)
        root = perfect_square_root(D.div_monomial(k1, k2))
        if root is None:
            raise Inconclusive(
                "b^2 - 4ac is not a perfect series square after removing "
                "axis powers; cannot certify a splitting"
            )
        delta = root * Series2.monomial(ctx, k1 // 2, k2 // 2, names=names)
        half = ctx.from_rational(Fraction(1, 2))
        if a.is_unit:
            inv2a = a.scale(2).invert_unit()
            mu1 = OneForm(a, (b - delta).scale(half))
            mu2 = OneForm(one, (b + delta) * inv2a)
        elif c.is_unit:
            inv2c = c.scale(2).invert_unit()
            mu1 = OneForm((b - delta).scale(half), c)
            mu2 = OneForm((b + delta) * inv2c, one)
        else:
            for signed in (delta, -delta):
                cand = b + signed
                if cand.is_unit:
                    invc = cand.invert_unit()
                    mu1 = OneForm(cand.scale(half), c)
                    mu2 = OneForm(a.scale(2) * invc, one)
                    break
            else:
                raise Inconclusive(
                    "no unit normalization available for the split factors"
                )
    if g1 or g2:
        mono = Series2.monomial(ctx, g1, g2, names=names)
        mu1 = mu1.mul_series(mono)
    return _normalize_pair(mu1, mu2)


# -- pullbacks ---------------------------------------------------------------


def pullback(w: SymTwoDiff, phi: CoordMap) -> SymTwoDiff:
    """Chain rule along an invertible coordinate map."""
    if phi.ctx.is_zero(phi.det_origin()):
        raise SingularJacobian("pullback along a non-invertible map")
    a = w.a.substitute(phi.comp1, phi.comp2)
    b = w.b.substitute(phi.comp1, phi.comp2)
    c = w.c.substitute(phi.comp1, phi.comp2)
    d11, d12 = phi.comp1.derive(0), phi.comp1.derive(1)
    d21, d22 = phi.comp2.derive(0), phi.comp2.derive(1)
    return SymTwoDiff(
        a * d11 * d11 + b * d11 * d21 + c * d21 * d21,
        (a * d11 * d12).scale(2) + b * (d11 * d22 + d12 * d21) + (c * d21 * d22).scale(2),
        a * d12 * d12 + b * d12 * d22 + c * d22 * d22,
    )


def pullback_cover(w: SymTwoDiff, degree: int, new_var: str = "s") -> SymTwoDiff:
    """Pullback along the ramified cover z1 = s^degree (z2 unchanged)."""
    if degree < 1:
        raise ValueError("cover degree must be >= 1")
    ctx = w.ctx
    names = (new_var, w.names[1])
    inner1 = Series2.monomial(ctx, degree, 0, names=names)
    inner2 = Series2.variable(ctx, 1, INF, names)

    def comp(s):
        return s.with_names(names).substitute(inner1, inner2)

    jac = Series2.monomial(ctx, degree - 1, 0, coeff=degree, names=names)
    return SymTwoDiff(
        comp(w.a) * jac * jac,
        comp(w.b) * jac,
        comp(w.c),
    )


def jacobian_det(phi: CoordMap) -> Series2:
    """The full Jacobian determinant series of a coordinate map."""
    d11, d12 = phi.comp1.derive(0), phi.comp1.derive(1)
    d21, d22 = phi.comp2.derive(0), phi.comp2.derive(1)
    return d11 * d22 - d12 * d21


# -- component classification -------------------------------------------------


@dataclass(frozen=True)
class ComponentClass:
    """Parity and geometry of a discriminant component.

    ``parity`` is N (odd multiplicity, the non-split locus) or S (even);
    ``geometry`` is C for a common leaf of both foliations, R for a tangency
    that is not a leaf, "none" when neither test fires, and "undecided" when
    the differential does not split so the leaf test cannot run.
    """

    parity: str
    geometry: str
    mult_disc: int
    mult_core: int


def classify_component(w: SymTwoDiff, h: Series2, label: str = "h") -> ComponentClass:
    m, g = _disc_and_content(w, h)
    if m == 0:
        raise DivisionFailure(f"component {label} does not divide the discriminant")
    parity = "N" if m % 2 else "S"
    mult_core = m - 2 * g
    reduced = w
    if g:
        failed = f"content extraction along {label} failed"
        reduced = SymTwoDiff(*(_divide_out(s, h, g, failed) for s in (w.a, w.b, w.c)))
    try:
        mu1, mu2 = split(reduced)
    except (NotSplit, Inconclusive):
        return ComponentClass(parity, "undecided", m, mult_core)
    h1, h2 = h.derive(0), h.derive(1)

    def is_leaf(mu: OneForm) -> bool:
        # contraction with the tangent field (-dh/dz2, dh/dz1) of {h = 0}
        contraction = mu.B * h1 - mu.A * h2
        return try_divide(contraction, h) is not None

    if is_leaf(mu1) and is_leaf(mu2):
        geometry = "C"
    elif try_divide(mu1.wedge(mu2), h) is not None:
        geometry = "R"
    else:
        geometry = "none"
    return ComponentClass(parity, geometry, m, mult_core)
