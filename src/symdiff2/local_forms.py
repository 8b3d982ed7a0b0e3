"""Normal forms along a common leaf and the singular decomposition solver.

Given a split closed differential presented as ``h dv d r`` near a point of
a common leaf ``{v = 0}``, with ``r = v * (unit)``, there is a holomorphic
chart ``(z1, z2)`` in which the differential reads
``f(z1, z2) dz1 d[z1 (1 + z1^m z2)]``.  The integer ``m`` is the order of
contact of the two foliations along the leaf.  :func:`leaf_chart` builds
that chart constructively from the series data.

In the chart, a closed differential factors as

    z1^k (1 + z1^m z2)^alpha exp(f(z1)) exp(g(p)) dz1 dp,
    p = z1 (1 + z1^m z2)

with ``f`` and ``g`` Laurent series whose pole orders never exceed ``m`` and
whose pole coefficients cancel pairwise (g_i = -f_i below zero).
:func:`solve_singular_decomposition` recovers ``(k, alpha, f, g)`` from the
conformal factor by slicing the z2-derivative of its logarithm along
``{z2 = 0}``, and certifies the answer with an explicit residual that
vanishes exactly when the input was closed.  The exponent ``alpha``
determines the monodromy multiplier ``c = exp(2 pi i alpha)`` of the closed
factors around the leaf, and the classification of the leaf (first kind,
meromorphic or essential singularities, breakdown membership) is read off
the recovered data.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import (
    DegenerateBasePoint,
    NonzeroResidual,
    NotALeafPresentation,
    NotNormalized,
    PrecisionExhausted,
    ValuationError,
    ZeroSeries,
)
from .scalars import ScalarContext
from .series import DEFAULT_ORDER, INF, CoordMap, Series2, reverse_map

# -- data types ---------------------------------------------------------


@dataclass
class NormalFormData:
    """Output of the leaf chart construction.

    ``u = s(v1) + v1^m (t(v2) + v1 * gcorr)`` reproduces ``r / v1``; the
    chart is ``z1 = v1 s(v1)``, ``z2 = (t + v1 gcorr) / s^(m+1)`` and the
    conformal factor in the source coordinates is ``fout = h / (s + v1 s')``.
    """

    m: int
    s: Series2  # terms on the z1 axis
    t: Series2  # terms on the z2 axis
    gcorr: Series2
    chart: CoordMap
    fout: Series2


@dataclass
class SingularDecomposition:
    """The recovered factorization data (k, alpha, f, g) plus its residual.

    Gauge: g has zero constant term, the shared constant lives in f.  The
    residual is log(v / z1^k) - alpha*log(1 + z1^m z2) - f(z1) - g(p); it
    vanishes through the guaranteed order precisely when the input was a
    closed differential in normal form.
    """

    k: int
    alpha: object
    f: Series2  # terms on the z1 axis
    g: Series2  # terms on the p axis, names ("p", z2)
    residual: Series2
    m: int

    @property
    def residual_zero(self) -> bool:
        return self.residual.is_zero()


@dataclass
class MonodromyIndex:
    """The unordered multiplier pair {c, 1/c} around a breakdown component."""

    c: complex
    order_type: str  # "trivial" | "finite" | "infinite"
    order: int | None = None
    heuristic: bool = False
    note: str = ""

    @property
    def pair(self):
        cinv = 1 / self.c
        a, b = sorted(
            (self.c, cinv), key=lambda z: (round(z.real, 12), round(z.imag, 12))
        )
        return (a, b)


@dataclass
class LeafClass:
    """Per-leaf verdict: first-kind or breakdown, and the singularity type."""

    first_kind: bool
    singularity: str  # "none" | "meromorphic" | "essential"
    monodromy: MonodromyIndex
    in_breakdown: bool


# -- order of contact and the chart --------------------------------------


def order_of_contact(r: Series2) -> int:
    """Contact order of the two foliations along the leaf {v1 = 0}.

    ``r`` must present the leaf as r = v1 * (unit); the value is one less
    than the order of dr/dv2 along the leaf.  An r or dr/dv2 that vanishes
    identically presents no leaf; one that vanishes only through a finite
    guaranteed order raises ZeroSeries.
    """
    if r.is_zero():
        if r.order is INF:
            raise NotALeafPresentation("first integral vanishes identically")
        raise ZeroSeries("first integral vanishes through the guaranteed order")
    if r.ord_along_axis(0) != 1:
        raise NotALeafPresentation("first integral is not v1 * (unit)")
    u = r.div_monomial(1, 0)
    if not u.is_unit:
        raise NotALeafPresentation("first integral is not v1 * (unit)")
    dr = r.derive(1)
    if dr.is_zero():
        if dr.order is INF:
            raise NotALeafPresentation("dr/dv2 vanishes identically")
        raise ZeroSeries(
            "dr/dv2 vanishes through the guaranteed order; "
            "raise the truncation or check the presentation"
        )
    return dr.ord_along_axis(0) - 1


def leaf_chart(h: Series2, r: Series2) -> NormalFormData:
    """Construct the normal-form chart for w = h dv1 dr along {v1 = 0}.

    Raises DegenerateBasePoint when the transverse part has vanishing
    derivative at the base point; recentering v2 happens on the expressions
    (``DifferentialInput.product_factors``), before the series exist.
    """
    ctx = r.ctx
    names = r.names
    m = order_of_contact(r)
    u = r.div_monomial(1, 0)
    s = u.slice_z2_zero()
    t_order = u.order if u.order is INF else u.order - m
    t = Series2(
        ctx,
        {(0, j): c for (i, j), c in u.coeffs.items() if i == m and j >= 1},
        t_order,
        names,
    )
    if ctx.is_zero(t.coefficient(0, 1)):
        raise DegenerateBasePoint(
            "transverse derivative dt vanishes at the base point; "
            "retry with a nonzero base_shift"
        )
    v1 = Series2.variable(ctx, 0, INF, names)
    rest = u - s - t * Series2.monomial(ctx, m, 0, names=names)
    if rest.coeffs and min(i for (i, _) in rest.coeffs) < m + 1:
        raise PrecisionExhausted(
            "inconsistent contact-order decomposition; raise the truncation"
        )
    gcorr = rest.div_monomial(m + 1, 0)
    z1c = v1 * s
    s_pow = s._int_pow(m + 1, None)
    z2c = (t + v1 * gcorr) * s_pow.invert_unit()
    chart = CoordMap(z1c, z2c)
    recon = z1c * (
        Series2.const(ctx, ctx.one, INF, names)
        + z1c._int_pow(m, None) * z2c
    )
    if not recon.eq_through(r):
        raise PrecisionExhausted("chart identity failed at this truncation")
    den = s + v1 * s.derive(0)
    fout = h * den.invert_unit()
    return NormalFormData(m, s, t, gcorr, chart, fout)


# -- the singular decomposition solver ------------------------------------


def _factor_terms(ctx, f: Series2, g: Series2, m: int, order, names):
    """(1 + z1^m z2, f(z1), g(p)) with p = z1 (1 + z1^m z2), as bivariate series."""
    one = Series2.const(ctx, ctx.one, INF, names)
    unit_factor = one + Series2.monomial(ctx, m, 0, names=names) * Series2.variable(
        ctx, 1, INF, names
    )
    p = Series2.variable(ctx, 0, INF, names) * unit_factor
    return unit_factor, f, g.substitute(p, Series2.zero(ctx, INF, names), order)


def solve_singular_decomposition(v: Series2, m: int) -> SingularDecomposition:
    """Recover (k, alpha, f, g) from the conformal factor in normal form.

    Steps: strip the divisorial zero z1^k, take the logarithm, slice the
    z2-derivative along {z2 = 0}; alpha is the z1^m coefficient of the
    slice, the Laurent coefficients of g follow by dividing by the index,
    f is the z2 = 0 slice of the logarithm minus g, and the residual
    certifies the decomposition.
    """
    ctx = v.ctx
    names = v.names
    if m < 0:
        raise ValueError("contact order must be nonnegative")
    if v.pole:
        raise ValuationError("conformal factor must be holomorphic (no pole part)")
    if v.is_zero():
        raise ZeroSeries("conformal factor vanishes through the guaranteed order")
    N = v.order if v.order is not INF else DEFAULT_ORDER
    if N < m + 2:
        raise PrecisionExhausted(
            f"solver needs guaranteed order >= m + 2 = {m + 2}, got {N}"
        )
    k = v.ord_along_axis(0)
    vt = v.div_monomial(k, 0)
    if ctx.is_zero(vt.constant_term):
        raise NotNormalized(
            "conformal factor is not z1^k * (unit): its zero divisor is not "
            "a multiple of the leaf (non-closed or wrongly charted input)"
        )
    L = vt.log(N)
    D = L.derive(1).slice_z2_zero()
    alpha = D.coefficient(m, 0)
    reduced = D - Series2.monomial(ctx, m, 0, alpha, names=names)
    g_coeffs = {}
    for (e, _), cc in reduced.coeffs.items():
        i = e - m
        if i == 0:
            continue
        g_coeffs[(i, 0)] = cc * ctx.inv(ctx.from_int(i))
    g_order = reduced.order if reduced.order is INF else reduced.order - m
    g = Series2(ctx, g_coeffs, g_order, ("p", names[1]))
    f = L.slice_z2_zero() - g.with_names(names)
    if f.pole > m or g.pole > m:
        raise PrecisionExhausted(
            "recovered pole order exceeds the contact order; input is not in "
            "normal form at this truncation"
        )
    unit_factor, f_z, g_p = _factor_terms(ctx, f, g, m, N, names)
    alog = unit_factor.log(N).scale(alpha)
    residual = L - alog - f_z - g_p
    return SingularDecomposition(k=k, alpha=alpha, f=f, g=g, residual=residual, m=m)


def compose_singular_decomposition(
    ctx: ScalarContext, k: int, alpha, f: Series2, g: Series2, m: int, order: int,
    names=("z1", "z2"),
) -> Series2:
    """Rebuild the conformal factor z1^k (1+z1^m z2)^alpha e^f e^g(p).

    The pole parts of f and g must cancel (g_i = -f_i for i < 0), otherwise
    the product has no holomorphic meaning and a ValuationError is raised.
    """
    unit_factor, f_z, g_p = _factor_terms(ctx, f, g, m, order, names)
    expo = (f_z + g_p).truncated(order)
    if expo.pole:
        raise ValuationError(
            "pole parts of f and g do not cancel; no holomorphic factor exists"
        )
    v = expo.exp(order) * unit_factor.pow_scalar(alpha, order)
    if k:
        v = v * Series2.monomial(ctx, k, 0, names=names)
    return v


# -- monodromy -------------------------------------------------------------


def _best_rational(x: float, maxden: int):
    """Best continued-fraction convergent p/q of x with q <= maxden."""
    h0, k0, h1, k1 = 0, 1, 1, 0
    xx = x
    best = None
    for _ in range(64):
        a = math.floor(xx)
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        if k1 > maxden:
            break
        err = abs(x - h1 / k1)
        if best is None or err < best[2]:
            best = (h1, k1, err)
        if err == 0.0:
            break
        frac = xx - a
        if frac < 1e-18:
            break
        xx = 1.0 / frac
    return best


MAX_MONODROMY_DENOMINATOR = 10 ** 6


def monodromy_index(alpha, ctx: ScalarContext) -> MonodromyIndex:
    """The multiplier pair {c, 1/c} with c = exp(2 pi i alpha).

    Exact alphas decide rationality exactly.  On the approx backend a
    bounded continued-fraction reconstruction (denominators up to 10^6,
    acceptance threshold tol / q^2) is used and the verdict is flagged as
    heuristic.
    """
    z = ctx.to_complex(alpha)
    c = cmath.exp(2j * math.pi * z)
    if ctx.name == "exact":
        if alpha.im:
            return MonodromyIndex(c, "infinite", note="exponent has nonzero imaginary part")
        q = alpha.re
        if (4 * q).denominator == 1:  # a fourth root of unity, without libm rounding
            c = (1 + 0j, 1j, -1 + 0j, -1j)[int(4 * q) % 4]
        if q.denominator == 1:
            return MonodromyIndex(c, "trivial", order=1)
        return MonodromyIndex(c, "finite", order=q.denominator)
    tol = ctx.tol
    if abs(z.imag) > tol:
        return MonodromyIndex(
            c, "infinite", heuristic=True, note="exponent has nonzero imaginary part"
        )
    best = _best_rational(z.real, MAX_MONODROMY_DENOMINATOR)
    if best is not None:
        p, qden, err = best
        if err <= tol / (qden * qden):
            if qden == 1:
                return MonodromyIndex(c, "trivial", order=1, heuristic=True)
            return MonodromyIndex(c, "finite", order=qden, heuristic=True)
    return MonodromyIndex(
        c, "infinite", heuristic=True, note="infinite (no small rational found)"
    )


# -- leaf classification -----------------------------------------------------


def classify_leaf(d: SingularDecomposition) -> LeafClass:
    """Breakdown verdict for the leaf from the recovered decomposition.

    First kind needs an integer alpha within [0, k] and pole-free f, g (the
    factors z1^(k-alpha) e^f and p^alpha e^g are then both holomorphic).
    Poles in f or g mean essential singularities in the closed factors; an
    integer alpha outside [0, k] forces a meromorphic factor.
    """
    if not d.residual.is_zero():
        raise NonzeroResidual(
            "decomposition residual is nonzero; the input is not closed"
        )
    ctx = d.residual.ctx
    poles = d.f.pole or d.g.pole
    if ctx.name == "exact":
        is_int = d.alpha.is_integer
        n = int(d.alpha.re) if is_int else None
    else:
        z = complex(d.alpha)
        is_int = abs(z.imag) <= ctx.tol and abs(z.real - round(z.real)) <= ctx.tol
        n = round(z.real) if is_int else None
    in_range = is_int and 0 <= n <= d.k
    first_kind = in_range and not poles
    if poles:
        singularity = "essential"
    elif is_int and not in_range:
        singularity = "meromorphic"
    else:
        singularity = "none"
    return LeafClass(
        first_kind=first_kind,
        singularity=singularity,
        monodromy=monodromy_index(d.alpha, ctx),
        in_breakdown=not first_kind,
    )


# -- product-form pipeline -----------------------------------------------------


@dataclass
class LeafAnalysis:
    """End-to-end result of the normal-form pipeline on product-form input."""

    normal_form: NormalFormData
    chart_factor: Series2  # conformal factor expressed in the chart coordinates
    decomposition: SingularDecomposition | None = None
    leaf: LeafClass | None = None
    warnings: list = field(default_factory=list)


def analyze_product_form(
    h: Series2,
    u: Series2,
    r: Series2,
    *,
    order: int,
    m_override: int | None = None,
    solve: bool = True,
) -> LeafAnalysis:
    """Run the full pipeline on w = h * d(u) * d(r) given as series.

    The factors come from ``DifferentialInput.product_factors``, which also
    recenters z2 when the base point at the origin is degenerate.
    """
    ctx = u.ctx
    if not ctx.is_zero(u.constant_term):
        raise NotALeafPresentation(
            "the base point does not lie on the leaf {u = 0}; "
            "choose a base_shift with u(0, shift) = 0"
        )
    names = u.names
    warnings = []
    if len(u.coeffs) == 1 and (1, 0) in u.coeffs and ctx.eq(
        u.coefficient(1, 0), ctx.one
    ):
        h_v, r_v = h, r
    else:
        du1 = u.coefficient(1, 0)
        du2 = u.coefficient(0, 1)
        if ctx.is_zero(du1) and ctx.is_zero(du2):
            raise NotALeafPresentation("du vanishes at the base point")
        other = Series2.variable(ctx, 1 if not ctx.is_zero(du1) else 0, INF, names)
        phi = CoordMap(u.truncated(order), other.truncated(order))
        psi = reverse_map(phi, order)
        h_v = h.substitute(psi.comp1, psi.comp2)
        r_v = r.substitute(psi.comp1, psi.comp2)
        warnings.append("applied a preliminary chart to make u the first coordinate")
    nf = leaf_chart(h_v, r_v)
    inv = nf.chart.reverse(order)
    chart_factor = nf.fout.substitute(inv.comp1, inv.comp2).truncated(order)
    analysis = LeafAnalysis(nf, chart_factor, warnings=warnings)
    if not solve:
        return analysis
    m = nf.m if m_override is None else m_override
    if m != nf.m:
        analysis.warnings.append(
            f"contact order override {m} differs from the computed value {nf.m}"
        )
    dec = solve_singular_decomposition(chart_factor, m)
    analysis.decomposition = dec
    if dec.residual.is_zero():
        analysis.leaf = classify_leaf(dec)
    else:
        analysis.warnings.append(
            "nonzero residual: the differential is not closed in this chart"
        )
    return analysis
