"""The differential-operator test for closedness and first-kind structure.

The complexified Gaussian curvature of ``E dz1^2 + 2F dz1 dz2 + G dz2^2``
vanishes exactly when the differential is (locally) a product of closed
1-forms.  To avoid series division by the discriminant the test works with
the numerator alone: the difference of the two classical 3x3 determinants
built from E, F, G and their first and second derivatives.  Both share the
minor E G - F^2, which is the discriminant the differential already holds,
so the numerator is expanded around ``w.disc`` (Brioschi's formula) instead
of computing that minor again.  On a rank-2 differential the numerator
vanishing through the guaranteed order is the closedness verdict; on rank-1
input the equivalence does not apply and the report says so instead of
guessing.

The chart-form decomposition g(z1, z2) = f(z1) h(z2) and the uniqueness
comparison of two closed decompositions (equal up to a constant pair
(c, 1/c)) live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .differentials import OneForm, SymTwoDiff, rank
from .errors import Inconclusive, Mismatch, NotAUnit, NotSeparable
from .series import INF, Series2


def brioschi_numerator(w: SymTwoDiff) -> Series2:
    """Difference of the two curvature determinants, complexified.

    With E = a, F = b/2, G = c and subscripts u, v for the two variables:

        M1 = | -E_vv/2 + F_uv - G_uu/2   E_u/2        F_u - E_v/2 |
             | F_v - G_u/2               E            F           |
             | G_v/2                     F            G           |

        M2 = | 0       E_v/2   G_u/2 |
             | E_v/2   E       F     |
             | G_u/2   F       G     |

    and the numerator is det M1 - det M2.  Both determinants share the
    lower-right minor E G - F^2, the discriminant ``w.disc``; expanding
    each along its first row with M1 = [[A, B, C], [D, E, F], [H, F, G]]
    and P = E_v/2, Q = G_u/2 gives

        A disc + G (P^2 - B D) + F (B H + C D - 2 P Q) + E (Q^2 - C H).
    """
    half = w.ctx.from_rational(Fraction(1, 2))
    E = w.a
    F = w.b.scale(half)
    G = w.c
    Eu, Ev = E.derive(0), E.derive(1)
    Fu, Fv = F.derive(0), F.derive(1)
    Gu, Gv = G.derive(0), G.derive(1)
    P, Q = Ev.scale(half), Gu.scale(half)
    A = Fu.derive(1) - Ev.derive(1).scale(half) - Gu.derive(0).scale(half)
    B, C = Eu.scale(half), Fu - P
    D, H = Fv - Q, Gv.scale(half)
    return (
        A * w.disc
        + G * (P * P - B * D)
        + F * (B * H + C * D - (P * Q).scale(2))
        + E * (Q * Q - C * H)
    )


@dataclass
class ClosednessReport:
    numerator: Series2
    verdict: str  # "yes" | "no" | "inconclusive"
    rank: int | None
    note: str = ""


def is_closed(w: SymTwoDiff) -> ClosednessReport:
    """Closedness verdict: numerator must vanish and the rank must be 2."""
    numerator = brioschi_numerator(w)
    try:
        r = rank(w)
    except Inconclusive as exc:
        return ClosednessReport(numerator, "inconclusive", None, str(exc))
    if r < 2:
        return ClosednessReport(
            numerator, "inconclusive", r,
            "rank 1: the curvature criterion applies to rank-2 differentials only",
        )
    if numerator.is_zero():
        note = "" if numerator.order is INF else (
            f"numerator vanishes through guaranteed order {numerator.order}"
        )
        return ClosednessReport(numerator, "yes", r, note)
    return ClosednessReport(numerator, "no", r)


def first_kind_decompose(g: Series2):
    """Factor the chart form g dz1 dz2 as f(z1) h(z2), or certify failure.

    The gauge puts the constant into f: f = g(z1, 0), h = g(0, z2)/g(0, 0).
    """
    if not g.is_unit:
        raise NotAUnit("chart-form decomposition requires g(0,0) != 0")
    ctx = g.ctx
    f = g.slice_z2_zero()
    h = g.slice_z1_zero().scale(ctx.inv(g.constant_term))
    recomposed = f.to_series2(0, g.names) * h.to_series2(1, g.names)
    residual = g - recomposed
    if residual.is_zero():
        return f, h
    raise NotSeparable(residual)


def separability_defect(g: Series2) -> Series2:
    """g*g_12 - g_1*g_2, the obstruction to separating variables."""
    return g * g.derive(0).derive(1) - g.derive(0) * g.derive(1)


def compare_decompositions(d1, d2):
    """Match two closed decompositions of the same differential.

    Returns the constant pair (c, 1/c) with d2 = (c mu1, mu2 / c) relative
    to d1 after aligning the factors by foliation (wedge test); raises
    Mismatch when the ratio is not a constant.
    """
    eta1, eta2 = d1
    nu1, nu2 = d2
    if eta1.wedge(nu1).is_zero() and eta2.wedge(nu2).is_zero():
        pass
    elif eta1.wedge(nu2).is_zero() and eta2.wedge(nu1).is_zero():
        nu1, nu2 = nu2, nu1
    else:
        raise Mismatch("factors do not define the same pair of foliations")
    ctx = eta1.ctx

    def constant_ratio(eta: OneForm, mu: OneForm):
        lead = mu.A if not mu.A.is_zero() else mu.B
        key = min((i + j, i, j) for (i, j) in lead.coeffs)
        num = (eta.A if not mu.A.is_zero() else eta.B).coefficient(key[1], key[2])
        den = lead.coefficient(key[1], key[2])
        c = num * ctx.inv(den)
        if not (eta.A.eq_through(mu.A.scale(c)) and eta.B.eq_through(mu.B.scale(c))):
            raise Mismatch("factor ratio is not a constant")
        return c

    c1 = constant_ratio(nu1, eta1)
    c2 = constant_ratio(nu2, eta2)
    if not ctx.eq(c1 * c2, ctx.one):
        raise Mismatch("scaling constants do not multiply to 1")
    return c1, c2


def verify_abelian_relation(fs, mus) -> bool:
    """Check sum(f_i mu_i) = 0 with df_i ^ mu_i = 0, coefficient-exactly."""
    f1, f2 = fs
    mu1, mu2 = mus
    if not (f1 * mu1.A + f2 * mu2.A).is_zero():
        return False
    if not (f1 * mu1.B + f2 * mu2.B).is_zero():
        return False
    for f, mu in ((f1, mu1), (f2, mu2)):
        if not (f.derive(0) * mu.B - f.derive(1) * mu.A).is_zero():
            return False
    return True
