"""Tour of the series substrate: truncated bivariate series with exact or
tolerant-complex coefficients, Laurent behaviour in z1, transcendental
operations, composition and reversion.

Run:  python demos/01_series_engine.py
"""

from fractions import Fraction

from symdiff2 import EXACT, APPROX, CoordMap, Series2, reverse_map

ctx = EXACT
z1 = Series2.variable(ctx, 0)
z2 = Series2.variable(ctx, 1)
one = Series2.const(ctx, 1)

print("== ring arithmetic is exact ==")
print("(1+z1)(1-z1)            =", (one + z1) * (one - z1))
print("z1^-1 * z1              =", Series2.monomial(ctx, -1, 0) * z1)

print()
print("== units invert, with the guarantee tracked ==")
u = one + z1 * z2
inv = u.invert_unit(8)
print("(1+z1 z2)^-1            =", inv)
print("product check           =", (u * inv).eq_through(one))

print()
print("== transcendental operations need the right domain ==")
print("log(1+z1)               =", (one + z1).log(6))
print("(1+z2)^(1/2)            =", (one + z2).pow_scalar(Fraction(1, 2), 4))
print("exp(log(1+z1+z2)) == it :", (one + z1 + z2).log(8).exp(8).eq_through(one + z1 + z2))

print()
print("== composition, including Laurent outer series ==")
p = z1 * (one + z1 * z2)
pole = Series2.monomial(ctx, -1, 0)
print("p^-1 at p=z1(1+z1 z2)   =", pole.substitute(p, Series2.zero(ctx), 8))

print()
print("== reversion by graded jet lifting ==")
phi = CoordMap((z1 + z1 * z1).truncated(6), z2.truncated(6))
psi = reverse_map(phi)
print("inverse of v -> v+v^2   =", psi.comp1)
round1 = phi.compose(psi)
print("roundtrip is identity   =", round1.comp1.eq_through(z1.truncated(6)))

print()
print("== the approx backend matches to 1e-9 ==")
ua = u.as_backend(APPROX)
la = ua.log(8)
le = u.log(8)
agree = all(
    APPROX.eq(complex(c), la.coefficient(i, j)) for (i, j), c in le.coeffs.items()
)
print("log agrees across backends:", agree)
