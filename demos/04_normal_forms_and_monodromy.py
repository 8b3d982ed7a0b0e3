"""The ladder of breakdown behaviour along a common leaf.

A split closed differential near a common leaf {z1 = 0} can fail to have a
holomorphic closed decomposition in three escalating ways, and the singular
decomposition solver measures all of them from the normal form

    v(z1, z2) dz1 d[z1 (1 + z1^m z2)]:

recovered data (k, alpha, f, g) with w's closed factors

    z1^(k-alpha) e^{f(z1)} dz1   and   p^alpha e^{g(p)} dp.

* alpha not an integer   -> multivalued factors (monodromy exp(2 pi i alpha));
* integer alpha outside [0, k] -> meromorphic factors;
* poles in f or g        -> essential singularities (bounded by the contact
  order m).

Run:  python demos/04_normal_forms_and_monodromy.py
"""

from fractions import Fraction

from symdiff2 import (
    APPROX,
    EXACT,
    DegenerateBasePoint,
    DifferentialInput,
    analyze_product_form,
)


def product_form(scale, u, r):
    """w = scale * d(u) * d(r), entered as expression strings."""
    return DifferentialInput.from_strings({"scale": scale, "u": u, "r": r})


def show(title, res):
    dec = res.decomposition
    leaf = res.leaf
    print(f"-- {title}")
    print(f"   contact order m = {res.normal_form.m}, divisorial zero k = {dec.k}")
    alpha = dec.alpha
    print(f"   alpha = {alpha}, f = {dec.f}, g = {dec.g}")
    print(f"   residual zero: {dec.residual_zero}")
    mi = leaf.monodromy
    order = {"trivial": "trivial", "finite": f"finite ({mi.order})",
             "infinite": "infinite"}[mi.order_type]
    print(f"   singularity: {leaf.singularity}, monodromy: {order}")
    print(f"   first kind: {leaf.first_kind}, in breakdown locus: {leaf.in_breakdown}")
    print()


print("== 1. pure monodromy: w = (1+z2)^(1/2) dz1 d[z1(1+z2)] ==")
w = product_form("(1+z2)^(1/2)", "z1", "z1*(1+z2)")
res = analyze_product_form(*w.product_factors(EXACT, 12), order=12)
show("factors acquire multipliers {-1, -1} around the leaf", res)

print("== 1b. irrational exponent: infinite monodromy (approx backend) ==")
w = product_form("(1+z2)^(1.4142135623730951)", "z1", "z1*(1+z2)")
res = analyze_product_form(*w.product_factors(APPROX, 12), order=12)
show("no finite cover makes the factors single-valued", res)

print("== 2. meromorphic factors: w = dz1^2 + z1 z2 dz1 dz2 ==")
print("   (entered as e^{-z2^2/2} d(z1) d(z1 e^{z2^2/2}))")
w = product_form("exp(-(z2^2)/2)", "z1", "z1*exp(z2^2/2)")
try:
    analyze_product_form(*w.product_factors(EXACT, 12), order=12)
except DegenerateBasePoint as exc:
    print("   base point at the origin is degenerate:", exc)
# recenter z2 at 1 on the expressions, before any series is built
res = analyze_product_form(*w.product_factors(EXACT, 12, Fraction(1)), order=12)
show("alpha = -1 forces a pole in one factor (d(z1^2/2) * (dz1/z1 + z2 dz2))", res)

print("== 3. essential singularities: w = e^{z2/(1+z1 z2)} dz1 d[z1(1+z1 z2)] ==")
w = product_form("exp(z2/(1+z1*z2))", "z1", "z1*(1+z1*z2)")
res = analyze_product_form(*w.product_factors(EXACT, 12), order=12)
show("the factors are e^{1/z1} dz1 and e^{-1/p} dp: essential along the leaf", res)

print("== 4. no breakdown at all: w = d(z1+z1^2) d(z1(1+z2)) ==")
w = product_form("1", "z1+z1^2", "z1*(1+z2)")
res = analyze_product_form(*w.product_factors(EXACT, 10), order=10)
show("holomorphic closed factors exist (first kind)", res)

print("The same analyses are scriptable: echo '{...job...}' | symdiff2 theorem26")
