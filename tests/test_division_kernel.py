"""Oracle for the graded solve behind try_divide and perfect_square_root.

The reference functions below are the earlier implementations: division
that keeps a remainder dictionary and subtracts every quotient term times
the whole divisor, and a root that recomputes ``s - delta*delta`` at every
degree and verifies the lowest form's square on its own.  On seeded random
exact inputs the graded solve must reproduce their coefficients, their
guaranteed orders and their None verdicts, with three intended differences:

- a lowest form with an odd top z1-exponent is not a square.  The reference
  took the root of its leading coefficient first and raised ExactValueError
  when that root is not a Gaussian rational;
- an explicit ``order`` above the input's own order is capped at it.  The
  reference solved on as if the unknown coefficients were zero, and claimed
  the higher order for the result (see ``reference_order``);
- an explicit ``order`` below the input's valuation is not compared.  The
  root is then known to vanish through that order, and the graded solve
  returns that zero root where the reference also tested the lowest form.
"""

import random

import pytest

from symdiff2 import APPROX, DEFAULT_ORDER, EXACT, INF, Series2, SymTwoDiff
from symdiff2.differentials import perfect_square_root, split, try_divide
from symdiff2.errors import DivisionFailure, ExactValueError, ValuationError
from symdiff2.expressions import DifferentialInput

from conftest import rand_poly2, rand_scalar


# -- the reference loops -----------------------------------------------------


def ref_homog_div(R, H, ctx, qdeg_max):
    Q = {}
    R = dict(R)
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


def ref_bound(s, order):
    if order is not None:
        return order
    if s.order is not INF:
        return s.order
    return max(DEFAULT_ORDER, max(i + j for (i, j) in s.coeffs))


def ref_try_divide(s, h, order=None):
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
    bound = ref_bound(s, order)
    H = {i: c for (i, j), c in h.coeffs.items() if i + j == d}
    rem = dict(s.coeffs)
    q = {}
    vmin = min(i + j for (i, j) in rem)
    for v in range(vmin, bound + 1):
        Rv = {i: c for (i, j), c in rem.items() if i + j == v and not ctx.is_zero(c)}
        if not Rv:
            continue
        Qv = ref_homog_div(Rv, H, ctx, v - d)
        if Qv is None:
            return None
        for qe, qc in Qv.items():
            qj = v - d - qe
            q[(qe, qj)] = qc
            for (hi, hj), hc in h.coeffs.items():
                k = (qe + hi, qj + hj)
                nv = rem.get(k, ctx.zero) - qc * hc
                if ctx.is_zero(nv):
                    rem.pop(k, None)
                else:
                    rem[k] = nv
    if s.order is INF:
        candidate = Series2(ctx, q, INF, s.names)
        if (candidate * h).eq_through(s) and not rem:
            return candidate
    return Series2(ctx, q, bound - d, s.names)


def ref_homog_sqrt(F, ctx):
    top = max(F)
    lead = ctx.sqrt(F[top])
    m = top // 2 if top % 2 == 0 else None
    if m is None:
        return None
    p = {m: lead}
    inv2lead = ctx.inv(lead * ctx.from_int(2))
    for s in range(top - 1, m - 1, -1):
        e = s - m
        acc = F.get(s, ctx.zero)
        for j, cj in list(p.items()):
            k = s - j
            if k in p and j > e and k > e:
                if j <= k:
                    term = cj * p[k]
                    acc = acc - (term if j == k else term * ctx.from_int(2))
        coeff = acc * inv2lead
        if not ctx.is_zero(coeff):
            p[e] = coeff
    square = {}
    for j, cj in p.items():
        for k, ck in p.items():
            square[j + k] = square.get(j + k, ctx.zero) + cj * ck
    for key in set(F) | set(square):
        if not ctx.eq(F.get(key, ctx.zero), square.get(key, ctx.zero)):
            return None
    return p


def ref_perfect_square_root(s, order=None):
    ctx = s.ctx
    if s.is_zero() or s.pole:
        return None
    v = s.valuation
    if v % 2:
        return None
    d = v // 2
    bound = ref_bound(s, order)
    F = {i: c for (i, j), c in s.coeffs.items() if i + j == v}
    H = ref_homog_sqrt(F, ctx)
    if H is None or max(H) > d:
        return None
    twoH = {e: c * ctx.from_int(2) for e, c in H.items()}
    delta = Series2(ctx, {(e, d - e): c for e, c in H.items()}, bound - d, s.names)
    for t in range(v + 1, bound + 1):
        rem = s - delta * delta
        Rt = {i: c for (i, j), c in rem.coeffs.items() if i + j == t and not ctx.is_zero(c)}
        if not Rt:
            continue
        Q = ref_homog_div(Rt, twoH, ctx, t - d)
        if Q is None:
            return None
        delta = delta + Series2(
            ctx, {(e, t - d - e): c for e, c in Q.items()}, bound - d, s.names
        )
    if not (delta * delta).eq_through(s.truncated(bound)):
        return None
    return delta


# -- seeded random inputs ----------------------------------------------------


def rand_form(rnd, deg, nterms=3):
    """A random homogeneous exact polynomial of degree ``deg``, not zero."""
    while True:
        terms = {}
        for _ in range(nterms):
            i = rnd.randint(0, deg)
            terms[(i, deg - i)] = rand_scalar(EXACT, rnd)
        form = Series2(EXACT, terms, INF)
        if not form.is_zero():
            return form


def rand_divisor(rnd):
    """A polynomial vanishing at the origin with at least two terms."""
    while True:
        h = rand_form(rnd, rnd.randint(1, 2)) + rand_poly2(EXACT, rnd, deg=4, nterms=2)
        h = h - h.constant_term
        if len(h.coeffs) >= 2 and h.valuation >= 1:
            return h


def variants(rnd, s):
    """(input, explicit order) pairs: polynomial, truncated at N = 8..12, and
    with an explicit order at or above the input's valuation."""
    N = rnd.randint(8, 12)
    low = s.valuation if not s.is_zero() else 0
    return [(s, None), (s.truncated(N), None), (s, max(low, rnd.randint(6, 12))),
            (s.truncated(N), max(low, rnd.randint(6, N + 3)))]


def reference_order(x, order):
    """The order to hand the reference: the solve stops where the input is known."""
    return order if order is None or x.order is INF else min(order, x.order)


def assert_same(got, want):
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got.coeffs == want.coeffs
        assert got.order == want.order


def division_cases(seeds=range(4), count=50):
    """(kind, input, explicit order, divisor) on seeded random exact inputs."""
    for seed in seeds:
        rnd = random.Random(seed)
        for _ in range(count):
            h = rand_divisor(rnd)
            q = rand_poly2(EXACT, rnd, deg=rnd.randint(0, 5), nterms=rnd.randint(1, 5))
            kind = rnd.choice(("divisible", "divisible", "perturbed", "random"))
            if kind == "divisible":
                s = q * h
            elif kind == "perturbed":
                s = q * h + rand_form(rnd, rnd.randint(1, 8), nterms=1)
            else:
                s = rand_poly2(EXACT, rnd, deg=6, nterms=6)
            for x, order in variants(rnd, s):
                yield kind, x, order, h


def test_try_divide_matches_reference():
    verdicts = set()
    for kind, x, order, h in division_cases():
        want = ref_try_divide(x, h, reference_order(x, order))
        assert_same(try_divide(x, h, order), want)
        verdicts.add((kind, want is None))
    # the inputs reach both verdicts, for exact and for non-divisible input
    assert ("divisible", False) in verdicts and ("random", True) in verdicts


def above(rnd, deg, nterms):
    """Random exact terms of total degree above ``deg``."""
    terms = rand_poly2(EXACT, rnd, deg=deg + 5, nterms=nterms).coeffs
    return Series2(EXACT, {k: c for k, c in terms.items() if sum(k) > deg}, INF)


def root_cases(seeds=range(4), count=30):
    """(kind, input, explicit order) on seeded random exact inputs."""
    for seed in seeds:
        rnd = random.Random(1000 + seed)
        for _ in range(count):
            d = rnd.randint(0, 3)
            delta = rand_form(rnd, d) + above(rnd, d, 5)
            kind = rnd.choice(("square", "square", "perturbed", "form"))
            if kind == "square":
                s = delta * delta
            elif kind == "perturbed":
                s = delta * delta + rand_form(rnd, rnd.randint(2 * d, 9), nterms=1)
            else:  # a random lowest form of even degree, rarely a square
                s = rand_form(rnd, 2 * d) + above(rnd, 2 * d, 4)
            for x, order in variants(rnd, s):
                yield kind, x, order


def test_perfect_square_root_matches_reference():
    verdicts = set()
    for kind, x, order in root_cases():
        try:
            want = ref_perfect_square_root(x, reference_order(x, order))
        except ExactValueError:
            # the reference takes the leading root before the parity test;
            # with an even top exponent the root is needed and both raise
            top = max(i for (i, j) in x.coeffs if i + j == x.valuation)
            if top % 2:
                assert perfect_square_root(x, order) is None
            else:
                with pytest.raises(ExactValueError):
                    perfect_square_root(x, order)
            verdicts.add((kind, f"top exponent parity {top % 2}"))
            continue
        assert_same(perfect_square_root(x, order), want)
        verdicts.add((kind, want is None))
    assert {("square", False), ("perturbed", True), ("form", True),
            ("form", "top exponent parity 1")} <= verdicts


def test_polynomials_past_the_default_order_match_reference():
    # with no order, an exact input is solved through its degree, at least
    # DEFAULT_ORDER, by the same rule as every other omitted order
    orders = set()
    for seed in range(4):
        rnd = random.Random(2000 + seed)
        for _ in range(6):
            h = rand_divisor(rnd)
            q = rand_poly2(EXACT, rnd, deg=4, nterms=3) + rand_form(rnd, 18, nterms=2)
            for s in (q * h, q * h + rand_form(rnd, 20, nterms=1)):
                got = try_divide(s, h)
                assert_same(got, ref_try_divide(s, h))
                orders.add(None if got is None else got.order)
            delta = rand_form(rnd, 1) + above(rnd, 1, 3) + rand_form(rnd, 10, nterms=2)
            s = delta * delta + rand_form(rnd, 21, nterms=1)
            got = perfect_square_root(s)
            assert_same(got, ref_perfect_square_root(s))
            orders.add(None if got is None else got.order)
    # truncated quotients and roots claim past DEFAULT_ORDER
    assert max(o for o in orders if o not in (None, INF)) > DEFAULT_ORDER


def test_odd_top_exponent_is_not_a_square():
    # 2*z1*z2: the top z1-exponent is 1, and sqrt(2) is not a Gaussian rational
    z1 = Series2.variable(EXACT, 0)
    z2 = Series2.variable(EXACT, 1)
    s = (z1 * z2).scale(2) + z1 ** 5 + z2 ** 5
    with pytest.raises(ExactValueError):
        ref_perfect_square_root(s)
    assert perfect_square_root(s) is None


# -- refinement: N against N + 4 on non-polynomial input -----------------------


@pytest.mark.parametrize("N", (6, 9, 12))
def test_try_divide_refines(N):
    z1 = Series2.variable(EXACT, 0)
    z2 = Series2.variable(EXACT, 1)
    h = z1 + z2.scale(2) + z1 * z2
    quotients = []
    for n in (N, N + 4):
        e = (z1 - z2).exp(n)
        q = try_divide(h * e, h)
        assert q.order == n
        assert q.eq_through(e)
        # a higher requested order stops where the input is known
        assert try_divide(h * e, h, n + 3).order == n
        quotients.append(q)
    low, high = quotients
    assert low.eq_through(high)


@pytest.mark.parametrize("N", (6, 9, 12))
def test_perfect_square_root_refines(N):
    z1 = Series2.variable(EXACT, 0)
    z2 = Series2.variable(EXACT, 1)
    one = Series2.const(EXACT, 1)
    roots = []
    for n in (N, N + 4):
        base = (z1 + z2) * (one + z1).sqrt(n)
        s = base * base
        root = perfect_square_root(s)
        assert root is not None
        assert root.order == s.order - 1
        assert perfect_square_root(s, s.order + 3).order == root.order
        if root.coefficient(1, 0) != base.coefficient(1, 0):
            root = -root
        assert root.eq_through(base)
        roots.append(root)
    low, high = roots
    assert low.eq_through(high)


# -- units: the root of a unit is its series square root --------------------

# coefficient triples whose b^2 - 4ac has constant term 4; the first has
# coefficients just below the approx tolerance at N = 20, which a check of the
# full square used to refuse, and the last is a polynomial
UNIT_DISCRIMINANTS = [
    {"a": "-(1-z1-z2)", "b": "z2*exp(z1)", "c": "1+2*z1-z2^2"},
    {"a": "1+z1/2-z2", "b": "-z2*exp(-z1)", "c": "-(1-z1+z2^2)"},
    {"a": "1", "b": "2+z1-z2^3", "c": "z2*(1+z1)"},
]


@pytest.mark.parametrize("ctx", (EXACT, APPROX), ids=("exact", "approx"))
def test_perfect_square_root_of_a_unit_is_its_sqrt(ctx):
    for coefficients in UNIT_DISCRIMINANTS:
        for N in range(8, 25):
            w = SymTwoDiff(*DifferentialInput.from_strings(coefficients)
                           .coefficient_triple(ctx, N))
            Q = w.disc.scale(-4)
            root, want = perfect_square_root(Q), Q.sqrt()
            assert root is not None, (coefficients, N)
            assert root.order == want.order
            assert root.eq_through(want), (coefficients, N)


def test_both_root_entry_points_agree_on_units():
    # perfect_square_root and Series2.sqrt run the same recurrence (Miller's
    # weights for the power 1/2): on units whose constant term is a square in
    # Q(i), whole and truncated, they give the same coefficients and orders
    rnd = random.Random(1800)
    cases = 0
    while cases < 120:
        g = rand_scalar(EXACT, rnd)
        v = rand_poly2(EXACT, rnd, deg=rnd.randint(1, 4), nterms=rnd.randint(1, 5))
        v = v.scale(rand_scalar(EXACT, rnd))
        u = v - v.constant_term + g * g
        if not g or len(u.coeffs) < 2:
            continue
        for s in (u, u.truncated(rnd.randint(2, 9))):
            for N in (rnd.randint(4, 12), None):
                root, want = perfect_square_root(s, N), s.sqrt(N)
                assert root is not None, (s, N)
                assert (root.order, root.coeffs) == (want.order, want.coeffs), (s, N)
                cases += 1


def test_root_of_an_exact_monomial_is_exact():
    z1 = Series2.variable(EXACT, 0)
    z2 = Series2.variable(EXACT, 1)
    root = perfect_square_root((z1 * z2 * z2).scale(2) * (z1 * z2 * z2).scale(2))
    assert root.order is INF and root.coeffs == {(1, 2): EXACT.from_int(2)}
    assert perfect_square_root(z1 * z2 * z2) is None
    # so a discriminant that is a monomial splits into exact factors
    one, zero = Series2.const(EXACT, 1), Series2.zero(EXACT)
    for mu in split(SymTwoDiff(one, zero, -(z2 * z2))):
        assert mu.A.order is INF and mu.B.order is INF
