"""Oracle for the kernel sums behind the graded solve.

``ref_graded_solve`` below is the solver as it was before both backends
summed in the one kernel: one scalar product and sum per pair of terms, the
Euler weight and the lead's inverse applied as scalars.  On seeded random
exact inputs the solver must reproduce its forms (values and key order) and
its None verdicts,
through every path: a scalar lead of 1 or another scalar, a leading form that
divides or does not, Euler weights with rational and Gaussian ``a`` (some
vanishing at some k), and cross sums that cancel to 0.  Its square loop
(``cross`` left out: q itself, lead 2*q_0) is the oracle for the roots that
the solver now finds by Miller's weights.  On the same scalar-lead inputs
rounded to floats, the solver and the reference loop must both give the exact
forms to within a rounding bound scaled to the solve run on absolute values.
"""

import random
from fractions import Fraction

import pytest

from symdiff2 import APPROX, EXACT, INF, Series2
from symdiff2.series import _forms, _graded_solve, _homog_div
from conftest import rounding_bound

ctx = EXACT


def ref_graded_solve(ctx, target, lead, solved, cross=None, euler=None, qdeg=0):
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
            twice = square and 2 * k < e
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


def assert_same_solve(*args, **kw):
    """Both solvers on the same input; returns the reference's result."""
    want = ref_graded_solve(ctx, *args, **kw)
    assert_same_forms(_graded_solve(ctx, *args, **kw), want)
    return want


def assert_same_forms(got, want):
    """Equal forms, values and key order, or both None."""
    if want is None:
        assert got is None
    else:
        assert [list(f.items()) for f in got] == [list(f.items()) for f in want]


def rand_scalar(rnd, complex_ok, nonzero=False):
    while True:
        re = Fraction(rnd.randint(-12, 12), rnd.choice((1, 1, 2, 3, 5, 6, 7, 12)))
        im = (Fraction(rnd.randint(-5, 5), rnd.choice((1, 2, 9)))
              if complex_ok and rnd.random() < 0.5 else 0)
        if re or im or not nonzero:
            return ctx.from_rational(re, im)


def rand_form(rnd, deg, complex_ok):
    """A form of degree ``deg`` as {z1-exponent: c}: empty, one term or more."""
    n = rnd.choice((0, 1, 1, 2, 3, deg + 1))
    out = {}
    for _ in range(n):
        c = rand_scalar(rnd, complex_ok)
        if c:
            out[rnd.randint(0, deg)] = c
    return out


def rand_poly(rnd, lo, hi, nterms, complex_ok):
    terms = {}
    for _ in range(nterms):
        d = rnd.randint(lo, hi)
        x = rnd.randint(0, d)
        terms[(x, d - x)] = rand_scalar(rnd, complex_ok)
    return Series2(ctx, terms, INF)


@pytest.mark.parametrize("seed", range(6))
def test_scalar_lead_quotients(seed):
    # lead * q_e = target_e - sum_k cross_k q_{e-k}: lead 1, or another scalar
    rnd = random.Random(seed)
    for _ in range(40):
        complex_ok = rnd.random() < 0.5
        n = rnd.randint(1, 10)
        target = [rand_form(rnd, e, complex_ok) for e in range(n)]
        cross = [{}] + [rand_form(rnd, k, complex_ok) for k in range(1, rnd.randint(1, n + 1))]
        lead = ctx.one if rnd.random() < 0.4 else rand_scalar(rnd, complex_ok, nonzero=True)
        assert_same_solve(target, lead, [], cross)
        assert_same_solve(target, lead, [rand_form(rnd, 0, complex_ok)], cross)


# Euler weights (a*k - b*e)/e: a = b*e/k vanishes at that k, a = b = 0 at every k
EULER = [(1, 0), (1, 1), (2, 1), (Fraction(1, 2), 1), (Fraction(3, 2), 1), (0, 0),
         (Fraction(-2, 3), 1), ((Fraction(3, 2), 1), 1), ((0, Fraction(1, 3)), 0)]


@pytest.mark.parametrize("a,b", EULER, ids=[str(w) for w in EULER])
def test_euler_weights(a, b):
    rnd = random.Random(f"{a}/{b}")
    a = ctx.from_rational(*a) if isinstance(a, tuple) else ctx.from_rational(a)
    for _ in range(30):
        complex_ok = rnd.random() < 0.5
        n = rnd.randint(1, 11)
        parts = [{0: ctx.one}] + [rand_form(rnd, k, complex_ok) for k in range(1, n)]
        lead = ctx.one if rnd.random() < 0.7 else rand_scalar(rnd, complex_ok, nonzero=True)
        # exp and powers: no target, q_0 = 1; log: the parts are the target
        assert_same_solve([{}] * n, lead, [{0: ctx.one}], parts, (a, b))
        assert_same_solve(parts, lead, [{}], parts, (a, b))


@pytest.mark.parametrize("seed", range(6))
def test_form_lead_divisions(seed):
    # the local-ring quotient s / h of differentials.try_divide: a leading form
    # divided out at each degree, None when it does not divide
    rnd = random.Random(100 + seed)
    verdicts = set()
    for _ in range(40):
        complex_ok = rnd.random() < 0.5
        d = rnd.randint(1, 3)
        h = rand_poly(rnd, d, d + 3, rnd.randint(1, 6), complex_ok)
        if h.valuation != d:
            continue
        s = rand_poly(rnd, 0, 4, rnd.randint(1, 6), complex_ok) * h
        bound = rnd.randint(d, d + 8)
        hparts = _forms(h, d, bound)
        # a multiple of h, and one that usually is not
        for t in (s, s + rand_poly(rnd, d, d + 5, rnd.randint(1, 3), complex_ok)):
            want = assert_same_solve(_forms(t, d, bound), hparts[0], [], hparts)
            verdicts.add(want is None)
    assert verdicts == {True, False}


# J.C.P. Miller's Euler weights (alpha + 1, 1) for the power alpha = 1/2
MILLER = (ctx.from_rational(Fraction(3, 2)), 1)


@pytest.mark.parametrize("seed", range(6))
def test_square_path(seed):
    # roots by Miller's weights, lead the input's lowest form and cross the
    # input's forms, against the reference's square loop (cross = q itself,
    # lead 2*q_0): a scalar lead (differentials._homog_sqrt) and a leading
    # form (perfect_square_root), through odd and even degrees
    rnd = random.Random(200 + seed)
    verdicts = set()
    for _ in range(50):
        complex_ok = rnd.random() < 0.5
        n = rnd.choice((2, 3, 6, 7, 10))
        q0 = rand_scalar(rnd, complex_ok, nonzero=True)
        target = [{0: q0 * q0}] + [rand_form(rnd, 0, complex_ok) for _ in range(1, n)]
        want = ref_graded_solve(ctx, target, q0 + q0, [{0: q0}])
        assert_same_forms(_graded_solve(ctx, [{}] * n, q0 * q0, [{0: q0}], target, MILLER),
                          want)
        d = rnd.randint(0, 2)
        delta = rand_poly(rnd, d, d + 4, rnd.randint(1, 6), complex_ok)
        if delta.valuation != d:
            continue
        s = delta * delta
        root = _forms(delta, d, d)[0]
        lead = {x: c + c for x, c in root.items()}
        # a square, and one that usually is not
        for t in (s, s + rand_poly(rnd, 2 * d + 1, 2 * d + 4, 1, complex_ok)):
            parts = _forms(t, 2 * d, 2 * d + n)
            want = ref_graded_solve(ctx, parts, lead, [root], qdeg=d)
            got = _graded_solve(ctx, [{}] * len(parts), parts[0], [root], parts, MILLER,
                                qdeg=d)
            assert_same_forms(got, want)
            verdicts.add(want is None)
    assert verdicts == {True, False}


def test_cross_sums_that_cancel_to_zero():
    rnd = random.Random(300)
    for _ in range(30):
        complex_ok = rnd.random() < 0.5
        u = rand_poly(rnd, 1, 4, rnd.randint(2, 6), complex_ok) + rand_scalar(
            rnd, complex_ok, nonzero=True)
        p = rand_poly(rnd, 0, 3, rnd.randint(1, 4), complex_ok)
        # (p * u) / u: past p's degree every target cancels the cross sum
        top = 9
        q = assert_same_solve(_forms(p * u, 0, top), u.constant_term, [], _forms(u, 0, top))
        assert not any(q[4:])
        # (1 + z1 + i z2)^2 to the power 1/2: the cross sums alone cancel
        v = Series2(ctx, {(0, 0): ctx.one, (1, 0): rand_scalar(rnd, complex_ok),
                          (0, 1): rand_scalar(rnd, complex_ok)}, INF)
        parts = _forms(v * v, 0, top)
        q = assert_same_solve([{}] * (top + 1), ctx.one, [{0: ctx.one}], parts,
                              (ctx.from_rational(Fraction(3, 2)), 1))
        assert not any(q[2:])


def magnitude_solve(target, lead, solved, cross, euler=None):
    """The scalar-lead solve on absolute values, m_e = (|target_e| +
    sum_k |w(k, e)| * |cross_k| * m_{e-k}) / |lead|: a majorant of every
    summand of q_e."""
    m = [{x: abs(complex(c)) for x, c in f.items()} for f in solved]
    for e in range(len(m), len(target)):
        acc = {x: abs(complex(c)) for x, c in target[e].items()}
        for k in range(1, min(e, len(cross) - 1) + 1):
            w = abs(complex(euler[0] * k - euler[1] * e)) / e if euler else 1
            for x1, c1 in cross[k].items():
                for x2, c2 in m[e - k].items():
                    acc[x1 + x2] = acc.get(x1 + x2, 0.0) + w * abs(complex(c1)) * c2
        m.append({x: c / abs(complex(lead)) for x, c in acc.items()})
    return m


def assert_solve_within_rounding(target, lead, solved, cross, euler=None):
    """Both solvers on the inputs rounded to floats, against the exact forms:
    an error in q_{e-k} reaches q_e through the cross sum, so q_e is allowed
    e + 1 times the rounding bound of one sum of at most n summands."""
    want = ref_graded_solve(ctx, target, lead, solved, cross, euler)
    mag = magnitude_solve(target, lead, solved, cross, euler)
    n = len(target) * (len(target) + 1) // 2 + 1

    def rounded(forms):
        return [{x: complex(c) for x, c in f.items()} for f in forms]

    args = rounded(target), complex(lead), rounded(solved), rounded(cross)
    weights = euler and (complex(euler[0]), euler[1])
    for got in (_graded_solve(APPROX, *args, weights),
                ref_graded_solve(APPROX, *args, weights)):
        assert len(got) == len(want)
        for e, (g, f, m) in enumerate(zip(got, want, mag)):
            for x in g.keys() | f.keys():
                err = abs(g.get(x, 0) - complex(f.get(x, 0)))
                assert err <= (e + 1) * rounding_bound(m.get(x, 0.0), n), (e, x)


@pytest.mark.parametrize("seed", range(4))
def test_approx_solves_are_the_exact_solve_within_rounding(seed):
    # quotients with a scalar lead, and exp, log and powers by Euler weights
    rnd = random.Random(400 + seed)
    for _ in range(30):
        complex_ok = rnd.random() < 0.5
        n = rnd.randint(1, 10)
        target = [rand_form(rnd, e, complex_ok) for e in range(n)]
        cross = [{}] + [rand_form(rnd, k, complex_ok) for k in range(1, rnd.randint(1, n + 1))]
        lead = ctx.one if rnd.random() < 0.4 else rand_scalar(rnd, complex_ok, nonzero=True)
        assert_solve_within_rounding(target, lead, [], cross)
        a, b = rnd.choice(EULER)
        a = ctx.from_rational(*a) if isinstance(a, tuple) else ctx.from_rational(a)
        parts = [{0: ctx.one}] + [rand_form(rnd, k, complex_ok) for k in range(1, n)]
        assert_solve_within_rounding([{}] * n, lead, [{0: ctx.one}], parts, (a, b))
        assert_solve_within_rounding(parts, lead, [{}], parts, (a, b))
