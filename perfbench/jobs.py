"""Seeded job generator with known answers.

Every job is a JSON document for one ``symdiff2`` CLI command, together with
the answer that the way it was built fixes.  The answers come from the
construction alone (rational arithmetic in this file); nothing here imports
``symdiff2``.

Constructions
-------------
Product form (``theorem26`` and ``analyze``)::

    scale = u^k (1 + u^m z2)^alpha e^{f(u)} e^{g(r)},    r = u (1 + u^m z2)

is closed, with contact order ``m``.  A pole term ``f_{-j} = c``,
``g_{-j} = -c`` (``j <= m``) is written holomorphically as
``c u^(m-j) z2 Q_j(x) / (1+x)^j`` with ``x = u^m z2`` and
``Q_j(x) = ((1+x)^j - 1) / x``.  The *twin* multiplies ``scale`` by
``exp(c z2)``, which leaves a residual ``c (m+1)/2 u^m z2^2 + ...`` of total
degree ``m + 2``: not closed, exit 1.

Polynomial jobs (``closedness``, ``decompose``, ``classify``, ``split``)
carry data whose degree grows with ``N // 4`` so that their cost follows the
ladder even though polynomial input is exact and never truncated.

Every job is built from the cell ``(template, N)`` of one round, and each
cell draws from its own seeded stream, so the same seed and round give the
same parameters to the same cell in every workload that contains it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

# The benchmark's workloads start exact-transcendental at N = 13: below it the
# twin with m = 3 (and below 10 those with m = 2) comes back "closed" although
# its residual is nonzero.  The two known-defect workloads keep every failing
# job runnable; they are not timed by BENCHMARK.json because their reports are
# wrong at the commit that added the benchmark (see README.md).
LADDERS = {
    "exact-transcendental": (13, 16),
    "exact-algebraic": (12, 16, 20, 24),
    "exact-transcendental-low": (8, 10, 12),
    "approx-mixed": (12, 16, 20),
}
BACKENDS = {
    "exact-transcendental": "exact",
    "exact-algebraic": "exact",
    "exact-transcendental-low": "exact",
    "approx-mixed": "approx",
}
KNOWN_DEFECT_WORKLOADS = ("exact-transcendental-low", "approx-mixed")

# Every coefficient has a magnitude fixed by its role and a sign drawn from
# the seed.  No signed sum of the magnitudes vanishes, so a seed changes the
# values but not which terms cancel, and every seed costs about the same.
_F1, _F2, _G1, _POLE, _TWIN = (Fraction(x) for x in ("1", "1/2", "1/3", "1", "1/2"))
_SMALL_INTS = (1, -1, 2, -2)
_README_SCALE = "exp(z2/(1+z1*z2))"


@dataclass
class Job:
    """One CLI invocation and the answer its construction fixes."""

    id: str
    template: str
    command: str
    N: int
    backend: str
    doc: dict
    expect: dict = field(default_factory=dict)

    @property
    def text(self) -> str:
        return json.dumps(self.doc, sort_keys=True)


# -- text helpers --------------------------------------------------------


def q(x) -> str:
    """A rational as expression text, parenthesised when negative or p/q."""
    x = Fraction(x)
    body = str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return f"({body})" if x < 0 or x.denominator != 1 else body


def _power(base: str, e: int) -> str:
    return "" if e == 0 else (base if e == 1 else f"{base}^{e}")


def _product(*factors: str) -> str:
    parts = [f for f in factors if f]
    return "*".join(parts) if parts else "1"


def _binom(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


# -- product-form constructions -------------------------------------------


def product_form(*, u: str, m: int, k: int, alpha: Fraction, f: dict, g: dict,
                 twin=None) -> dict:
    """The {scale, u, r} triple of the closed construction (or its twin).

    ``f`` and ``g`` map exponents to coefficients; negative exponents are
    pole terms and must satisfy ``g[-j] == -f[-j]``.
    """
    U = f"({u})"
    x = f"{U}^{m}*z2"
    P = f"(1+{x})"
    r = f"{U}*{P}"
    factors = [_power(U, k)]
    if alpha:
        factors.append(f"{P}^{q(alpha)}")
    for j in sorted(e for e in f if e < 0):
        jj = -j
        if g.get(j) != -f[j]:
            raise ValueError("pole coefficients of f and g must cancel")
        Q = "+".join(
            f"{_binom(jj, i)}*{x}^{i - 1}" if i > 1 else str(_binom(jj, 1))
            for i in range(1, jj + 1)
        )
        factors.append(
            f"exp({q(f[j])}*{_product(_power(U, m - jj), 'z2')}*({Q})/{P}^{jj})"
        )
    hol_f = "+".join(f"{q(c)}*{U}^{e}" for e, c in sorted(f.items()) if e > 0)
    hol_g = "+".join(f"{q(c)}*({r})^{e}" for e, c in sorted(g.items()) if e > 0)
    if hol_f:
        factors.append(f"exp({hol_f})")
    if hol_g:
        factors.append(f"exp({hol_g})")
    if twin:
        factors.append(f"exp({q(twin)}*z2)")
    return {"scale": _product(*factors), "u": u, "r": r}


def leaf_answer(k: int, alpha: Fraction, poles: bool) -> dict:
    """Leaf verdict fixed by (k, alpha, poles), as local_forms defines it."""
    is_int = alpha.denominator == 1
    in_range = is_int and 0 <= alpha <= k
    if poles:
        singularity = "essential"
    elif is_int and not in_range:
        singularity = "meromorphic"
    else:
        singularity = "none"
    if is_int:
        monodromy = {"order_type": "trivial", "order": 1}
    else:
        monodromy = {"order_type": "finite", "order": alpha.denominator}
    return {
        "singularity": singularity,
        "first_kind": bool(in_range and not poles),
        "monodromy": monodromy,
    }


def _decomposition(m, k, alpha, f, g, closed):
    exp = {"k": k, "m": m, "alpha": alpha, "residual_zero": closed}
    if closed:
        exp["f"] = {e: c for e, c in f.items() if c}
        exp["g"] = {e: c for e, c in g.items() if c}
        exp["leaf"] = leaf_answer(k, alpha, any(e < 0 for e in f))
    return exp


# -- cells ------------------------------------------------------------------
#
# A cell builder takes (rng, N) and returns (command, doc fields, expect).
# The structural choices (m, k, poles, shape of u) are fixed per cell so that
# seeds change coefficient values, not how much work a cell does.


def _pick(rng, pool):
    return pool[rng.randrange(len(pool))]


def _signed(rng, magnitude):
    return magnitude * _sign(rng)


def _t26_params(rng, *, m, k, pole, alpha_kind):
    if alpha_kind == "fractional":
        alpha = _signed(rng, _pick(rng, (Fraction(1, 3), Fraction(2, 3))))
    elif alpha_kind == "outside":  # an integer outside [0, k]
        alpha = Fraction(_pick(rng, (-1, k + 1)))
    else:  # "inside": a nonzero integer in [0, k]
        alpha = Fraction(rng.randint(1, k))
    f = {1: _signed(rng, _F1), 2: _signed(rng, _F2)}
    g = {1: _signed(rng, _G1)}
    if pole:
        c = _signed(rng, _POLE)
        f[-pole], g[-pole] = c, -c
    return alpha, f, g


def _theorem26(*, u, m, k, pole, alpha_kind, twin):
    def build(rng, N):
        alpha, f, g = _t26_params(rng, m=m, k=k, pole=pole, alpha_kind=alpha_kind)
        c = _signed(rng, _TWIN) if twin else None
        w = product_form(u=u, m=m, k=k, alpha=alpha, f=f, g=g, twin=c)
        expect = {
            "exit": 1 if twin else 0,
            "decomposition": _decomposition(m, k, alpha, f, g, not twin),
        }
        return "theorem26", {"w": w}, expect

    return build


def _analyze(*, m, k, pole, alpha_kind, twin):
    def build(rng, N):
        alpha, f, g = _t26_params(rng, m=m, k=k, pole=pole, alpha_kind=alpha_kind)
        c = _signed(rng, _TWIN) if twin else None
        w = product_form(u="z1", m=m, k=k, alpha=alpha, f=f, g=g, twin=c)
        return "analyze", {"w": w, "components": ["z1"]}, _analyze_expect(
            m, k, alpha, f, g, twin=bool(twin)
        )

    return build


def _analyze_expect(m, k, alpha, f, g, *, twin):
    # w = h dz1 dr with c = 0 and disc = -(h r_2)^2 / 4, r_2 = z1^(m+1):
    # along z1 the discriminant has multiplicity 2k + 2m + 2 and the content
    # of (a, b) is k.
    return {
        "exit": 1 if twin else 0,
        "closedness": "no" if twin else "yes",
        "split": {"status": "split"},
        "classify": {
            "z1": {"mult_disc": 2 * k + 2 * m + 2, "mult_core": 2 * m + 2, "parity": "S"}
        },
        "decomposition": _decomposition(m, k, alpha, f, g, not twin),
    }


def _readme_analyze(rng, N):
    w = {"scale": _README_SCALE, "u": "z1", "r": "z1*(1+z1*z2)"}
    f, g = {-1: Fraction(1)}, {-1: Fraction(-1)}
    return "analyze", {"w": w, "components": ["z1"]}, _analyze_expect(
        1, 0, Fraction(0), f, g, twin=False
    )


def _split_sqrt(rng, N):
    # D = b^2 - 4ac has constant term 4 p^2 = 4, so it is a unit whose square
    # root exists in Q(i) and needs Series2.sqrt.  The z1 coefficients of a
    # and c differ in size, so that no sign draw cancels the z1 term of ac.
    p = _sign(rng)
    a = f"{p}*(1+{q(_sign(rng))}*z1+{q(_sign(rng))}*z2)"
    b = f"{_sign(rng)}*z2*exp({_sign(rng)}*z1)"
    c = f"{-p}*(1+{q(2 * _sign(rng))}*z1+{q(_sign(rng))}*z2^2)"
    return "split", {"w": {"a": a, "b": b, "c": c}}, {
        "exit": 0, "split": {"status": "split"}
    }


def _rand_int(rng):
    return _pick(rng, _SMALL_INTS)


def _sign(rng):
    return _pick(rng, (1, -1))


def _unit_power(rng, d):
    """Text of (1 +- z1 +- z2 +- z1 z2)^d: a dense unit of degree 2d."""
    return f"(1+{_sign(rng)}*z1+{_sign(rng)}*z2+{_sign(rng)}*z1*z2)^{d}"


def _upow(coeffs, e):
    """Coefficients of a univariate integer polynomial raised to e."""
    out = [1]
    for _ in range(e):
        nxt = [0] * (len(out) + len(coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(coeffs):
                nxt[i + j] += a * b
        out = nxt
    return out


def _closedness(*, closed):
    # dF dG scaled by (1 + sF)(1 + tG) is a product of closed 1-forms.  The
    # extra e z1 z2 makes the separability defect g g_FG - g_F g_G equal e at
    # the origin in (F, G) coordinates, so the differential is not closed.
    def build(rng, N):
        d = N // 4
        F = f"z1+{_rand_int(rng)}*z1^{d - 1}*z2"
        G = f"z2+{_rand_int(rng)}*z1*z2^{d - 1}"
        scale = f"(1+{_rand_int(rng)}*({F}))*(1+{_rand_int(rng)}*({G}))"
        if not closed:
            scale += f"+{_rand_int(rng)}*z1*z2"
        return "closedness", {"w": {"scale": scale, "u": F, "r": G}}, {
            "exit": 0 if closed else 1,
            "closedness": {"verdict": "yes" if closed else "no", "rank": 2},
        }

    return build


def _decompose(*, separable):
    # g = f(z1) h(z2) with f = (1 +- z1 +- z1^2)^6d and h = (1 +- z2 +- z2^2)^6d;
    # the CLI reports f = g(z1, 0) and h = g(0, z2) / g(0, 0).
    def build(rng, N):
        e = 6 * (N // 4)
        fc = [1, _sign(rng), _sign(rng)]
        hc = [1, _sign(rng), _sign(rng)]
        b = f"(1+{fc[1]}*z1+{fc[2]}*z1^2)^{e}*(1+{hc[1]}*z2+{hc[2]}*z2^2)^{e}"
        if not separable:
            b += f"*(1+{_rand_int(rng)}*z1*z2)"
        expect = {"exit": 0 if separable else 1,
                  "decompose": {"status": "separable" if separable else "not_separable"}}
        if separable:
            for name, coeffs in (("f", fc), ("h", hc)):
                expect["decompose"][name] = {
                    i: Fraction(c) for i, c in enumerate(_upow(coeffs, e)) if c}
        return "decompose", {"w": {"a": "0", "b": b, "c": "0"}}, expect

    return build


def _classify(rng, N):
    # b = 0, so disc = a c.  Each component's multiplicity is the sum of its
    # exponents in a and c, and the content is their minimum.  Even totals
    # along the axes send the split attempts inside classify past the axis
    # certificate to perfect_square_root, and the odd total along z1+z2 makes
    # it give up there, before any square root or inverse.  The seed only
    # decides how each total splits between a and c.
    d = N // 4
    p1, p2 = _pick(rng, ((1, 1), (2, 0), (0, 2)))
    q1, q2 = _pick(rng, ((1, 1), (2, 0), (0, 2)))
    s1, s2 = _pick(rng, ((0, 1), (1, 0)))
    a = _product(_power("z1", p1), _power("z2", q1), _power("(z1+z2)", s1),
                 _unit_power(rng, d))
    c = "-" + _product(_power("z1", p2), _power("z2", q2), _power("(z1+z2)", s2),
                       _unit_power(rng, d))
    comps = {}
    for label, (e1, e2) in (("z1", (p1, p2)), ("z2", (q1, q2)), ("z1+z2", (s1, s2))):
        mult, content = e1 + e2, min(e1, e2)
        comps[label] = {
            "mult_disc": mult,
            "mult_core": mult - 2 * content,
            "parity": "N" if mult % 2 else "S",
            "content": content,
        }
    return "classify", {"w": {"a": a, "b": "0", "c": c}, "components": list(comps)}, {
        "exit": 0, "classify": comps
    }


def _split_not_split(rng, N):
    # b = 0 and c a unit: b^2 - 4ac = 4 z1^p z2^q A C, and the first odd
    # axis exponent is the certificate.
    d = N // 4
    p, qq = _pick(rng, ((1, 2), (3, 0), (2, 1), (0, 3)))
    witness, mult = ("z1", p) if p % 2 else ("z2", qq)
    a = _product(_power("z1", p), _power("z2", qq), _unit_power(rng, 2 * d))
    return "split", {"w": {"a": a, "b": "0", "c": f"-{_unit_power(rng, 2 * d)}"}}, {
        "exit": 1,
        "split": {"status": "not_split", "witness": witness, "odd_multiplicity": mult},
    }


def _split_degenerate(rng, N):
    # c = 0: w = dz1 (a dz1 + b dz2), whose discriminant -b^2/4 is a square.
    d = N // 4
    b = f"z1*{_unit_power(rng, 2 * d)}"
    return "split", {"w": {"a": _unit_power(rng, 2 * d), "b": b, "c": "0"}}, {
        "exit": 0, "split": {"status": "split"}
    }


TRANSCENDENTAL_CELLS = {
    "t26-essential-m1": _theorem26(u="z1", m=1, k=1, pole=1, alpha_kind="fractional", twin=False),
    "t26-meromorphic-m2-chart": _theorem26(u="z1+z2^2", m=2, k=0, pole=0, alpha_kind="outside", twin=False),
    "t26-essential-m3": _theorem26(u="z1", m=3, k=2, pole=2, alpha_kind="fractional", twin=False),
    "t26-firstkind-m1-chart": _theorem26(u="z1+z1*z2", m=1, k=2, pole=0, alpha_kind="inside", twin=False),
    "t26-essential-m1-twin": _theorem26(u="z1", m=1, k=1, pole=1, alpha_kind="fractional", twin=True),
    "t26-meromorphic-m2-chart-twin": _theorem26(u="z1+z2^2", m=2, k=0, pole=0, alpha_kind="outside", twin=True),
    "t26-essential-m3-twin": _theorem26(u="z1", m=3, k=2, pole=2, alpha_kind="fractional", twin=True),
    "analyze-m2": _analyze(m=2, k=1, pole=0, alpha_kind="fractional", twin=False),
    "analyze-m2-twin": _analyze(m=2, k=1, pole=0, alpha_kind="fractional", twin=True),
    "analyze-readme": _readme_analyze,
    "split-sqrt": _split_sqrt,
}
ALGEBRAIC_CELLS = {
    "closedness-yes": _closedness(closed=True),
    "closedness-no": _closedness(closed=False),
    "decompose-yes": _decompose(separable=True),
    "decompose-no": _decompose(separable=False),
    "classify": _classify,
    "split-not-split": _split_not_split,
    "split-degenerate": _split_degenerate,
}
WORKLOAD_CELLS = {
    "exact-transcendental": TRANSCENDENTAL_CELLS,
    "exact-algebraic": ALGEBRAIC_CELLS,
    "exact-transcendental-low": TRANSCENDENTAL_CELLS,
    "approx-mixed": {**TRANSCENDENTAL_CELLS, **ALGEBRAIC_CELLS},
}
WORKLOADS = tuple(WORKLOAD_CELLS)


def generate(workload: str, seed: int, round_index: int = 0) -> list:
    """One round of ``workload``: every cell at every N once, in a seeded order.

    The cells come in a seeded order and each cell runs its whole ladder in
    a row, so that the machine's drift over a few seconds falls alike on the
    rungs that ``growth_exponent`` compares.  Rounds of one seed draw fresh
    parameters, so a run that times several rounds averages over more inputs
    than one round holds.
    """
    if workload not in WORKLOAD_CELLS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    backend = BACKENDS[workload]
    cells = list(WORKLOAD_CELLS[workload].items())
    random.Random(f"{seed}:{round_index}:order").shuffle(cells)
    jobs = []
    for template, build in cells:
        for N in LADDERS[workload]:
            # a twin draws from its closed sibling's stream, so it repeats the
            # sibling's parameters and only adds exp(c z2)
            family = template.removesuffix("-twin")
            rng = random.Random(f"{seed}:{round_index}:{family}:{N}")
            command, fields, expect = build(rng, N)
            doc = {"truncation": N, "backend": backend, **fields}
            jobs.append(Job(f"{template}@N{N}#{round_index}", template, command, N,
                            backend, doc, expect))
    return jobs
