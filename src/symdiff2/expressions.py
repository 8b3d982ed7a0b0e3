"""Expression language for entering differentials.

Grammar (standard precedence ``^`` > unary ``-`` > ``*`` ``/`` > ``+`` ``-``,
left association, parentheses)::

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | power
    power    := atom ('^' exponent)*
    exponent := ['-'] (NUMBER | '(' expr ')')      -- must fold to a scalar
    atom     := NUMBER | 'i' | 'z1' | 'z2'
              | 'exp' '(' expr ')' | 'log' '(' expr ')'
              | '(' expr ')'

``i`` is the imaginary unit.  Rational literals are written ``p/q`` (division
of integer literals), decimal or scientific literals (``0.5``, ``1e-3``) are
approx scalars.  Exponents may be arbitrary parenthesized arithmetic over
literals but must fold to a number: a variable inside an exponent raises
:class:`~symdiff2.errors.ExponentNotScalar`.

Evaluation is *projective*: every sub-expression evaluates to a series times
a unit constant, where the constant absorbs the pieces that are not exactly
representable on the exact backend (``exp`` of a nonzero constant, non-unit
bases raised to fractional powers).  For a plain :func:`eval_ast` the
constant must collapse back into a scalar; pipelines that recenter the
second variable keep the constants symbolic so that they can cancel between
the factors of a differential before collapsing.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    BackendMismatch,
    DivisionByNonUnit,
    ExponentNotScalar,
    ExprSyntaxError,
    NotAUnit,
)
from .scalars import MAX_SCALAR_BITS, GaussianRational, ScalarContext, _fmt_fraction
from .series import INF, Series2, _as_int, products_sum

# -- limits on one expression ------------------------------------------

# Parsing and evaluation recurse at least once per level of an expression, so
# job text nested deeper than this is refused (by the CLI) before it can
# exhaust the stack.
MAX_NESTING = 500
# A positive power of a polynomial is formed exactly, so its cost follows the
# size of the result.  A power whose box of exponents,
# (n * span_z1 + 1) * (n * span_z2 + 1), holds more terms than this is refused
# before it is formed.
MAX_POWER_TERMS = 2048
# A folded literal scalar, or a power of an exact scalar, whose numerator or
# denominator would exceed scalars.MAX_SCALAR_BITS is refused before it is
# formed; a power x**e is estimated as |e| times the bit length of x's largest
# numerator or denominator.

# -- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: object  # Fraction (exact) or float (approx literal)


@dataclass(frozen=True)
class Imag:
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class ScalarLit:
    """A folded exponent: exact Gaussian rational when possible, complex otherwise."""

    exact: object  # GaussianRational | None
    approx: complex

    def __str__(self):
        return format_scalar_literal(self)


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: ScalarLit


@dataclass(frozen=True)
class Call:
    fn: str  # "exp" | "log"
    arg: object


# -- tokenizer ---------------------------------------------------------

_IDENTS = {"z1", "z2", "i", "exp", "log"}


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < n and text[pos + 1].isdigit()):
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            is_float = False
            if pos < n and text[pos] == ".":
                is_float = True
                pos += 1
                while pos < n and text[pos].isdigit():
                    pos += 1
            if pos < n and text[pos] in "eE":
                look = pos + 1
                if look < n and text[look] in "+-":
                    look += 1
                if look < n and text[look].isdigit():
                    is_float = True
                    pos = look
                    while pos < n and text[pos].isdigit():
                        pos += 1
            raw = text[start:pos]
            value = float(raw) if is_float else Fraction(int(raw))
            tokens.append(("num", value, start))
            continue
        if ch.isalpha():
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            name = text[start:pos]
            if name not in _IDENTS:
                raise ExprSyntaxError(f"unknown identifier {name!r}", start)
            tokens.append(("ident", name, start))
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", None, n))
    return tokens


# -- parser ------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError("trailing input", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            node = Bin(op, node, self.factor())
        return node

    def factor(self):
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek()[0] == "^":
            self.next()
            node = Pow(node, self.exponent())
        return node

    def exponent(self) -> ScalarLit:
        neg = False
        if self.peek()[0] == "-":
            self.next()
            neg = True
        tok = self.peek()
        if tok[0] == "num":
            self.next()
            node = Num(tok[1])
        elif tok[0] == "(":
            self.next()
            node = self.expr()
            self.expect(")")
        elif tok[0] == "ident" and tok[1] == "i":
            self.next()
            node = Imag()
        elif tok[0] == "ident":
            raise ExponentNotScalar(
                f"exponent must be a numeric literal, got {tok[1]!r}"
            )
        else:
            raise ExprSyntaxError("expected a numeric exponent", tok[2])
        if neg:
            node = Neg(node)
        return fold_scalar(node)

    def atom(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "num":
            return Num(value)
        if kind == "ident":
            if value == "i":
                return Imag()
            if value in ("z1", "z2"):
                return Var(value)
            # exp / log
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Call(value, arg)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError("expected a value", pos)


def parse(text: str):
    """Parse source text into an AST."""
    return _Parser(text).parse()


# -- constant folding of exponents --------------------------------------


def fold_scalar(node) -> ScalarLit:
    """Fold a literal-only expression into a finite scalar; reject variables."""
    try:
        value = _fold(node)
        if isinstance(value, GaussianRational):
            _check_scalar_power([value], 1)
        approx = complex(value)
    except OverflowError:  # float arithmetic, or an exact value beyond float range
        approx = None
    if approx is None or not cmath.isfinite(approx):
        raise ExponentNotScalar("scalar literal does not fold to a finite number")
    return ScalarLit(value if isinstance(value, GaussianRational) else None, approx)


def _fold(node):
    if isinstance(node, Num):
        if isinstance(node.value, Fraction):
            return GaussianRational(node.value)
        return complex(node.value)
    if isinstance(node, Imag):
        return GaussianRational(0, 1)
    if isinstance(node, Neg):
        return -_fold(node.operand)
    if isinstance(node, Bin):
        a, b = _fold(node.left), _fold(node.right)
        both_exact = isinstance(a, GaussianRational) and isinstance(b, GaussianRational)
        if not both_exact:
            a = complex(a) if isinstance(a, GaussianRational) else a
            b = complex(b) if isinstance(b, GaussianRational) else b
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if not b:
                raise DivisionByNonUnit("division by zero in a scalar literal")
            return a / b
        raise ExponentNotScalar(f"operator {node.op!r} cannot appear in an exponent")
    if isinstance(node, Pow):
        e = node.exponent
        n = _as_int(e.exact if e.exact is not None else e.approx)
        if n is None:
            raise ExponentNotScalar("nested fractional powers in an exponent")
        base = _fold(node.base)
        if isinstance(base, GaussianRational):
            _check_scalar_power([base], n)
        if n < 0 and not base:
            raise DivisionByNonUnit("negative power of zero in a scalar literal")
        return base ** n if n >= 0 else 1 / (base ** (-n))
    if isinstance(node, ScalarLit):
        return node.exact if node.exact is not None else node.approx
    raise ExponentNotScalar("exponents must be numeric literals, not expressions")


# -- canonical printer ---------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def format_scalar_literal(lit: ScalarLit) -> str:
    if lit.exact is not None:
        x = lit.exact
        if x.is_integer and x.re >= 0:
            return str(x.re.numerator)
        return "(" + _format_exact_expr(x) + ")"
    z = lit.approx
    if z.imag == 0:
        v = z.real
        return repr(v) if v >= 0 else f"({v!r})"
    body = f"{z.real!r}+{z.imag!r}*i" if z.imag >= 0 else f"{z.real!r}-{-z.imag!r}*i"
    return "(" + body + ")"


def _format_exact_expr(x: GaussianRational) -> str:
    if not x.im:
        return _fmt_fraction(x.re)
    im = abs(x.im)
    imtxt = "i" if im == 1 else f"{_fmt_fraction(im)}*i"
    sign = "-" if x.im < 0 else "+"
    if not x.re:
        return imtxt if sign == "+" else f"-{imtxt}"
    return f"{_fmt_fraction(x.re)}{sign}{imtxt}"


def print_expr(node) -> str:
    """Canonical serialization; parse(print_expr(parse(s))) == parse(s)."""
    return _pr(node, 0)


def _pr(node, parent_prec: int) -> str:
    if isinstance(node, Num):
        if isinstance(node.value, Fraction):
            text = str(node.value.numerator)
            prec = _PREC["atom"]
            if node.value.denominator != 1:
                text = f"{node.value.numerator}/{node.value.denominator}"
                prec = _PREC["*"]
        else:
            text, prec = repr(node.value), _PREC["atom"]
        return f"({text})" if prec < parent_prec else text
    if isinstance(node, Imag):
        return "i"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_pr(node.arg, 0)})"
    if isinstance(node, Neg):
        prec = _PREC["neg"]
        text = "-" + _pr(node.operand, prec)
        return f"({text})" if prec < parent_prec else text
    if isinstance(node, Pow):
        prec = _PREC["pow"]
        text = _pr(node.base, prec + 1) + "^" + format_scalar_literal(node.exponent)
        return f"({text})" if prec < parent_prec else text
    if isinstance(node, Bin):
        prec = _PREC[node.op]
        text = _pr(node.left, prec) + node.op + _pr(node.right, prec + 1)
        return f"({text})" if prec < parent_prec else text
    if isinstance(node, ScalarLit):  # a bare number or parenthesized
        return format_scalar_literal(node)
    raise TypeError(f"not an AST node: {node!r}")


# -- variable shifting ----------------------------------------------------


def shift_variable(node, var: str, amount):
    """Rewrite ``var -> var + amount`` throughout an AST; an int, Fraction or
    GaussianRational amount stays exact, anything else is a complex literal."""
    lit = ScalarLit(GaussianRational._coerce(amount), complex(amount))
    repl = Bin("+", Var(var), lit)

    def walk(n):
        if isinstance(n, Var):
            return repl if n.name == var else n
        if isinstance(n, Neg):
            return Neg(walk(n.operand))
        if isinstance(n, Bin):
            return Bin(n.op, walk(n.left), walk(n.right))
        if isinstance(n, Pow):
            return Pow(walk(n.base), n.exponent)
        if isinstance(n, Call):
            return Call(n.fn, walk(n.arg))
        return n

    return walk(node)


# -- unit constants --------------------------------------------------------


class UnitConstant:
    """A nonzero constant kept in factored symbolic form.

    ``exp(exp_arg) * prod(base ** exponent)``, whose parts may not be
    representable on the exact backend.  Products of these cancel
    coefficient-blind, which is what lets a recentered differential stay
    exact even when its individual factors pick up constants like
    ``exp(1/2)``.  Every rational factor stays in the series.
    """

    __slots__ = ("exp_arg", "pows")

    def __init__(self, ctx: ScalarContext, exp_arg=None, pows=()):
        self.exp_arg = ctx.zero if exp_arg is None else exp_arg
        self.pows = tuple(pows)

    def _merge_pows(self, ctx, pows):
        merged = []
        for base, e in pows:
            for k, (b0, e0) in enumerate(merged):
                if ctx.eq(b0, base):
                    merged[k] = (b0, e0 + e)
                    break
            else:
                merged.append((base, e))
        return tuple((b, e) for b, e in merged if not ctx.is_zero(e))

    def mul(self, ctx, other: "UnitConstant") -> "UnitConstant":
        return UnitConstant(ctx, self.exp_arg + other.exp_arg,
                            self._merge_pows(ctx, self.pows + other.pows))

    def pow(self, ctx, e) -> "UnitConstant":
        es = ctx.coerce(e)
        return UnitConstant(ctx, self.exp_arg * es,
                            self._merge_pows(ctx, tuple((b, x * es) for b, x in self.pows)))

    def collapse(self, ctx):
        """Resolve to an ordinary scalar; exact backend raises when impossible."""
        value = ctx.one
        if not ctx.is_zero(self.exp_arg):
            value = value * ctx.exp(self.exp_arg)
        for base, e in self.pows:
            value = value * ctx.pow(base, e)
        return value

    def times(self, ctx, s: Series2) -> Series2:
        """The series c * s: s itself when the constant is 1."""
        if not self.pows and ctx.is_zero(self.exp_arg):
            return s
        return s.scale(self.collapse(ctx))

    def __repr__(self):
        return f"UnitConstant(exp_arg={self.exp_arg}, pows={self.pows})"


# -- evaluation -------------------------------------------------------------


def eval_normalized(node, ctx: ScalarContext, order: int):
    """Evaluate to ``(series, unit constant)`` with the constant factored out."""
    return _evn(node, ctx, order)


def _lit_value(ctx, lit: ScalarLit):
    if lit.exact is not None:
        return lit.exact if ctx.name == "exact" else ctx.coerce(complex(lit.exact))
    if ctx.name == "exact":
        raise BackendMismatch("approx (decimal) literal on the exact backend")
    return lit.approx


def _check_power_size(s: Series2, n: int):
    """Refuse the exact power ``s**n`` when its box of exponents exceeds
    MAX_POWER_TERMS."""
    if not s.coeffs:
        return
    i_s = [i for i, _ in s.coeffs]
    j_s = [j for _, j in s.coeffs]
    box = (n * (max(i_s) - min(i_s)) + 1) * (n * (max(j_s) - min(j_s)) + 1)
    if box > MAX_POWER_TERMS:
        raise ValueError(
            f"power of a polynomial spans more than MAX_POWER_TERMS = "
            f"{MAX_POWER_TERMS} terms"
        )


def _check_scalar_power(values, e):
    """Refuse the exact powers ``x**e`` of ``values`` when one would need more
    than MAX_SCALAR_BITS bits; 0 and the units +-1, +-i never grow."""
    e = GaussianRational._coerce(e)
    size = abs(e.re) + abs(e.im)
    for x in values:
        if not x or (abs(x.re), abs(x.im)) in ((1, 0), (0, 1)):
            continue
        bits = max(max(abs(q.numerator), q.denominator).bit_length() for q in (x.re, x.im))
        if size * bits > MAX_SCALAR_BITS:
            raise ValueError(
                f"an exact scalar power needs more than MAX_SCALAR_BITS = "
                f"{MAX_SCALAR_BITS} bits"
            )


def _evn(node, ctx, order):
    one = UnitConstant(ctx)
    names = ("z1", "z2")
    if isinstance(node, Num):
        v = node.value
        lit = (ScalarLit(GaussianRational(v), None) if isinstance(v, Fraction)
               else ScalarLit(None, complex(v)))
        return Series2.const(ctx, _lit_value(ctx, lit), INF, names), one
    if isinstance(node, Imag):
        return Series2.const(ctx, ctx.from_rational(0, 1), INF, names), one
    if isinstance(node, Var):
        return Series2.variable(ctx, 0 if node.name == "z1" else 1, INF, names), one
    if isinstance(node, Neg):
        s, c = _evn(node.operand, ctx, order)
        return -s, c
    if isinstance(node, Bin):
        s1, c1 = _evn(node.left, ctx, order)
        s2, c2 = _evn(node.right, ctx, order)
        if node.op == "*":
            return s1 * s2, c1.mul(ctx, c2)
        if node.op == "/":
            return s1.divide(s2, order), c1.mul(ctx, c2.pow(ctx, -1))
        # additive: constants must reconcile
        s1 = c1.mul(ctx, c2.pow(ctx, -1)).times(ctx, s1)
        return (s1 + s2 if node.op == "+" else s1 - s2), c2
    if isinstance(node, Pow):
        e = _lit_value(ctx, node.exponent)
        s, c = _evn(node.base, ctx, order)
        if ctx.name == "exact":  # a truncated base grows through its constant term
            terms = s.coeffs.values() if s.order is INF else [s.constant_term]
            _check_scalar_power(terms, e)
            for base, x in c.pows:
                _check_scalar_power([base], x * e)
        n = _as_int(e)
        if n is not None and n < 0:  # solved through the job's order, as a division is
            return s.pow_scalar(n, order), c.pow(ctx, n)
        if n is not None:
            if s.order is INF:
                _check_power_size(s, n)
            return s._int_pow(n, order if s.order is not INF else None), c.pow(ctx, n)
        if not s.is_unit:
            raise NotAUnit("fractional power of a non-unit")
        beta = s.constant_term
        u = s.scale(ctx.inv(beta))
        series = u.pow_scalar(e, order)
        const = c.pow(ctx, e).mul(
            ctx, UnitConstant(ctx, pows=((beta, ctx.coerce(e)),))
        )
        return series, const
    if isinstance(node, Call):
        s, c = _evn(node.arg, ctx, order)
        value = c.times(ctx, s)
        if node.fn == "exp":
            gamma = value.constant_term
            series = (value - gamma).exp(order)
            return series, UnitConstant(ctx, exp_arg=gamma)
        if node.fn == "log":
            return value.log(order), one
        raise ValueError(f"unknown function {node.fn!r}")
    if isinstance(node, ScalarLit):
        return Series2.const(ctx, _lit_value(ctx, node), INF, names), one
    raise TypeError(f"not an AST node: {node!r}")


def eval_ast(node, order: int, ctx: ScalarContext) -> Series2:
    """Evaluate an AST into a Series2 through the requested order."""
    s, c = _evn(node, ctx, order)
    return c.times(ctx, s)


def eval_text(text: str, order: int, ctx: ScalarContext) -> Series2:
    return eval_ast(parse(text), order, ctx)


# -- differential input ------------------------------------------------------


@dataclass
class DifferentialInput:
    """A differential entered either by coefficients or in product form.

    Coefficient form holds the three series ``a dz1^2 + b dz1 dz2 + c dz2^2``
    as expressions; product form holds ``scale * d(u) * d(r)``.
    """

    a: object = None
    b: object = None
    c: object = None
    scale: object = None
    u: object = None
    r: object = None

    @property
    def is_product_form(self) -> bool:
        return self.scale is not None

    @classmethod
    def from_strings(cls, mapping: dict) -> "DifferentialInput":
        keys = set(mapping)
        if {"a", "b", "c"} <= keys:
            return cls(a=parse(mapping["a"]), b=parse(mapping["b"]), c=parse(mapping["c"]))
        if {"scale", "u", "r"} <= keys:
            return cls(
                scale=parse(mapping["scale"]),
                u=parse(mapping["u"]),
                r=parse(mapping["r"]),
            )
        raise ValueError(
            "differential must provide either {a, b, c} or {scale, u, r}"
        )

    @cached_property
    def _factors(self) -> dict:
        """(ctx, order, base_shift) -> (h, u, r), filled by ``product_factors``."""
        return {}

    def product_factors(self, ctx: ScalarContext, order: int, base_shift=0):
        """The product form as series ``(h, u, r)`` with ``w = h d(u) d(r)``.

        A nonzero ``base_shift`` recenters z2 on the expressions.  The unit
        constants of the three factors fold into h, so constants that are not
        exact scalars (``exp(1/2)``) may appear in a factor as long as they
        cancel across the product.  Computed once per (ctx, order, base_shift).
        """
        key = (ctx, order, base_shift)
        if key not in self._factors:
            nodes = (self.scale, self.u, self.r)
            if base_shift:
                nodes = [shift_variable(n, "z2", base_shift) for n in nodes]
            (s_h, c_h), (s_u, c_u), (s_r, c_r) = (
                eval_normalized(n, ctx, order) for n in nodes
            )
            combined = c_h.mul(ctx, c_u).mul(ctx, c_r)
            self._factors[key] = combined.times(ctx, s_h), s_u, s_r
        return self._factors[key]

    def coefficient_triple(self, ctx: ScalarContext, order: int):
        """Expand to the (a, b, c) coefficient series."""
        if not self.is_product_form:
            return (
                eval_ast(self.a, order, ctx),
                eval_ast(self.b, order, ctx),
                eval_ast(self.c, order, ctx),
            )
        scale, u, r = self.product_factors(ctx, order)
        u1, u2 = u.derive(0), u.derive(1)
        r1, r2 = r.derive(0), r.derive(1)
        return (
            scale * u1 * r1,
            scale * products_sum([(1, u1, r2), (1, u2, r1)]),
            scale * u2 * r2,
        )
