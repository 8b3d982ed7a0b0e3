"""Exception types shared across the package."""


class SymDiffError(Exception):
    """Base class for every library error."""


class BackendMismatch(SymDiffError):
    """Operands carry different scalar backends or incompatible variables."""


class NotAUnit(SymDiffError):
    """Operation requires a series with an invertible constant term."""


class ZeroSeries(SymDiffError):
    """All known coefficients vanish; raise the truncation order to proceed."""


class ValuationError(SymDiffError):
    """Inner series of a composition has an inadmissible constant term."""


class SingularJacobian(SymDiffError):
    """Coordinate map is not invertible at the origin."""


class PrecisionExhausted(SymDiffError):
    """The guaranteed truncation order is too low for the requested operation."""


class ExactValueError(SymDiffError):
    """A constant (exp, log or root) is not representable as a Gaussian rational."""


class DivisionFailure(SymDiffError):
    """Exact series division by the supplied divisor does not come out clean."""


class DivisionByNonUnit(SymDiffError):
    """Division by a series vanishing at the origin beyond a z1-monomial factor."""


class ExprSyntaxError(SymDiffError):
    """Source text does not match the expression grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ExponentNotScalar(SymDiffError):
    """Exponents and scalar parameters must fold to finite numbers, never contain variables."""


class NotSplit(SymDiffError):
    """Certificate that the differential has no local splitting.

    Carries the offending component and the odd multiplicity of the
    discriminant along it, so callers can suggest a ramified cover.
    """

    def __init__(self, witness: str, multiplicity: int, message: str | None = None):
        self.witness = witness
        self.multiplicity = multiplicity
        super().__init__(
            message
            or f"not split: discriminant has odd multiplicity {multiplicity} along {witness}"
        )


class Inconclusive(SymDiffError):
    """Verdict cannot be decided at the available truncation order."""


class NotSeparable(SymDiffError):
    """g(z1, z2) is not a product of one-variable factors."""

    def __init__(self, residual, message: str | None = None):
        self.residual = residual
        super().__init__(message or "not separable: nonzero residual attached")


class Mismatch(SymDiffError):
    """Two closed decompositions do not differ by a constant pair (c, 1/c)."""


class NotALeafPresentation(SymDiffError):
    """First integral is not of the form (leaf coordinate) * (unit)."""


class DegenerateBasePoint(SymDiffError):
    """dt vanishes at the chosen base point; retry with a nonzero base shift."""


class NotNormalized(SymDiffError):
    """Conformal factor is not a z1 power times a unit; wrong chart or input."""


class NonzeroResidual(SymDiffError):
    """Singular decomposition left a nonzero residual; the input is not closed."""
