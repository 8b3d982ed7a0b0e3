"""symdiff2: local analysis of symmetric 2-differentials on complex surfaces.

A small computer-algebra kernel built on truncated bivariate power/Laurent
series over exact Gaussian-rational or tolerant complex coefficients.  It
decides closedness through the complexified curvature operator, splits
rank-2 differentials into 1-forms, classifies discriminant components,
constructs normal-form charts along common leaves, and solves the singular
decomposition (exponent, Laurent parts, monodromy) at a breakdown leaf.
"""

from .closedness import (
    ClosednessReport,
    brioschi_numerator,
    compare_decompositions,
    first_kind_decompose,
    is_closed,
    separability_defect,
    verify_abelian_relation,
)
from .differentials import (
    ComponentClass,
    OneForm,
    SymTwoDiff,
    classify_component,
    core_discriminant,
    discriminant,
    jacobian_det,
    multiplicity,
    product,
    pullback,
    pullback_cover,
    rank,
    split,
    try_divide,
)
from .errors import (
    BackendMismatch,
    DegenerateBasePoint,
    DivisionByNonUnit,
    DivisionFailure,
    ExactValueError,
    ExponentNotScalar,
    ExprSyntaxError,
    Inconclusive,
    Mismatch,
    NonzeroResidual,
    NotALeafPresentation,
    NotAUnit,
    NotNormalized,
    NotSeparable,
    NotSplit,
    PrecisionExhausted,
    SingularJacobian,
    SymDiffError,
    ValuationError,
    ZeroSeries,
)
from .expressions import (
    DifferentialInput,
    eval_ast,
    eval_text,
    parse,
    print_expr,
    shift_variable,
)
from .local_forms import (
    LeafAnalysis,
    LeafClass,
    MonodromyIndex,
    NormalFormData,
    SingularDecomposition,
    analyze_product_form,
    classify_leaf,
    compose_singular_decomposition,
    leaf_chart,
    monodromy_index,
    order_of_contact,
    solve_singular_decomposition,
)
from .scalars import APPROX, DEFAULT_TOLERANCE, EXACT, GaussianRational, get_context
from .series import (
    DEFAULT_ORDER,
    INF,
    CoordMap,
    Series1,
    Series2,
    reverse_map,
    substitute_series1,
    transcendental,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
