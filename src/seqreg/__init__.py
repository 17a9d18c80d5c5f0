"""Regularization toolkit for weight sequences.

Convex minorants of log-scale sequences, associated weight functions,
trace functions, and stripe-limited regularization driven by a
regularizing function, with exact rational arithmetic wherever the
inputs allow it.
"""

from .errors import (
    AxiomViolation,
    InconsistentDeclaration,
    InfiniteEntryUnsupported,
    InfinityAtZero,
    NonFiniteEntry,
    NotComparable,
    NotLogConvex,
    OutOfDomain,
    ParseError,
    RegimeMismatch,
    SeqRegError,
    TruncatedTail,
    Unbounded,
    UnknownAIota,
    WindowTooShort,
)
from .extreal import NEG_INF, ONE, POS_INF, ZERO, ExtReal, ext, log_of_fraction
from .tails import (
    LOG,
    WEIGHT,
    AffineLog,
    ExplicitOnly,
    Expression,
    FactorialPower,
    Geometric,
    compile_formula,
    tail_from_json,
)
from .sequences import (
    CASE1,
    CASE2,
    DEFAULT_WINDOW,
    INDETERMINATE,
    STANDARD,
    ConvexityReport,
    GrowthIndicators,
    LimitComparison,
    NormalizeResult,
    RegimeClassification,
    SequenceSpec,
    classify_regime,
    growth_indicators,
    is_log_convex,
    limit_comparison,
    normalize_sequence,
    quotients,
    require_regime,
    resolve_window,
    to_log_scale,
    to_weight_scale,
)
from .piecewise import (
    EMPTY_INTERVAL,
    REAL_LINE,
    Breakpoint,
    ConjugateValue,
    Interval,
    PiecewiseLinearFn,
    StepFunction,
)
from .minorant import (
    Case2LimitReport,
    MinorantResult,
    SupportLine,
    case1_regularize,
    case2_limit_check,
    case2_regularize,
    convex_minorant,
    log_convex_minorant,
    reconstruct_from_trace,
    support_line,
    trace_function,
)
from .weights import (
    OmegaValue,
    counting_function,
    omega_direct,
    omega_double_tilde,
    omega_integral,
    omega_piecewise,
    omega_tilde,
    phi_omega,
    underline_sequence,
    young_conjugate,
)
from .phireg import (
    ComparisonReport,
    PhiInterval,
    PhiRegResult,
    PhiSegment,
    RegularizingFunction,
    compare_regularizations,
    counting_m_phi,
    make_phi,
    recover_sequence,
    regularize_with_phi,
    trace_A_phi,
    trace_invariance_check,
)
from .oracles import (
    OracleReport,
    SweepResult,
    brute_minorant,
    brute_omega,
    brute_omega_grid,
    brute_phi_sweep,
    brute_trace,
    compare_values,
)

__version__ = "0.1.0"

# every public name imported above, sorted; the submodules are not exported
__all__ = sorted(n for n, v in globals().items()
                 if not n.startswith("_") and type(v) is not type(errors))
