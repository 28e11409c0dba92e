"""Exact-arithmetic positivity and Lorentzian-order tests for bivariate forms."""

from .algebra import (
    AlgebraProfile,
    PrimitiveBasis,
    XYPoly,
    annihilator_generators,
    check_hrr,
    check_mixed_hrr_at,
    check_mixed_hrr_cone,
    check_sl,
    primitive_subspace,
    profile,
    quotient_by_colon,
)
from .errors import (
    BilorError,
    BudgetError,
    DegreeError,
    FormatError,
    MinorCapError,
    NotSymmetricError,
    PreconditionError,
    ShapeError,
    UsageError,
    ZeroFormError,
    ZeroPolynomialError,
)
from .forms import (
    BivariateForm,
    CoordChange,
    LinearForm,
    derive,
    format_form,
    from_monomial_coeffs,
    monomial,
    parse_form,
    substitute,
    symmetric_mix,
)
from .hessians import (
    HessianFamily,
    SignatureReport,
    catalecticant,
    evaluate_hessian,
    evaluate_mixed_hessian,
    hessian_family,
    mixture_weights,
    reversal_det,
    signature,
)
from .lorentzian import (
    ApproxStep,
    LorentzClass,
    approximate_tp,
    classify,
    is_lorentzian,
    is_strictly_lorentzian,
    newton_ulc_check,
    straighten_from_hrr,
)
from .paths import (
    PathMatrixWindow,
    lgv_minor_oracle,
    path_matrix,
    verify_factorization,
)
from .stability import (
    RootCount,
    count_roots,
    dehomogenize,
    is_normally_stable,
    is_stable,
    pf_window_check,
)
from .toeplitz import (
    ToeplitzMatrix,
    format_matrix,
    from_dense,
    from_form,
    is_totally_nonnegative,
    is_totally_positive,
    is_totally_positive_full,
    parse_matrix,
    to_form,
)
from .verdict import HrrFailure, HrrVerdict, MinorWitness, Verdict, fmt_rat, parse_rational

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
