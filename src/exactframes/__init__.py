"""Certified exact-rational computation with frames and g-frames on
separable Hilbert spaces.

Everything is a precision-query oracle: asking any produced name for
precision n yields a rational (or a finite rational basis combination)
within 2**-n of the represented value, and constructions that cannot
meet that contract from the data they were given fail with
PrecisionExhaustionError instead of answering.
"""

from .errors import (
    InvariantViolationError,
    NegativeInputError,
    PrecisionExhaustionError,
    SpaceMismatchError,
    SpecParseError,
    SpecResolveError,
    SpectralHypothesisError,
)
from .realcore import (
    Comparison,
    CReal,
    CRealSeq,
    SpeckerData,
    creal_abs,
    creal_add,
    creal_compare,
    creal_from_rational,
    creal_limit,
    creal_mul,
    creal_scale,
    creal_sqrt,
    creal_sub,
    creal_sum,
    format_rational,
    pairing,
    parse_rational,
    unpairing,
)
from .hilbert import (
    FiniteCombo,
    FunctionalName,
    SpaceDescriptor,
    VectorName,
    basis_vector,
    inner_product,
    linear_combination,
    riesz_functional,
    riesz_representer,
    same_space,
    vec_distance,
    vec_norm,
    vector_from_coefficients,
)
from .directsum import (
    FourierName,
    SumName,
    SumSpace,
    fourier_to_sum,
    sum_embed,
    sum_inner_product,
    sum_to_fourier,
)
from .gframes import (
    FrameName,
    FrameRows,
    GFrameName,
    OperatorName,
    OrthonormalRows,
    RowFrame,
    analysis,
    atoms_gframe,
    block_gframe,
    bounded_operator,
    canonical_dual_pair,
    corresponding_frame,
    diagonal_gframe,
    dual_from_left_inverse,
    frame_operator,
    gframe_from_corresponding,
    gframe_to_frame,
    invert_frame_operator,
    kernel_dual_pair,
    kernel_from_dual,
    operator_compose,
    operator_from_columns,
    pseudo_inverse,
    reconstruct,
    richardson_iterate,
    riesz_correspondence,
    scalar_codomain,
    synthesis,
    zero_operator,
)
from .gallery import (
    column_lower_adjoint,
    column_lower_operator,
    gated_adjoint,
    gated_dual_tau,
    remark_frame_operator,
    toeplitz_upper_gframe,
    upper_u_operator,
)

__all__ = [name for name in dir() if not name.startswith("_")]
