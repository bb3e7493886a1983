"""heckezonal: exact-arithmetic verification of affine Hecke algebra
identities at desk scale.

Subpackages cover exact scalars (rationals, Laurent polynomials), the
extended affine Weyl group in window notation, the generic Hecke algebra
and its one-dimensional character, the spherical eigenvector and its
explicit matrix-coefficient values, place-permutation operator models,
growth and Poincare series with double-coset sums, and exact pairings of
fixed vectors for finite groups.
"""

from .scalars import (
    ExactScalar,
    LaurentPoly,
    NonInvertibleError,
    format_rational,
    parse_rational,
)
from .weyl import (
    AffinePermutation,
    EnumerationCapExceeded,
    ExtendedWeylElement,
    all_reduced_words,
    enumerate_by_length,
    generator,
    inverse,
    is_length_increasing,
    length,
    multiply,
    pi_element,
    project_to_finite,
    reduced_word,
)
from .hecke import (
    CharacterData,
    HeckeAlgebra,
    HeckeElement,
    PresentationReport,
    chi,
    verify_presentation,
)
from .spherical import (
    RequiresTrivialChiPi,
    SphericalParams,
    SphericalTruncation,
    matrix_coefficient_scalar,
    psi0_coefficient,
    support_check,
    verify_eigen_generator,
    verify_eigen_pi,
)
from .tensor import PlaceOperator, TensorVector, apply_operator, ev, gamma_operator, pair, t_operator
from .distinction import (
    GrowthSeries,
    IntegralReport,
    RequiresOddE,
    coset_measure,
    distinction_integral,
    growth_bfs,
    growth_closed_form,
    nonvanishing_scan,
    per_term_value,
    poincare_closed_form,
    poincare_value,
)
from .gelfand import FiniteRep, GelfandReport, check_pairing, fixed_space, is_irreducible, load_catalog

__version__ = "0.1.0"
