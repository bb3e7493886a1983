"""heckezonal: exact-arithmetic verification of affine Hecke algebra
identities at desk scale.

The modules cover exact scalars (rationals, signed powers of q0, Laurent
polynomials), the extended affine Weyl group in window notation, the
generic Hecke algebra and its one-dimensional character, the spherical
eigenvector and its explicit matrix-coefficient values, the
place-permutation operator model of those values, growth and Poincare
series with double-coset sums, and exact pairings of fixed vectors for
finite groups.  The ``heckezonal`` command runs each of them as a
verification suite; the names imported here are the library API.
Reference models that only the tests compare against (dense tensor
vectors, the residue projection mod e, specialization of q1, a
right-peeling Hecke product) are kept with the tests, not shipped.
"""

from .scalars import (
    ExactScalar,
    LaurentPoly,
    Monomial,
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
    multiply,
    pi_element,
)
from .hecke import (
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
    verify_eigen,
    verify_eigen_generator,
    verify_eigen_pi,
)
from .tensor import PlaceOperator, ev, gamma_operator, t_operator, verify_coefficient
from .distinction import (
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
from .gelfand import (
    FiniteRep, GelfandReport, check_catalog, check_pairing, fixed_space, is_irreducible, load_catalog,
)

__version__ = "0.1.0"
