"""Exact zeta functions for the two-parameter family L(m, n) of
class-2 nilpotent Lie rings, with brute-force enumeration oracles."""

from .combinat import (
    LieDims,
    compositions_revlex,
    gaussian_binomial,
    gaussian_multinomial,
    lie_dims,
)
from .igusa import IgusaData, igusa_permutation, igusa_reduced, igusa_subset, igusa_topological
from .laurent import LaurentPoly
from .liering import (
    LieStructure,
    LinearFormMatrix,
    b_matrix_direct,
    b_matrix_recursive,
    bracket_matrix,
    build_structure,
    full_commutator_matrix,
    specialize,
)
from .oracle import (
    LatticeType,
    congruence_index_check,
    count_graded_ideals,
    count_ideals,
    hnf_enumerate,
    maximal_lattice_census,
    rep_matrix_check,
    snf_valuations,
    verify_dirichlet,
)
from .rational import (
    RationalFunction,
    rf_equal,
    rf_invert_vars,
    rf_limit_t1,
    rf_series_coeffs,
)
from .univariate import LinearFactorRational
from .zetas import (
    NumericalData,
    ZetaReport,
    abelian_zeta,
    analytic_invariants,
    check_functional_equation,
    check_zero_behaviour,
    graded_ideal_zeta,
    ideal_zeta,
    igusa_data,
    numerical_data,
    reduced_ideal_zeta,
    rep_zeta,
    topological_ideal_zeta,
    zeta_report,
)

__version__ = "0.1.0"
