"""cyclicpd: numerical verification of cyclic-sum inequalities for positive
definite matrices, and counterexample search over the PD cone."""

__version__ = "0.1.0"

from .errors import (
    ConvergenceFailure,
    CyclicPDError,
    DimensionMismatch,
    FixtureMismatch,
    IllConditioned,
    NotFinite,
    NotHermitian,
    NotPositiveDefinite,
    NotSquare,
    SingularDenominator,
)
from .pdcore import (
    CyclicFamily,
    HermMatrix,
    LoewnerResult,
    PDMatrix,
    Spectrum,
    Tolerance,
    eig_general,
    eig_herm,
    eig_pd_product,
    inverse_pd,
    loewner_geq,
    make_herm,
    make_pd,
    random_family,
    random_pd,
    sqrt_pd,
)
from .inequalities import (
    Certificate,
    CheckReport,
    build_block_certificate,
    build_wz_certificate,
    check_bidirectional,
    check_bidirectional_eig4,
    check_block_certificate,
    check_cs_trace,
    check_eigineq1,
    check_harmonic_loewner,
    check_nesbitt,
    check_nesbitt_k,
    check_product_sum_eigs,
    check_s4_decomposition,
    check_shapiro_extension,
    check_shapiro_trace,
    check_square_cycle,
    check_trace_product,
    check_upper_bound_2ab,
    check_weighted_cs,
    check_wz_certificate,
    counterexample_family,
    counterexample_fixture,
    cyclic_sum_trace,
    reproduce_counterexample,
)
from .search import (
    SearchConfig,
    SearchResult,
    diagonal_embed,
    margin_gradient,
    minimize_margin,
    probe_conjecture,
    scalar_cyclic_sum,
    shapiro_margin,
)
from .serialize import (
    family_from_dict,
    family_to_dict,
    load_family,
    matrix_from_dict,
    matrix_to_dict,
    save_family,
)

__all__ = [name for name in dir() if not name.startswith("_")]
