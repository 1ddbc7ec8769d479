"""cyclicpd: numerical verification of cyclic-sum inequalities for positive
definite matrices, and counterexample search over the PD cone."""

__version__ = "0.1.0"

from .errors import (
    ConvergenceFailure,
    CyclicPDError,
    DimensionMismatch,
    EntryTooLarge,
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
    PDMatrix,
    validate_family,
)
from .inequalities import (
    CheckReport,
    counterexample_family,
    cyclic_sum_trace,
    reproduce_counterexample,
)
from .search import (
    SearchConfig,
    SearchResult,
    margin_gradient,
    minimize_margin,
    probe_conjecture,
    scalar_cyclic_sum,
)
from .serialize import family_from_dict, family_to_dict

__all__ = [name for name in dir() if not name.startswith("_")]
