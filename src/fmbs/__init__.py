"""Fast greedy sensor placement for linear inverse problems.

Library layers:

* :mod:`fmbs.linalg` -- dense kernels (shifted Gram matrices, Cholesky
  factors and their triangular inverse, the QR of a stack [A; sqrt(mu) I]
  that never forms A^T A, trace of inverse, bordered-inverse update,
  least-squares apply), the checked inputs
  (matrix, vector, sample set and the rows it gathers, shift, noise
  variance, random seed, count) and the one transient-memory block every
  blocked loop is sized by;
* :mod:`fmbs.placement` -- the fast warm-start greedy sampler plus
  direct-greedy, exhaustive and random baselines and both objectives;
* :mod:`fmbs.inverse` -- least-squares recovery and its analytic and
  Monte-Carlo mean-square error;
* :mod:`fmbs.matgen` -- seeded random measurement-matrix ensembles;
* :mod:`fmbs.matio` -- matrix file formats;
* :mod:`fmbs.cli` -- the ``fmbs`` command-line benchmark harness.

placement, inverse and matio are siblings: each builds on linalg (and the
shared errors) alone.
"""

from .errors import (
    BudgetError,
    DegenerateSchur,
    DimensionError,
    FmbsError,
    InputError,
    InvalidParameter,
    InvalidSampleSet,
    InvalidSpec,
    NonFiniteInput,
    NotPositiveDefinite,
    ParseError,
    TooLarge,
)
from .inverse import expected_mse, ls_estimate, monte_carlo_mse
from .linalg import (
    as_sample_set,
    block_inverse_update,
    pseudo_inverse_apply,
    schur_threshold,
    trace_inverse,
)
from .matgen import Model, ModelSpec, generate
from .matio import load_matrix, save_matrix
from .placement import (
    CandidateState,
    GreedyState,
    PlacementResult,
    direct_greedy_select,
    exhaustive_select,
    fmbs_select,
    random_select,
    shifted_normal_objective,
    submatrix_objective,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CandidateState",
    "DegenerateSchur",
    "DimensionError",
    "FmbsError",
    "GreedyState",
    "InputError",
    "InvalidParameter",
    "InvalidSampleSet",
    "InvalidSpec",
    "Model",
    "ModelSpec",
    "NonFiniteInput",
    "NotPositiveDefinite",
    "ParseError",
    "PlacementResult",
    "TooLarge",
    "as_sample_set",
    "block_inverse_update",
    "direct_greedy_select",
    "exhaustive_select",
    "expected_mse",
    "fmbs_select",
    "generate",
    "load_matrix",
    "ls_estimate",
    "monte_carlo_mse",
    "pseudo_inverse_apply",
    "random_select",
    "save_matrix",
    "schur_threshold",
    "shifted_normal_objective",
    "submatrix_objective",
    "trace_inverse",
]
