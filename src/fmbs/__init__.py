"""Fast greedy sensor placement for linear inverse problems.

Library layers:

* :mod:`fmbs.linalg` -- dense kernels (SPD solves, trace of inverse,
  bordered-inverse update, least-squares apply);
* :mod:`fmbs.placement` -- the fast warm-start greedy sampler plus
  direct-greedy, exhaustive and random baselines and both objectives;
* :mod:`fmbs.inverse` -- observation model, least-squares recovery,
  analytic and Monte-Carlo mean-square error;
* :mod:`fmbs.matgen` -- seeded random measurement-matrix ensembles;
* :mod:`fmbs.matio` -- matrix file formats;
* :mod:`fmbs.cli` -- the ``fmbs`` command-line benchmark harness.
"""

from .errors import (
    BudgetError,
    DegenerateSchur,
    DimensionError,
    FmbsError,
    InvalidSpec,
    NonFiniteInput,
    NotPositiveDefinite,
    ParseError,
    TooLarge,
)
from .inverse import (
    Estimate,
    NoiseModel,
    build_sampling_matrix,
    expected_mse,
    ls_estimate,
    monte_carlo_mse,
    observe,
)
from .linalg import (
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
    as_sample_set,
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
    "Estimate",
    "FmbsError",
    "GreedyState",
    "InvalidSpec",
    "Model",
    "ModelSpec",
    "NoiseModel",
    "NonFiniteInput",
    "NotPositiveDefinite",
    "ParseError",
    "PlacementResult",
    "TooLarge",
    "as_sample_set",
    "block_inverse_update",
    "build_sampling_matrix",
    "direct_greedy_select",
    "exhaustive_select",
    "expected_mse",
    "fmbs_select",
    "generate",
    "load_matrix",
    "ls_estimate",
    "monte_carlo_mse",
    "observe",
    "pseudo_inverse_apply",
    "random_select",
    "save_matrix",
    "schur_threshold",
    "shifted_normal_objective",
    "submatrix_objective",
    "trace_inverse",
]
