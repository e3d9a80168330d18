"""Seeded random measurement-matrix generators for experiments and tests."""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import InvalidSpec
from .linalg import as_seed, is_integral


class Model(IntEnum):
    """Measurement-matrix ensembles used by the benchmark harness."""

    GAUSSIAN = 1
    BERNOULLI = 2


@dataclass(frozen=True)
class ModelSpec:
    """Seeded description of one random n x k measurement matrix."""

    model: Model
    n: int
    k: int
    seed: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "model", Model(self.model))
        except ValueError:
            raise InvalidSpec(f"unknown model id {self.model!r}") from None
        if not is_integral(self.n) or not is_integral(self.k) or not 1 <= self.k <= self.n:
            raise InvalidSpec(f"need integers n >= k >= 1, got n={self.n}, k={self.k}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "seed", as_seed(self.seed))


def generate(spec):
    """Draw the matrix described by spec; bit-reproducible per seed.

    GAUSSIAN fills entries with i.i.d. standard normals.  BERNOULLI fills
    entries with i.i.d. fair coin flips on {0, 1}; the 0.5 success
    probability is a deliberate choice, see the README note on model 2.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.model is Model.GAUSSIAN:
        return rng.standard_normal((spec.n, spec.k))
    return rng.integers(0, 2, size=(spec.n, spec.k)).astype(np.float64)
