"""Synthetic data generation: Gaussian linear-model samples, pairwise
comparison construction, and the two-density construction showing that
pairwise data alone cannot pin down the regression function.

All sampling is driven by numpy Generator streams derived from
(seed, stream) pairs, so distinct stream tags give independent draws while a
single seed keeps the whole experiment reproducible.  One seed fixes one
linear-Gaussian model, SyntheticSpec.draw: its true direction comes from
the STREAM_AUX stream, its unlabeled and test sets from STREAM_UNLABELED and
STREAM_TEST, and its comparisons from STREAM_PAIRWISE.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Dataset, PairwiseSet, ParameterError, ShapeError, _frozen

# Stream tags: distinct tags under one seed yield independent sample streams.
STREAM_UNLABELED = 0
STREAM_PAIRWISE = 1
STREAM_TEST = 2
STREAM_AUX = 3

_COUNTEREXAMPLE_TAG = {"base": 10, "tilde": 11}


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    if seed < 0:
        raise ParameterError("seed must be a nonnegative integer")
    return np.random.default_rng([int(seed), *[int(s) for s in stream]])


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere: normalized standard normals."""
    if dim < 1:
        raise ParameterError("dim must be >= 1")
    while True:
        v = rng.standard_normal(dim)
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-12:
            return v / nrm


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """Linear-Gaussian generator: X ~ N(0, I_dim), Y = theta_true . X + eps
    with eps ~ N(0, noise_std^2) and a unit-norm theta_true."""

    dim: int
    noise_std: float
    theta_true: np.ndarray
    seed: int

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("dim must be >= 1")
        if not (self.noise_std >= 0.0 and np.isfinite(self.noise_std)):
            raise ParameterError(f"noise_std must be >= 0, got {self.noise_std!r}")
        if self.seed < 0:
            raise ParameterError("seed must be a nonnegative integer")
        th = _frozen(self.theta_true, "theta_true", 1)
        if th.size != self.dim:
            raise ShapeError(f"theta_true must have shape ({self.dim},)")
        if abs(float(np.linalg.norm(th)) - 1.0) > 1e-9:
            raise ParameterError("theta_true must have unit norm (within 1e-9)")
        object.__setattr__(self, "theta_true", th)

    @classmethod
    def draw(cls, dim: int, noise_std: float, seed: int) -> "SyntheticSpec":
        """The model of a seed: theta_true is a uniform direction drawn from
        the seed's STREAM_AUX stream."""
        theta = random_unit_vector(dim, stream_rng(seed, STREAM_AUX))
        return cls(dim=dim, noise_std=noise_std, theta_true=theta, seed=seed)


def generate_synthetic(spec: SyntheticSpec, n: int, stream: int = STREAM_UNLABELED) -> Dataset:
    """Draw n (X, Y) samples.  Deterministic in (spec.seed, stream); distinct
    stream tags give mutually independent datasets under the same seed."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = stream_rng(spec.seed, stream)
    X = rng.standard_normal((n, spec.dim))
    eps = rng.standard_normal(n) * spec.noise_std
    y = X @ spec.theta_true + eps
    return Dataset(features=X, targets=y)


def pairwise_from_arrays(x1, y1, x2, y2) -> PairwiseSet:
    """Order aligned sample pairs into winners/losers; ties (y1 == y2) put the
    first sample on the winner side.  Targets must be finite."""
    X1 = np.asarray(x1, dtype=float)
    X2 = np.asarray(x2, dtype=float)
    v1 = np.asarray(y1, dtype=float).ravel()
    v2 = np.asarray(y2, dtype=float).ravel()
    if X1.ndim != 2 or X1.shape != X2.shape:
        raise ShapeError("x1 and x2 must be 2-d arrays of identical shape")
    if v1.shape[0] != X1.shape[0] or v2.shape[0] != X1.shape[0]:
        raise ShapeError("target lengths do not match the feature rows")
    if not (np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))):
        # a comparison with nan is False, so it would silently hand every
        # such pair to the second sample
        raise ParameterError("targets contain non-finite entries")
    first_wins = (v1 >= v2)[:, None]
    winners = np.where(first_wins, X1, X2)
    losers = np.where(first_wins, X2, X1)
    return PairwiseSet(winners=winners, losers=losers)


def sample_pairwise_from_spec(spec: SyntheticSpec, n_r: int) -> PairwiseSet:
    """Draw n_r comparisons from 2 * n_r fresh (X, Y) samples on the seed's
    STREAM_PAIRWISE stream, independent of the unlabeled and test sets that
    generate_synthetic draws on their own streams under the same seed."""
    if n_r < 1:
        raise ParameterError("n_r must be >= 1")
    rng = stream_rng(spec.seed, STREAM_PAIRWISE)
    X1 = rng.standard_normal((n_r, spec.dim))
    e1 = rng.standard_normal(n_r) * spec.noise_std
    X2 = rng.standard_normal((n_r, spec.dim))
    e2 = rng.standard_normal(n_r) * spec.noise_std
    y1 = X1 @ spec.theta_true + e1
    y2 = X2 @ spec.theta_true + e2
    return pairwise_from_arrays(X1, y1, X2, y2)


class CounterexampleVariant(str, Enum):
    """Two joint densities on [-1, 1] x ([0, 2] union [3, 4]) sharing all
    marginals and the pairwise-comparison distribution while having different
    conditional target means."""

    BASE = "base"
    TILDE = "tilde"


# tilde-variant cells: (x-block, y-cell base offset, probability mass)
#   x in [-1, 0):  density 1/8 on y in [0,1), 1/4 on [1,2), 1/8 on [3,4]
#   x in [0, 1]:   density 5/24, 1/12, 5/24 on the same y cells
_TILDE_MASSES = np.array([1 / 8, 1 / 4, 1 / 8, 5 / 24, 1 / 12, 5 / 24])
_TILDE_YBASE = np.array([0.0, 1.0, 3.0, 0.0, 1.0, 3.0])


def counterexample_sampler(
    variant: CounterexampleVariant | str, n: int, seed: int, stream: int = 0
) -> Dataset:
    """Sample n points from one of the two variants.  Features are the scalar
    x as an (n, 1) matrix; targets are y."""
    variant = CounterexampleVariant(variant)
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = stream_rng(seed, _COUNTEREXAMPLE_TAG[variant.value], stream)
    if variant is CounterexampleVariant.BASE:
        x = rng.uniform(-1.0, 1.0, size=n)
        u = rng.random(n)
        # inverse CDF of the flat density 1/3 on [0, 2] union [3, 4]
        y = np.where(u < 2.0 / 3.0, 3.0 * u, 3.0 * u + 1.0)
    else:
        cum = np.cumsum(_TILDE_MASSES)
        k = np.searchsorted(cum, rng.random(n), side="right")
        x_low = np.where(k < 3, -1.0, 0.0)
        x = x_low + rng.random(n)
        y = _TILDE_YBASE[k] + rng.random(n)
    return Dataset(features=x[:, None], targets=y)
