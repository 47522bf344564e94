"""Shared domain types: datasets, pairwise comparison sets, linear models,
and Bregman-divergence generators.

Everything downstream treats these as immutable value objects; the numpy
arrays they hold are made read-only at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


# ---------------------------------------------------------------------------
# errors


class UncoupledError(Exception):
    """Base class for all library-specific errors."""


class DomainError(UncoupledError, ValueError):
    """A value lies outside the valid domain of a Bregman generator or CDF."""


class ShapeError(UncoupledError, ValueError):
    """Array shapes are inconsistent with each other or with a model."""


class ParameterError(UncoupledError, ValueError):
    """A configuration value is out of range or otherwise unusable."""


class DegenerateVarianceError(ParameterError):
    """Both pairwise score variances are zero, so no variance-optimal
    interpolation weight exists."""


class NumericError(UncoupledError, RuntimeError):
    """A numeric routine produced non-finite output or an unsolvable system."""


class DivergenceError(NumericError):
    """Iterative minimization encountered a non-finite objective value."""


class SchemaError(UncoupledError, ValueError):
    """A CSV schema references a column that does not exist or conflicts."""


class EmptyDataError(UncoupledError, ValueError):
    """A data source contained no usable rows."""


# ---------------------------------------------------------------------------
# array plumbing


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def as_matrix(a, name: str) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be a 2-d array, got ndim={out.ndim}")
    return out


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True, eq=False)
class Dataset:
    """A feature matrix with optional aligned targets and feature names.

    features has shape (n, d) with n >= 1 and d >= 1; all entries finite.
    """

    features: np.ndarray
    targets: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        X = as_matrix(self.features, "features")
        if X.shape[0] < 1:
            raise ParameterError("dataset needs at least one row")
        if X.shape[1] < 1:
            raise ParameterError("dataset needs at least one feature column")
        if not np.all(np.isfinite(X)):
            raise ParameterError("features contain non-finite entries")
        object.__setattr__(self, "features", _freeze(X))
        if self.targets is not None:
            y = np.asarray(self.targets, dtype=float)
            if y.ndim != 1:
                raise ShapeError("targets must be a 1-d array")
            if y.shape[0] != X.shape[0]:
                raise ShapeError(
                    f"targets length {y.shape[0]} does not match {X.shape[0]} rows"
                )
            if not np.all(np.isfinite(y)):
                raise ParameterError("targets contain non-finite entries")
            object.__setattr__(self, "targets", _freeze(y))
        if self.feature_names is not None:
            names = tuple(str(s) for s in self.feature_names)
            if len(names) != X.shape[1]:
                raise ShapeError("feature_names length does not match column count")
            object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def without_targets(self) -> "Dataset":
        """A copy carrying only features; used to hand data to estimators
        that must never see the feature/target alignment."""
        return Dataset(features=self.features, feature_names=self.feature_names)


@dataclass(frozen=True, eq=False)
class PairwiseSet:
    """Aligned winner/loser feature matrices from pairwise comparisons.

    Row i holds one comparison: winners[i] had the larger (or tied) target.
    Zero rows are allowed so risk terms can degrade gracefully to the
    unlabeled-only part.
    """

    winners: np.ndarray
    losers: np.ndarray

    def __post_init__(self):
        W = as_matrix(self.winners, "winners")
        L = as_matrix(self.losers, "losers")
        if W.shape != L.shape:
            raise ShapeError(f"winners shape {W.shape} != losers shape {L.shape}")
        if W.shape[1] < 1:
            raise ParameterError("pairwise set needs at least one feature column")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(L))):
            raise ParameterError("pairwise features contain non-finite entries")
        object.__setattr__(self, "winners", _freeze(W))
        object.__setattr__(self, "losers", _freeze(L))

    @property
    def n_pairs(self) -> int:
        return self.winners.shape[0]

    @property
    def dim(self) -> int:
        return self.winners.shape[1]


# ---------------------------------------------------------------------------
# linear models


@dataclass(frozen=True, eq=False)
class LinearModel:
    """h(x) = theta . x.  An intercept is a constant-1 feature column."""

    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise ShapeError("theta must be a nonempty 1-d array")
        if not np.all(np.isfinite(t)):
            raise ParameterError("theta contains non-finite entries")
        object.__setattr__(self, "theta", _freeze(t))

    @property
    def dim(self) -> int:
        """Number of feature coordinates the model consumes."""
        return self.theta.size


def predict(model: LinearModel, x) -> float | np.ndarray:
    """Evaluate the linear score on one point (1-d input, returns float) or a
    batch (2-d input of shape (m, d), returns shape (m,))."""
    arr = np.asarray(x, dtype=float)
    d = model.dim
    if arr.ndim == 1:
        if arr.size != d:
            raise ShapeError(f"input has {arr.size} coordinates, model expects {d}")
        return float(arr @ model.theta)
    if arr.ndim == 2:
        if arr.shape[1] != d:
            raise ShapeError(f"input has {arr.shape[1]} columns, model expects {d}")
        return arr @ model.theta
    raise ShapeError(f"input must be 1-d or 2-d, got ndim={arr.ndim}")


# ---------------------------------------------------------------------------
# Bregman generators


@dataclass(frozen=True)
class BregmanGenerator:
    """A convex generator phi with its first three derivatives and an open
    validity interval.  phi and its derivatives accept numpy arrays."""

    name: str
    phi: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    phi_prime: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    phi_second: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    phi_third: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    valid_domain: tuple[float, float] = (-np.inf, np.inf)

    def contains(self, x) -> bool:
        """Whether every entry lies strictly inside valid_domain; nan and
        +-inf never do, and an empty array does.  A nan makes min and max
        nan, which fails both comparisons."""
        arr = np.asarray(x, dtype=float)
        lo, hi = self.valid_domain
        return arr.size == 0 or bool(arr.min() > lo and arr.max() < hi)

    def require_domain(self, x, what: str = "value"):
        if not self.contains(x):
            lo, hi = self.valid_domain
            raise DomainError(
                f"{what} outside the open domain ({lo}, {hi}) of generator "
                f"'{self.name}'"
            )


SQUARED = BregmanGenerator(
    name="squared",
    phi=lambda x: np.square(x),
    phi_prime=lambda x: 2.0 * np.asarray(x, dtype=float),
    phi_second=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
    phi_third=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    valid_domain=(-np.inf, np.inf),
)

# Convex Bernoulli likelihood generator on (0, 1):
#   phi(x) = x log x + (1 - x) log(1 - x)
# so that the induced divergence is the binary KL divergence.
BERNOULLI_KL = BregmanGenerator(
    name="bernoulli_kl",
    phi=lambda x: x * np.log(x) + (1.0 - x) * np.log1p(-x),
    phi_prime=lambda x: np.log(x) - np.log1p(-x),
    phi_second=lambda x: 1.0 / (x * (1.0 - x)),
    phi_third=lambda x: (2.0 * x - 1.0) / (x * (1.0 - x)) ** 2,
    valid_domain=(0.0, 1.0),
)


def bregman_divergence(gen: BregmanGenerator, t: float, z: float) -> float:
    """d_phi(t, z) = phi(t) - phi(z) - (t - z) phi'(z); zero iff t == z."""
    gen.require_domain(t, "first argument")
    gen.require_domain(z, "second argument")
    tf = float(t)
    zf = float(z)
    val = float(gen.phi(tf) - gen.phi(zf) - (tf - zf) * gen.phi_prime(zf))
    if -1e-9 < val < 0.0:
        # divergences are nonnegative; absorb rounding noise near t == z
        return 0.0
    return val


def check_generator(gen: BregmanGenerator, n_points: int = 100) -> None:
    """Spot-check on an interior grid that phi_prime matches a central finite
    difference of phi, and phi_third one of phi_second (relative error 1e-6
    each), and that phi_second >= 0.  Raises NumericError on violation."""
    lo, hi = gen.valid_domain
    glo = lo if np.isfinite(lo) else -10.0
    ghi = hi if np.isfinite(hi) else 10.0
    margin = 1e-3 * (ghi - glo)
    grid = np.linspace(glo + margin, ghi - margin, n_points)
    step = np.minimum(1e-6 * np.maximum(1.0, np.abs(grid)), margin / 4.0)
    # phi_second bends faster than phi near a finite domain edge, so its
    # difference takes a tenth of the step to stay as accurate
    for fn, deriv, name, h in (
        (gen.phi, gen.phi_prime, "phi_prime", step),
        (gen.phi_second, gen.phi_third, "phi_third", step / 10.0),
    ):
        fd = (fn(grid + h) - fn(grid - h)) / (2.0 * h)
        analytic = deriv(grid)
        scale = np.maximum(np.abs(analytic), 1.0)
        rel = np.max(np.abs(fd - analytic) / scale)
        if not rel < 1e-6:
            raise NumericError(
                f"generator '{gen.name}': {name} deviates from finite difference "
                f"(max relative error {rel:.3e})"
            )
    if np.any(gen.phi_second(grid) < 0.0):
        raise NumericError(f"generator '{gen.name}': phi_second is negative on the grid")


@dataclass(frozen=True)
class RiskConfig:
    """Weights (w1, w2) for the winner/loser risk terms plus the
    variance-interpolation offset lam."""

    w1: float
    w2: float
    lam: float = 0.0

    def __post_init__(self):
        for nm in ("w1", "w2", "lam"):
            v = getattr(self, nm)
            if not np.isfinite(v):
                raise ParameterError(f"{nm} must be finite, got {v!r}")
