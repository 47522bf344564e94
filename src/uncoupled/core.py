"""Shared domain types: datasets, pairwise comparison sets, linear models
and the risk weights.

Everything downstream treats these as immutable value objects; the numpy
arrays they hold are made read-only at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# errors


class UncoupledError(Exception):
    """Base class for all library-specific errors."""


class DomainError(UncoupledError, ValueError):
    """A value lies outside the valid domain of a CDF or a risk."""


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
# risk configuration


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
