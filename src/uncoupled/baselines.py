"""Reference methods: supervised least squares and a rank-then-quantile
baseline built on a pairwise ranker.

The ranker scores points linearly and is trained on comparisons with a
squared hinge; predictions for a test point count how many unlabeled points
outrank it and read the matching quantile of the target distribution.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Dataset,
    EmptyDataError,
    LinearModel,
    ParameterError,
    PairwiseSet,
    augment_intercept,
    predict,
)
from .distributions import TargetDistribution
from .optimize import minimize_gd
from .risk_approx import solve_normal_equations

_RANK_REG = 1e-4


def lr_fit(data: Dataset, *, include_intercept: bool = False) -> LinearModel:
    """Ordinary least squares on a labeled dataset (normal equations with a
    tiny-ridge retry on singular Gram matrices)."""
    if data.targets is None:
        raise ParameterError("lr_fit needs a dataset with targets")
    X = augment_intercept(data.features, include_intercept)
    n = X.shape[0]
    G = X.T @ X / n
    rhs = X.T @ data.targets / n
    theta = solve_normal_equations(G, rhs)
    return LinearModel(theta=theta, includes_intercept=include_intercept)


def _hinge_risk(D: np.ndarray):
    """Closures (fun, grad, hess) of theta for the squared-hinge ranking
    loss on the comparison differences D = W - L:

      fun  = mean(max(0, 1 - D theta)^2) + reg ||theta||^2
      grad = -2 D^T viol / n + 2 reg theta
      hess = 2 D_act^T D_act / n + 2 reg I   (generalized Hessian)

    with D_act the rows whose margin is below 1.  D is stored transposed and
    contiguous, and the three closures share one margin pass per theta."""
    Dt = np.ascontiguousarray(D.T)
    n = Dt.shape[1]
    last = {}

    def viol(theta):
        key = theta.tobytes()
        if key not in last:
            last.clear()
            last[key] = np.maximum(0.0, 1.0 - theta @ Dt)
        return last[key]

    def fun(theta) -> float:
        v = viol(theta)
        return float(v @ v / n + _RANK_REG * theta @ theta)

    def grad(theta) -> np.ndarray:
        return -2.0 * (Dt @ viol(theta)) / n + 2.0 * _RANK_REG * theta

    def hess(theta) -> np.ndarray:
        active = Dt[:, viol(theta) > 0.0]
        return 2.0 * (active @ active.T) / n + 2.0 * _RANK_REG * np.eye(theta.size)

    return fun, grad, hess


def ranker_fit(pairs: PairwiseSet) -> LinearModel:
    """Squared-hinge ranking fit: mean over comparisons of
    max(0, 1 - (score(x+) - score(x-)))^2 plus reg * ||theta||^2 with the
    constant reg = 1e-4, minimized from zero by damped Newton steps on its
    generalized Hessian (Chapelle & Keerthi, "Efficient algorithms for
    ranking with SVMs", 2010)."""
    if pairs.n_pairs < 1:
        raise EmptyDataError("ranker_fit needs at least one comparison")
    fun, grad, hess = _hinge_risk(pairs.winners - pairs.losers)
    result = minimize_gd(fun, grad, np.zeros(pairs.dim), hess=hess)
    return LinearModel(theta=result.theta)


def rank_predict(
    ranker: LinearModel,
    unlabeled: Dataset,
    dist: TargetDistribution,
    x_test,
) -> float | np.ndarray:
    """Quantile read-off: rank the test score among the unlabeled scores and
    evaluate the target quantile function there.

    With n' = 1 + #{unlabeled points scoring strictly above the test point},
    the plug-in level is q = (n_U - n') / n_U, clamped to
    [1/(n_U + 1), n_U/(n_U + 1)] to stay inside the quantile domain.
    """
    base = np.sort(np.asarray(predict(ranker, unlabeled.features), dtype=float))
    n_u = base.size
    # count of base scores strictly greater than each test score
    n_above = n_u - np.searchsorted(base, predict(ranker, x_test), side="right")
    q = (n_u - (1 + n_above)) / n_u
    return dist.inv_cdf(np.clip(q, 1.0 / (n_u + 1), n_u / (n_u + 1.0)))
