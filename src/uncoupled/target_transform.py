"""Target-transform ("tt") estimator.

Instead of regressing on the raw target, push scores through the target CDF.
The transformed target F_Y(Y) is uniform on [0, 1], and for a target uniform
on [a, b] the ra weights (w1, w2) = (b/2, a/2) are exact (Err = 0).  So the
tt risk is the ra risk with RiskConfig(w1=1/2, w2=0, lam) on a linked score
g(h(x)), and `risk_approx.linked_risk` gives its value, gradient and
Hessian.  This module adds the links, the fit and the read-out, which maps
predictions back through the quantile function.

Two links are supported:

* exact: g = F_Y itself (g' = pdf, g'' = pdf_prime), so the fitted
  F_Y(h(x)) approximates F_Y(y(x)) directly;
* logistic surrogate (default): g is a clamped sigmoid, which needs no
  distribution and is read out by tt_predict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import (
    BregmanGenerator,
    Dataset,
    LinearModel,
    PairwiseSet,
    ParameterError,
    RiskConfig,
    predict,
)
from .distributions import TargetDistribution
from .optimize import minimize_gd
from .risk_approx import fit_columns, linked_risk

_SIGMOID_CLAMP = 1e-9


@dataclass(frozen=True)
class TtConfig:
    lam: float = 0.5
    use_logistic_surrogate: bool = True

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise ParameterError("lam must be finite")


def _clamped_sigmoid(h: np.ndarray) -> np.ndarray:
    return np.clip(expit(h), _SIGMOID_CLAMP, 1.0 - _SIGMOID_CLAMP)


def sigmoid_link(h: np.ndarray):
    """Clamped sigmoid s with s' = s(1 - s) and s'' = s'(1 - 2s); the
    derivatives treat the clamp as inactive."""
    s = _clamped_sigmoid(h)
    s1 = s * (1.0 - s)
    return s, s1, s1 * (1.0 - 2.0 * s)


def cdf_link(dist: TargetDistribution):
    """The exact link: the marginal's (cdf, pdf, pdf_prime) at the scores."""

    def link(h: np.ndarray):
        return (
            np.asarray(dist.cdf(h), dtype=float),
            np.asarray(dist.pdf(h), dtype=float),
            np.asarray(dist.pdf_prime(h), dtype=float),
        )

    return link


_MULTISTART_SCALE = 0.1


def tt_fit(
    gen: BregmanGenerator,
    unlabeled: Dataset,
    pairs: PairwiseSet,
    cfg: TtConfig | None = None,
    dist: TargetDistribution | None = None,
    *,
    include_intercept: bool = False,
) -> LinearModel:
    """Fit of the transformed-target risk at cfg.lam by damped Newton steps
    on the closures of linked_risk: the clamped-sigmoid link in surrogate
    mode, dist's (cdf, pdf, pdf_prime) link in exact mode.

    Starts from zero.  Only when the zero start does not converge are +0.1
    and -0.1 per coordinate tried too, keeping the lowest final risk (ties
    go to the earlier start).  The default surrogate mode needs no
    distribution; exact mode needs dist.  Needs n_U >= the parameter count.
    """
    cfg = cfg or TtConfig()
    if cfg.use_logistic_surrogate:
        link = sigmoid_link
    elif dist is None:
        raise ParameterError("exact mode needs a target distribution")
    else:
        link = cdf_link(dist)
    ncols = fit_columns(unlabeled, pairs, include_intercept)
    fun, grad, hess = linked_risk(
        gen, link, RiskConfig(w1=0.5, w2=0.0, lam=cfg.lam), unlabeled, pairs, include_intercept
    )
    result = minimize_gd(fun, grad, np.zeros(ncols), hess=hess)
    if not result.converged:
        for scale in (_MULTISTART_SCALE, -_MULTISTART_SCALE):
            retry = minimize_gd(fun, grad, np.full(ncols, scale), hess=hess)
            if retry.value < result.value:
                result = retry
    return LinearModel(theta=result.theta, includes_intercept=include_intercept)


def tt_predict(model: LinearModel, dist: TargetDistribution, x) -> float | np.ndarray:
    """Map scores back to the target scale: F_Y^{-1}(sigmoid(h(x))).

    This reads out logistic-surrogate fits only.  A model fitted with
    TtConfig(use_logistic_surrogate=False) fits F_Y(h(x)) to F_Y(y), so h(x)
    itself estimates y: read it out with `predict`.
    """
    h = predict(model, x)
    scalar = np.isscalar(h)
    s = _clamped_sigmoid(np.atleast_1d(np.asarray(h, dtype=float)))
    out = np.asarray(dist.inv_cdf(s), dtype=float)
    return float(out[0]) if scalar else out
