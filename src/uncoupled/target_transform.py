"""Target-transform ("tt") estimator.

Instead of regressing on the raw target, push scores through a link g onto
the target CDF's scale.  The transformed target F_Y(Y) is uniform on
[0, 1], and for a target uniform on [a, b] the ra weights (w1, w2) =
(b/2, a/2) are exact (Err = 0).  So the tt risk is the ra risk with
RiskConfig(w1=1/2, w2=0, lam=1/2) on the linked score g(h(x)), where
lam = w1 + w2 is the rule the tuned ra weights follow too, and
`risk_approx.linked_risk` gives its value, gradient and Hessian, with one
link call per theta over all unlabeled and pair rows.  The fit learns
g(h(x)) ~ F_Y(y); the read-out is F_Y^{-1}(g(h(x))).

The link is the estimator's only setting, and one link drives both the fit
and the read-out:

* sigmoid_link (default): a clamped sigmoid, which needs no distribution
  to fit;
* cdf_link(dist): the exact link g = F_Y, with g' = pdf and g'' = pdf_prime.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, LinearModel, PairwiseSet, RiskConfig, predict
from .distributions import _QUANTILE_CLAMP, TargetDistribution
from .optimize import minimize_gd
from .risk_approx import fit_columns, linked_risk

_TT_RISK = RiskConfig(w1=0.5, w2=0.0, lam=0.5)


def sigmoid_link(h: np.ndarray):
    """Clamped sigmoid s = 1 / (1 + exp(-h)) with s' = s(1 - s) and
    s'' = s'(1 - 2s); the derivatives treat the clamp as inactive.  exp
    overflows to inf below h = -709, which gives s = 0 before the clamp.
    Each of s, s' and s'' is built in its own new buffer, so h is never
    written, and a 0-d h gives 0-d arrays."""
    s = np.negative(h, out=np.empty(np.shape(h)))
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    np.clip(s, _QUANTILE_CLAMP, 1.0 - _QUANTILE_CLAMP, out=s)
    s1 = np.subtract(1.0, s, out=np.empty_like(s))
    s1 *= s
    s2 = np.multiply(2.0, s, out=np.empty_like(s))
    np.subtract(1.0, s2, out=s2)
    s2 *= s1
    return s, s1, s2


def cdf_link(dist: TargetDistribution):
    """The exact link: the marginal's (cdf, pdf, pdf_prime) at the scores."""

    def link(h: np.ndarray):
        return (
            np.asarray(dist.cdf(h), dtype=float),
            np.asarray(dist.pdf(h), dtype=float),
            np.asarray(dist.pdf_prime(h), dtype=float),
        )

    return link


def tt_fit(unlabeled: Dataset, pairs: PairwiseSet, link=sigmoid_link) -> LinearModel:
    """Fit of the transformed-target risk on g(h(x)) for the link g: one
    damped Newton solve on the closures of linked_risk, from zero.  An
    unconverged solve is returned as it is.  Needs n_U >= the feature
    count.
    """
    ncols = fit_columns(unlabeled, pairs)
    fun, grad, hess = linked_risk(link, _TT_RISK, unlabeled, pairs)
    result = minimize_gd(fun, grad, np.zeros(ncols), hess=hess)
    return LinearModel(theta=result.theta)


def tt_predict(
    model: LinearModel, dist: TargetDistribution, x, link=sigmoid_link
) -> float | np.ndarray:
    """Map scores back to the target scale: F_Y^{-1}(g(h(x))) for the link
    g the model was fitted with.  g is clamped into [1e-9, 1 - 1e-9] first,
    so predictions stay inside the marginal's quantile range even where an
    exact fit's scores land far outside the target's."""
    g = link(predict(model, x))[0]
    return dist.inv_cdf(np.clip(g, _QUANTILE_CLAMP, 1.0 - _QUANTILE_CLAMP))
