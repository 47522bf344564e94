"""Target-transform ("tt") estimator.

Instead of regressing on the raw target, push scores through the target CDF:
the transformed target F_Y(Y) of a winner/loser pair has known conditional
means (lam-weighted), which gives a pairwise-data risk for models of the
transformed target.  Predictions map back through the quantile function.

Two flavors of the score transform are supported:

* exact: the model output h(x) is passed through F_Y itself, so the fitted
  object approximates F_Y(y(x)) directly;
* logistic surrogate (default): h(x) is squashed by the sigmoid, which keeps
  the risk smooth in theta and works with lam = 1/2.
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
    augment_intercept,
    predict,
)
from .distributions import TargetDistribution
from .optimize import SolverOptions, minimize_gd

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


def tt_cdf_risk(
    model: LinearModel,
    gen: BregmanGenerator,
    dist: TargetDistribution,
    unlabeled: Dataset,
    pairs: PairwiseSet,
    cfg: TtConfig | None = None,
) -> float:
    """Pairwise-data risk for the CDF-transformed target, excluding its
    model-free constant:

      - mean_U[ (lam - F(h)) phi'(F(h)) + phi(F(h)) ]
      - mean_R[ ((1 - lam)/2) phi'(F(h(x+))) - (lam/2) phi'(F(h(x-))) ]

    with F = dist.cdf.
    """
    cfg = cfg or TtConfig()
    F = lambda h: np.asarray(dist.cdf(h), dtype=float)

    fu = F(predict(model, unlabeled.features))
    gen.require_domain(fu, "transformed unlabeled score")
    term_u = float(np.mean((cfg.lam - fu) * gen.phi_prime(fu) + gen.phi(fu)))
    term_r = 0.0
    if pairs.n_pairs > 0:
        fp = F(predict(model, pairs.winners))
        fm = F(predict(model, pairs.losers))
        gen.require_domain(fp, "transformed winner score")
        gen.require_domain(fm, "transformed loser score")
        term_r = float(
            np.mean(
                ((1.0 - cfg.lam) / 2.0) * gen.phi_prime(fp)
                - (cfg.lam / 2.0) * gen.phi_prime(fm)
            )
        )
    return -term_u - term_r


def tt_surrogate_risk(
    model: LinearModel,
    gen: BregmanGenerator,
    unlabeled: Dataset,
    pairs: PairwiseSet,
) -> float:
    """Logistic-surrogate risk at lam = 1/2: scores go through a clamped
    sigmoid instead of the target CDF."""
    su = _clamped_sigmoid(predict(model, unlabeled.features))
    term_u = float(np.mean((0.5 - su) * gen.phi_prime(su) + gen.phi(su)))
    term_r = 0.0
    if pairs.n_pairs > 0:
        sp = _clamped_sigmoid(predict(model, pairs.winners))
        sm = _clamped_sigmoid(predict(model, pairs.losers))
        term_r = float(np.sum(gen.phi_prime(sp) - gen.phi_prime(sm))) / (
            4.0 * pairs.n_pairs
        )
    return -term_u - term_r


def tt_surrogate_gradient(
    model: LinearModel,
    gen: BregmanGenerator,
    unlabeled: Dataset,
    pairs: PairwiseSet,
) -> np.ndarray:
    """Analytic gradient of tt_surrogate_risk in theta."""
    Xa = augment_intercept(unlabeled.features, model.includes_intercept)
    su = _clamped_sigmoid(predict(model, unlabeled.features))
    du = su * (1.0 - su)
    gu = Xa.T @ ((0.5 - su) * gen.phi_second(su) * du) / unlabeled.n
    grad = -gu
    if pairs.n_pairs > 0:
        Wa = augment_intercept(pairs.winners, model.includes_intercept)
        La = augment_intercept(pairs.losers, model.includes_intercept)
        sp = _clamped_sigmoid(predict(model, pairs.winners))
        sm = _clamped_sigmoid(predict(model, pairs.losers))
        gr = Wa.T @ (gen.phi_second(sp) * sp * (1.0 - sp)) - La.T @ (
            gen.phi_second(sm) * sm * (1.0 - sm)
        )
        grad = grad - gr / (4.0 * pairs.n_pairs)
    return grad


def tt_surrogate_hessian(
    model: LinearModel,
    gen: BregmanGenerator,
    unlabeled: Dataset,
    pairs: PairwiseSet,
) -> np.ndarray:
    """Analytic Hessian of tt_surrogate_risk in theta.

    With s the clamped sigmoid of the score, s1 = s(1 - s), s2 = s1(1 - 2s),
    b = phi_third(s) s1^2 + phi_second(s) s2 (the second score derivative
    of phi_prime(s)) and a = -phi_second(s) s1^2 + (1/2 - s) b:

      H = -X^T diag(a) X / n_U - (W^T diag(b(h+)) W - L^T diag(b(h-)) L) / (4 n_R)

    Like tt_surrogate_gradient, it treats the clamp as inactive.
    """

    def curvature(X):
        s = _clamped_sigmoid(predict(model, X))
        s1 = s * (1.0 - s)
        b = gen.phi_third(s) * s1 * s1 + gen.phi_second(s) * s1 * (1.0 - 2.0 * s)
        return s, s1, b

    Xa = augment_intercept(unlabeled.features, model.includes_intercept)
    su, s1u, bu = curvature(unlabeled.features)
    au = -gen.phi_second(su) * s1u * s1u + (0.5 - su) * bu
    hess = -(Xa.T * au) @ Xa / unlabeled.n
    if pairs.n_pairs > 0:
        Wa = augment_intercept(pairs.winners, model.includes_intercept)
        La = augment_intercept(pairs.losers, model.includes_intercept)
        _, _, bp = curvature(pairs.winners)
        _, _, bm = curvature(pairs.losers)
        hr = (Wa.T * bp) @ Wa - (La.T * bm) @ La
        hess = hess - hr / (4.0 * pairs.n_pairs)
    return hess


def _exact_cdf_gradient(
    model: LinearModel,
    gen: BregmanGenerator,
    dist: TargetDistribution,
    unlabeled: Dataset,
    pairs: PairwiseSet,
    cfg: TtConfig,
) -> np.ndarray:
    """Gradient of tt_cdf_risk in exact mode; the chain rule brings in the
    target density at the raw scores."""
    Xa = augment_intercept(unlabeled.features, model.includes_intercept)
    hu = predict(model, unlabeled.features)
    fu = np.asarray(dist.cdf(hu), dtype=float)
    du = np.asarray(dist.pdf(hu), dtype=float)
    gen.require_domain(fu, "transformed unlabeled score")
    gu = Xa.T @ ((cfg.lam - fu) * gen.phi_second(fu) * du) / unlabeled.n
    grad = -gu
    if pairs.n_pairs > 0:
        Wa = augment_intercept(pairs.winners, model.includes_intercept)
        La = augment_intercept(pairs.losers, model.includes_intercept)
        hp = predict(model, pairs.winners)
        hm = predict(model, pairs.losers)
        fp = np.asarray(dist.cdf(hp), dtype=float)
        fm = np.asarray(dist.cdf(hm), dtype=float)
        gen.require_domain(fp, "transformed winner score")
        gen.require_domain(fm, "transformed loser score")
        gr = ((1.0 - cfg.lam) / 2.0) * (
            Wa.T @ (gen.phi_second(fp) * np.asarray(dist.pdf(hp), dtype=float))
        ) - (cfg.lam / 2.0) * (
            La.T @ (gen.phi_second(fm) * np.asarray(dist.pdf(hm), dtype=float))
        )
        grad = grad - gr / pairs.n_pairs
    return grad


_MULTISTART_SCALE = 0.1


def tt_fit(
    gen: BregmanGenerator,
    unlabeled: Dataset,
    pairs: PairwiseSet,
    cfg: TtConfig | None = None,
    dist: TargetDistribution | None = None,
    *,
    include_intercept: bool = False,
    solver: SolverOptions | None = None,
) -> LinearModel:
    """Fit of the transformed-target risk: damped Newton steps on the
    logistic surrogate (analytic Hessian), gradient descent in exact mode.

    Starts from zero (or solver.init).  Only when the zero start does not
    converge are +0.1 and -0.1 per coordinate tried too, keeping the lowest
    final risk (ties go to the earlier start).  The default surrogate mode
    needs no distribution; exact mode needs dist with a usable pdf.
    """
    cfg = cfg or TtConfig()
    if not cfg.use_logistic_surrogate and dist is None:
        raise ParameterError("exact mode needs a target distribution")

    ncols = unlabeled.dim + (1 if include_intercept else 0)
    unl = Dataset(features=augment_intercept(unlabeled.features, include_intercept))
    prs = (
        PairwiseSet(
            winners=augment_intercept(pairs.winners, include_intercept),
            losers=augment_intercept(pairs.losers, include_intercept),
        )
        if pairs.n_pairs > 0
        else pairs
    )

    if cfg.use_logistic_surrogate:
        fun = lambda th: tt_surrogate_risk(LinearModel(th), gen, unl, prs)
        grad = lambda th: tt_surrogate_gradient(LinearModel(th), gen, unl, prs)
        hess = lambda th: tt_surrogate_hessian(LinearModel(th), gen, unl, prs)
    else:
        fun = lambda th: tt_cdf_risk(LinearModel(th), gen, dist, unl, prs, cfg)
        grad = lambda th: _exact_cdf_gradient(LinearModel(th), gen, dist, unl, prs, cfg)
        hess = None

    opts = solver or SolverOptions()
    x0 = np.zeros(ncols) if opts.init is None else np.asarray(opts.init, dtype=float)
    result = minimize_gd(fun, grad, x0, opts, hess=hess)
    if opts.init is None and not result.converged:
        for scale in (_MULTISTART_SCALE, -_MULTISTART_SCALE):
            retry = minimize_gd(fun, grad, np.full(ncols, scale), opts, hess=hess)
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
