"""Risk-approximation ("ra") estimator.

The regression risk under a Bregman loss decomposes into a term over the
feature marginal plus a cross term E[Y phi'(h(X))].  The cross term is
approximated from pairwise comparison data by weighting the winner and loser
score means with tuned scalars (w1, w2); a further offset lam shifts
variance between the unlabeled and pairwise parts without changing the
expectation.  The empirical risk drops the model-free constant E[phi(Y)].

Weight tuning minimizes

    Err(w1, w2) = E_Y | Y - 2 w1 F_Y(Y) - 2 w2 (1 - F_Y(Y)) |

which is zero for uniform targets on [a, b] exactly at (b/2, a/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BregmanGenerator,
    Dataset,
    DegenerateVarianceError,
    DomainError,
    LinearModel,
    NumericError,
    PairwiseSet,
    ParameterError,
    RiskConfig,
    ShapeError,
    augment_intercept,
    predict,
)
from .distributions import TargetDistribution
from .optimize import SolverOptions, minimize_gd

_RIDGE = 1e-8


@dataclass(frozen=True)
class RaTuning:
    """Controls for the Err grid objective and the nested weight search."""

    n_split: int = 1000
    quantile_lo: float = 0.01
    quantile_hi: float = 0.99
    weight_search_bound: float | None = None
    grid_rounds: int = 3
    grid_points_per_axis: int = 51

    def __post_init__(self):
        if self.n_split < 1:
            raise ParameterError("n_split must be >= 1")
        if not (0.0 < self.quantile_lo < self.quantile_hi < 1.0):
            raise ParameterError("need 0 < quantile_lo < quantile_hi < 1")
        if self.weight_search_bound is not None and not (self.weight_search_bound > 0.0):
            raise ParameterError("weight_search_bound must be positive")
        if self.grid_rounds < 1:
            raise ParameterError("grid_rounds must be >= 1")
        if self.grid_points_per_axis < 2:
            raise ParameterError("grid_points_per_axis must be >= 2")


@dataclass(frozen=True)
class RaVariances:
    """Sample variances of phi'(h) over winner and loser points."""

    sigma2_plus: float
    sigma2_minus: float

    def __post_init__(self):
        for nm in ("sigma2_plus", "sigma2_minus"):
            v = getattr(self, nm)
            if not (np.isfinite(v) and v >= 0.0):
                raise ParameterError(f"{nm} must be finite and >= 0, got {v!r}")


# ---------------------------------------------------------------------------
# Err objective and weight tuning


def _err_grid(dist: TargetDistribution, tuning: RaTuning):
    y_lo = float(dist.inv_cdf(tuning.quantile_lo))
    y_hi = float(dist.inv_cdf(tuning.quantile_hi))
    if not y_hi > y_lo:
        raise ParameterError(
            f"degenerate quantile range [{y_lo:g}, {y_hi:g}] for the Err grid"
        )
    y = np.linspace(y_lo, y_hi, tuning.n_split + 1)
    dy = (y_hi - y_lo) / tuning.n_split
    weight = np.asarray(dist.pdf(y), dtype=float) * dy
    F = np.asarray(dist.cdf(y), dtype=float)
    return y, F, weight


def _err_values(w1: np.ndarray, w2: np.ndarray, y, F, weight) -> np.ndarray:
    out = np.empty(w1.size)
    block = max(1, 4_000_000 // y.size)
    for lo in range(0, w1.size, block):
        hi = min(lo + block, w1.size)
        resid = (
            y[None, :]
            - 2.0 * w1[lo:hi, None] * F[None, :]
            - 2.0 * w2[lo:hi, None] * (1.0 - F[None, :])
        )
        out[lo:hi] = np.abs(resid) @ weight
    return out


def err_objective(
    dist: TargetDistribution, w1: float, w2: float, tuning: RaTuning | None = None
) -> float:
    """Grid approximation of Err between the 1% and 99% quantiles."""
    tuning = tuning or RaTuning()
    y, F, weight = _err_grid(dist, tuning)
    return float(_err_values(np.array([float(w1)]), np.array([float(w2)]), y, F, weight)[0])


def _sorted_targets(targets) -> np.ndarray:
    v = np.sort(np.asarray(targets, dtype=float).ravel())
    if v.size == 0:
        raise ParameterError("empty targets")
    if v.size < 2:
        raise ParameterError("need >= 2 target values")
    if not np.all(np.isfinite(v)):
        raise ParameterError("targets contain non-finite entries")
    return v


def err_objective_empirical(targets, w1: float, w2: float) -> float:
    """Sample version of Err with the empirical CDF standing in for F_Y."""
    v = _sorted_targets(targets)
    F = np.searchsorted(v, v, side="right") / v.size
    resid = v - 2.0 * float(w1) * F - 2.0 * float(w2) * (1.0 - F)
    return float(np.mean(np.abs(resid)))


def _nested_grid_search(objective, bound: float, tuning: RaTuning) -> tuple[float, float]:
    """Deterministic nested grid search on [-bound, bound]^2, zooming the box
    by 5x around the incumbent after each round."""
    k = tuning.grid_points_per_axis
    c1 = c2 = 0.0
    half = float(bound)
    best = (0.0, 0.0)
    for _round in range(tuning.grid_rounds):
        axis1 = np.linspace(c1 - half, c1 + half, k)
        axis2 = np.linspace(c2 - half, c2 + half, k)
        G1, G2 = np.meshgrid(axis1, axis2, indexing="ij")
        vals = objective(G1.ravel(), G2.ravel())
        idx = int(np.argmin(vals))
        best = (float(G1.ravel()[idx]), float(G2.ravel()[idx]))
        c1, c2 = best
        half /= 5.0
    return best


def _default_bound(y_lo: float, y_hi: float, tuning: RaTuning) -> float:
    if tuning.weight_search_bound is not None:
        return tuning.weight_search_bound
    return max(abs(y_lo), abs(y_hi), 1e-6)


def tune_weights(dist: TargetDistribution, tuning: RaTuning | None = None) -> RiskConfig:
    """Minimize the Err grid objective over (w1, w2) and set
    lam = (w1 + w2) / 2.  Deterministic."""
    tuning = tuning or RaTuning()
    y, F, weight = _err_grid(dist, tuning)
    bound = _default_bound(float(y[0]), float(y[-1]), tuning)
    w1, w2 = _nested_grid_search(
        lambda a, b: _err_values(a, b, y, F, weight), bound, tuning
    )
    return RiskConfig(w1=w1, w2=w2, lam=(w1 + w2) / 2.0)


def tune_weights_empirical(targets, tuning: RaTuning | None = None) -> RiskConfig:
    """Like tune_weights but minimizing the sample Err objective."""
    tuning = tuning or RaTuning()
    v = _sorted_targets(targets)
    F = np.searchsorted(v, v, side="right") / v.size
    y_lo, y_hi = np.quantile(v, [tuning.quantile_lo, tuning.quantile_hi])
    bound = _default_bound(float(y_lo), float(y_hi), tuning)

    def objective(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty(a.size)
        block = max(1, 4_000_000 // v.size)
        for lo in range(0, a.size, block):
            hi = min(lo + block, a.size)
            resid = (
                v[None, :]
                - 2.0 * a[lo:hi, None] * F[None, :]
                - 2.0 * b[lo:hi, None] * (1.0 - F[None, :])
            )
            out[lo:hi] = np.mean(np.abs(resid), axis=1)
        return out

    w1, w2 = _nested_grid_search(objective, bound, tuning)
    return RiskConfig(w1=w1, w2=w2, lam=(w1 + w2) / 2.0)


# ---------------------------------------------------------------------------
# variance-optimal lam


def optimal_lambda(w1: float, w2: float, variances: RaVariances) -> float:
    """lam minimizing the pairwise-term variance:
    2 (w1 s+ + w2 s-) / (s+ + s-) over the two score variances."""
    s = variances.sigma2_plus + variances.sigma2_minus
    if s <= 0.0:
        raise DegenerateVarianceError("both score variances are zero")
    return 2.0 * (w1 * variances.sigma2_plus + w2 * variances.sigma2_minus) / s


def estimate_variances(
    model: LinearModel, gen: BregmanGenerator, pairs: PairwiseSet
) -> RaVariances:
    """Sample variances (ddof=1) of phi'(h) on winners and losers."""
    if pairs.n_pairs < 2:
        raise ParameterError("need >= 2 comparisons to estimate variances")
    hp = predict(model, pairs.winners)
    hm = predict(model, pairs.losers)
    gen.require_domain(hp, "winner score")
    gen.require_domain(hm, "loser score")
    return RaVariances(
        sigma2_plus=float(np.var(gen.phi_prime(hp), ddof=1)),
        sigma2_minus=float(np.var(gen.phi_prime(hm), ddof=1)),
    )


# ---------------------------------------------------------------------------
# empirical risk, gradient, fitting


def ra_empirical_risk(
    model: LinearModel,
    gen: BregmanGenerator,
    unlabeled: Dataset,
    pairs: PairwiseSet,
    cfg: RiskConfig,
) -> float:
    """Pairwise-data estimate of the Bregman regression risk, excluding the
    model-free constant E[phi(Y)]:

      - mean_U[ phi(h) - (h - lam) phi'(h) ]
      - mean_R[ (w1 - lam/2) phi'(h(x+)) + (w2 - lam/2) phi'(h(x-)) ]
    """
    hu = predict(model, unlabeled.features)
    gen.require_domain(hu, "unlabeled score")
    term_u = float(np.mean(gen.phi(hu) - (hu - cfg.lam) * gen.phi_prime(hu)))
    term_r = 0.0
    if pairs.n_pairs > 0:
        hp = predict(model, pairs.winners)
        hm = predict(model, pairs.losers)
        gen.require_domain(hp, "winner score")
        gen.require_domain(hm, "loser score")
        term_r = float(
            np.mean(
                (cfg.w1 - cfg.lam / 2.0) * gen.phi_prime(hp)
                + (cfg.w2 - cfg.lam / 2.0) * gen.phi_prime(hm)
            )
        )
    return -term_u - term_r


def ra_risk_gradient(
    model: LinearModel,
    gen: BregmanGenerator,
    unlabeled: Dataset,
    pairs: PairwiseSet,
    cfg: RiskConfig,
) -> np.ndarray:
    """Analytic gradient of ra_empirical_risk in theta (including the
    intercept coordinate when the model has one)."""
    Xa = augment_intercept(unlabeled.features, model.includes_intercept)
    hu = predict(model, unlabeled.features)
    gen.require_domain(hu, "unlabeled score")
    gu = Xa.T @ ((hu - cfg.lam) * gen.phi_second(hu)) / unlabeled.n
    if pairs.n_pairs == 0:
        return gu
    Wa = augment_intercept(pairs.winners, model.includes_intercept)
    La = augment_intercept(pairs.losers, model.includes_intercept)
    hp = predict(model, pairs.winners)
    hm = predict(model, pairs.losers)
    gen.require_domain(hp, "winner score")
    gen.require_domain(hm, "loser score")
    gr = (
        Wa.T @ ((cfg.w1 - cfg.lam / 2.0) * gen.phi_second(hp))
        + La.T @ ((cfg.w2 - cfg.lam / 2.0) * gen.phi_second(hm))
    ) / pairs.n_pairs
    return gu - gr


_MAX_COND = 1e12


def solve_normal_equations(G: np.ndarray, rhs: np.ndarray, ridge: float = _RIDGE) -> np.ndarray:
    """Solve G theta = rhs, retrying with a ridge of ridge * I when G is
    singular or ill-conditioned (collinear columns make the plain solve
    "succeed" with a huge null-space component whose cancellation error
    wrecks predictions); raises NumericError when even that fails."""
    try:
        if np.linalg.cond(G) <= _MAX_COND:
            theta = np.linalg.solve(G, rhs)
            if np.all(np.isfinite(theta)):
                return theta
    except np.linalg.LinAlgError:
        pass
    try:
        theta = np.linalg.solve(G + ridge * np.eye(G.shape[0]), rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError("normal equations unsolvable even with ridge") from exc
    if not np.all(np.isfinite(theta)):
        raise NumericError("normal equations produced non-finite coefficients")
    return theta


def ra_fit(
    gen: BregmanGenerator,
    unlabeled: Dataset,
    pairs: PairwiseSet,
    cfg: RiskConfig,
    *,
    include_intercept: bool = False,
    method: str = "auto",
    solver: SolverOptions | None = None,
) -> LinearModel:
    """Minimize ra_empirical_risk over linear models.

    The squared generator admits a closed form: with G the unlabeled Gram
    matrix (1/n_U) sum x x^T,

        G theta = lam * mean_U(x) + (w1 - lam/2) mean_+(x) + (w2 - lam/2) mean_-(x),

    solved directly (ridge 1e-8 on singular G).  Any other generator runs
    full-batch gradient descent with backtracking from theta = 0.
    """
    if method not in ("auto", "closed_form", "gradient"):
        raise ParameterError(f"unknown method {method!r}")
    if pairs.n_pairs > 0 and pairs.dim != unlabeled.dim:
        raise ShapeError(
            f"pairwise dim {pairs.dim} does not match unlabeled dim {unlabeled.dim}"
        )
    use_closed = method == "closed_form" or (method == "auto" and gen.name == "squared")
    ncols = unlabeled.dim + (1 if include_intercept else 0)
    if use_closed:
        if gen.name != "squared":
            raise ParameterError("closed form is only available for the squared generator")
        Xa = augment_intercept(unlabeled.features, include_intercept)
        if unlabeled.n < ncols:
            raise ParameterError(
                f"need n_U >= {ncols} rows for the normal equations, got {unlabeled.n}"
            )
        G = Xa.T @ Xa / unlabeled.n
        rhs = cfg.lam * Xa.mean(axis=0)
        if pairs.n_pairs > 0:
            Wa = augment_intercept(pairs.winners, include_intercept)
            La = augment_intercept(pairs.losers, include_intercept)
            rhs = rhs + (cfg.w1 - cfg.lam / 2.0) * Wa.mean(axis=0)
            rhs = rhs + (cfg.w2 - cfg.lam / 2.0) * La.mean(axis=0)
        theta = solve_normal_equations(G, rhs)
        return LinearModel(theta=theta, includes_intercept=include_intercept)

    unl = Dataset(features=augment_intercept(unlabeled.features, include_intercept))
    prs = (
        PairwiseSet(
            winners=augment_intercept(pairs.winners, include_intercept),
            losers=augment_intercept(pairs.losers, include_intercept),
        )
        if pairs.n_pairs > 0
        else pairs
    )

    def fun(th: np.ndarray) -> float:
        try:
            return ra_empirical_risk(LinearModel(th), gen, unl, prs, cfg)
        except DomainError:
            return np.inf

    def grad(th: np.ndarray) -> np.ndarray:
        return ra_risk_gradient(LinearModel(th), gen, unl, prs, cfg)

    opts = solver or SolverOptions()
    x0 = opts.init if opts.init is not None else np.zeros(ncols)
    result = minimize_gd(fun, grad, x0, opts)
    return LinearModel(theta=result.theta, includes_intercept=include_intercept)
