"""Risk-approximation ("ra") estimator.

The regression risk under a Bregman loss decomposes into a term over the
feature marginal plus a cross term E[Y phi'(h(X))].  The cross term is
approximated from pairwise comparison data by weighting the winner and loser
score means with tuned scalars (w1, w2); a further offset lam shifts
variance between the unlabeled and pairwise parts without changing the
expectation.  The empirical risk drops the model-free constant E[phi(Y)].

The risk is written once, with its gradient and Hessian, for a score h
pushed through a link g (`linked_risk`), on one contiguous design that holds
the unlabeled, winner and loser rows as weighted columns: each theta costs
one product, one link pass and one domain check, and the Hessian is summed
over cache-sized column blocks.  ra is the identity link; the
target-transform estimator is the same risk at (w1, w2) = (1/2, 0) on the
clamped sigmoid or the target CDF.  Every iterative fit takes damped Newton
steps on these closures; the squared generator's ra fit is a closed form.

Weight tuning minimizes

    Err(w1, w2) = E_Y | Y - 2 w1 F_Y(Y) - 2 w2 (1 - F_Y(Y)) |

which is zero for uniform targets on [a, b] exactly at (b/2, a/2).  With
c = 2 w2 and s = 2 (w1 - w2), Err is the weighted absolute deviation of y
from c + s F_Y(y): a least-absolute-deviations fit, i.e. median regression
(Koenker & Bassett 1978, "Regression quantiles"), which is solved exactly.
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
    predict,
)
from .distributions import TargetDistribution
from .optimize import minimize_gd


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

# The Err quadrature grid: _ERR_NODES equally spaced nodes between the
# _ERR_QUANTILES of the target distribution, each weighted by pdf * dy.  The
# weights are the exact weighted-LAD optimum on that grid.
_ERR_NODES = 1001
_ERR_QUANTILES = (0.01, 0.99)


def _err_grid(dist: TargetDistribution):
    y_lo, y_hi = (float(dist.inv_cdf(q)) for q in _ERR_QUANTILES)
    if not y_hi > y_lo:
        raise ParameterError(
            f"degenerate quantile range [{y_lo:g}, {y_hi:g}] for the Err grid"
        )
    y = np.linspace(y_lo, y_hi, _ERR_NODES)
    dy = (y_hi - y_lo) / (_ERR_NODES - 1)
    weight = np.asarray(dist.pdf(y), dtype=float) * dy
    F = np.asarray(dist.cdf(y), dtype=float)
    return y, F, weight


def _empirical_err_grid(targets):
    """Sorted targets, their right-continuous empirical CDF, weights 1/n."""
    v = np.sort(np.asarray(targets, dtype=float).ravel())
    if v.size < 2:
        raise ParameterError(f"need >= 2 target values, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ParameterError("targets contain non-finite entries")
    F = np.searchsorted(v, v, side="right") / v.size
    return v, F, np.full(v.size, 1.0 / v.size)


def _err(y, F, weight, w1: float, w2: float) -> float:
    resid = y - 2.0 * float(w1) * F - 2.0 * float(w2) * (1.0 - F)
    return float(np.abs(resid) @ weight)


def err_objective(dist: TargetDistribution, w1: float, w2: float) -> float:
    """Grid approximation of Err between the 1% and 99% quantiles."""
    return _err(*_err_grid(dist), w1, w2)


def err_objective_empirical(targets, w1: float, w2: float) -> float:
    """Sample version of Err with the empirical CDF standing in for F_Y."""
    return _err(*_empirical_err_grid(targets), w1, w2)


# Golden-section search on the slope stops once its bracket is this narrow
# relative to max(1, |s|).  Err is Lipschitz in s with a constant of at most
# the total weight, so the search leaves less than that width of Err unused.
_SLOPE_RTOL = 1e-13
_GOLDEN = (5.0**0.5 - 1.0) / 2.0


def _weighted_median(r: np.ndarray, weight: np.ndarray) -> float:
    """Smallest r (ties kept in index order) whose cumulative weight reaches
    half the total."""
    order = np.argsort(r, kind="stable")
    cum = np.cumsum(weight[order])
    return float(r[order[np.searchsorted(cum, 0.5 * cum[-1])]])


def _lad_weights(y, F, weight) -> RiskConfig:
    """Exact minimizer of sum weight * |y - c - s F|, returned as
    w1 = (c + s) / 2, w2 = c / 2 and lam = (w1 + w2) / 2.

    For a fixed slope s the best intercept c is the weighted median of
    y - s F; the Err left over is convex and piecewise linear in s, and a
    golden-section search minimizes it inside a bracket that must hold the
    optimum.
    """
    evals = []

    def profile(s: float) -> float:
        r = y - s * F
        c = _weighted_median(r, weight)
        evals.append((float(np.abs(r - c) @ weight), s, c))
        return evals[-1][0]

    err0 = profile(0.0)
    spread = float(np.abs(F - _weighted_median(F, weight)) @ weight)
    # Err(s) >= |s| * spread - Err(0), so no |s| above hi beats s = 0; with
    # spread = 0 all the weight sits at one F and every slope is optimal
    hi = 2.0 * err0 / spread if spread > 0.0 else 0.0
    lo = -hi
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = profile(x1), profile(x2)
    while hi - lo > _SLOPE_RTOL * max(1.0, abs(lo), abs(hi)):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = profile(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = profile(x2)
    _, s, c = min(evals)
    w1, w2 = (c + s) / 2.0, c / 2.0
    return RiskConfig(w1=w1, w2=w2, lam=(w1 + w2) / 2.0)


def tune_weights(dist: TargetDistribution) -> RiskConfig:
    """Exact minimizer of the Err grid objective (nodes y, weights pdf * dy):
    the weighted LAD fit of y on (1, F_Y(y)) described in the module
    docstring, with lam = (w1 + w2) / 2.  Deterministic."""
    return _lad_weights(*_err_grid(dist))


def tune_weights_empirical(targets) -> RiskConfig:
    """Like tune_weights, on the sample Err: the same weighted LAD fit
    (Koenker & Bassett 1978) of the sorted targets on their right-continuous
    empirical CDF, each with weight 1/n."""
    return _lad_weights(*_empirical_err_grid(targets))


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
# the linked risk: value, gradient and Hessian for every fit


def identity_link(h):
    """g(h) = h with g' = 1 and g'' = 0: the ra risk on the raw score."""
    return h, 1.0, 0.0


# Column blocks of the Hessian sum: each block's p x _HESS_BLOCK weighted
# copy stays in cache, where one pass over 100 000 rows does not.
_HESS_BLOCK = 8192


def linked_risk(
    gen: BregmanGenerator,
    link,
    cfg: RiskConfig,
    unlabeled: Dataset,
    pairs: PairwiseSet,
):
    """Closures (fun, grad, hess) of theta for the pairwise-data Bregman risk
    of a linked score g = link(h), h = theta . x, excluding the model-free
    constant E[phi(Y)]:

      - mean_U[ phi(g) - (g - lam) phi'(g) ]
      - mean_R[ a phi'(g(x+)) + b phi'(g(x-)) ],  a = w1 - lam/2, b = w2 - lam/2

    link maps an array of scores to (g, g', g'').  By the chain rule, with
    e = phi'''(g) g'^2 + phi''(g) g'' the score derivative of phi''(g) g',

      grad = mean_U[ (g - lam) phi''(g) g' x ]
             - mean_R[ a phi''(g+) g+' x+ + b phi''(g-) g-' x- ]
      hess = mean_U[ (phi''(g) g'^2 + (g - lam) e) x x^T ]
             - mean_R[ a e+ x+ x+^T + b e- x- x-^T ]

    The unlabeled rows, winners and losers are written once as the columns
    of one contiguous d x (n_U + 2 n_R) design, each column with its weight
    1/n_U, -a/n_R or -b/n_R.  So each theta costs one product theta @
    design, one link call and one domain check, shared by all three
    closures; grad is one matrix-vector product, and hess is summed over
    column blocks of _HESS_BLOCK.  fun is +inf where a linked score leaves
    the generator's open domain, so a line search backs off there; grad and
    hess raise DomainError.  An intercept is a constant-1 feature column.
    """
    n_u, n_r, d = unlabeled.n, pairs.n_pairs, unlabeled.dim
    lam = cfg.lam
    a = cfg.w1 - lam / 2.0
    b = cfg.w2 - lam / 2.0
    Mt = np.empty((d, n_u + 2 * n_r))
    Mt[:, :n_u] = unlabeled.features.T
    if n_r:
        Mt[:, n_u : n_u + n_r] = pairs.winners.T
        Mt[:, n_u + n_r :] = pairs.losers.T
    weight = np.repeat([1.0 / n_u, -a / (n_r or 1), -b / (n_r or 1)], [n_u, n_r, n_r])
    last = {}

    def linked(theta):
        key = theta.tobytes()
        if key not in last:
            last.clear()
            h = theta @ Mt
            g, d1, d2 = (np.broadcast_to(v, h.shape) for v in link(h))
            last[key] = (g, d1, d2), gen.contains(g)
        return last[key]

    def inside(theta):
        parts, ok = linked(theta)
        if not ok:
            lo, hi = gen.valid_domain
            raise DomainError(
                f"linked score outside the open domain ({lo}, {hi}) of generator "
                f"'{gen.name}'"
            )
        return parts

    def fun(theta) -> float:
        (g, _, _), ok = linked(theta)
        if not ok:
            return np.inf
        gu = g[:n_u]
        risk = -float(weight[:n_u] @ (gen.phi(gu) - (gu - lam) * gen.phi_prime(gu)))
        return risk + float(weight[n_u:] @ gen.phi_prime(g[n_u:]))

    def grad(theta) -> np.ndarray:
        g, d1, _ = inside(theta)
        c = weight * gen.phi_second(g) * d1
        c[:n_u] *= g[:n_u] - lam
        return Mt @ c

    def hess(theta) -> np.ndarray:
        g, d1, d2 = inside(theta)
        second = gen.phi_second(g)
        c = gen.phi_third(g) * d1 * d1 + second * d2
        c[:n_u] = second[:n_u] * d1[:n_u] * d1[:n_u] + (g[:n_u] - lam) * c[:n_u]
        c *= weight
        out = np.zeros((d, d))
        for s in range(0, Mt.shape[1], _HESS_BLOCK):
            block = Mt[:, s : s + _HESS_BLOCK]
            out += (block * c[s : s + _HESS_BLOCK]) @ block.T
        return out

    return fun, grad, hess


def fit_columns(unlabeled: Dataset, pairs: PairwiseSet) -> int:
    """Number of parameters of a linear fit on (unlabeled, pairs), one per
    feature.  Raises ShapeError when the pair and unlabeled dims differ, and
    ParameterError on fewer unlabeled rows than parameters, where the
    unlabeled term cannot pin every direction of theta."""
    if pairs.n_pairs > 0 and pairs.dim != unlabeled.dim:
        raise ShapeError(
            f"pairwise dim {pairs.dim} does not match unlabeled dim {unlabeled.dim}"
        )
    if unlabeled.n < unlabeled.dim:
        raise ParameterError(
            f"need n_U >= {unlabeled.dim} rows, one per parameter, got {unlabeled.n}"
        )
    return unlabeled.dim


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

    that is, linked_risk on the identity link; +inf when a score leaves the
    generator's domain.
    """
    fun, _, _ = linked_risk(gen, identity_link, cfg, unlabeled, pairs)
    return fun(model.theta)


_MAX_COND = 1e12
_RIDGE = 1e-8


def solve_normal_equations(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve G theta = rhs, retrying with a ridge of 1e-8 * I when G is
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
        theta = np.linalg.solve(G + _RIDGE * np.eye(G.shape[0]), rhs)
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
    init: np.ndarray | None = None,
) -> LinearModel:
    """Minimize ra_empirical_risk over linear models.

    The squared generator admits a closed form: with G the unlabeled Gram
    matrix (1/n_U) sum x x^T,

        G theta = lam * mean_U(x) + (w1 - lam/2) mean_+(x) + (w2 - lam/2) mean_-(x),

    solved directly (ridge 1e-8 on singular G).  Any other generator takes
    damped Newton steps on the identity-link closures of linked_risk from
    theta = init, or 0 when init is None; a generator whose domain excludes
    0, such as Bernoulli KL, needs an init inside it.  Both need n_U >= the
    feature count.
    """
    ncols = fit_columns(unlabeled, pairs)
    if gen.name == "squared":
        X = unlabeled.features
        G = X.T @ X / unlabeled.n
        rhs = cfg.lam * X.mean(axis=0)
        if pairs.n_pairs > 0:
            rhs = rhs + (cfg.w1 - cfg.lam / 2.0) * pairs.winners.mean(axis=0)
            rhs = rhs + (cfg.w2 - cfg.lam / 2.0) * pairs.losers.mean(axis=0)
        return LinearModel(theta=solve_normal_equations(G, rhs))

    fun, grad, hess = linked_risk(gen, identity_link, cfg, unlabeled, pairs)
    x0 = np.zeros(ncols) if init is None else np.asarray(init, dtype=float)
    if x0.shape != (ncols,):
        raise ShapeError(f"init must have shape ({ncols},), got {x0.shape}")
    result = minimize_gd(fun, grad, x0, hess=hess)
    return LinearModel(theta=result.theta)
