"""Risk-approximation ("ra") estimator.

The squared-loss regression risk decomposes into a term over the feature
marginal plus a cross term E[Y h(X)].  The cross term is approximated from
pairwise comparison data by weighting the winner and loser score means with
tuned scalars (w1, w2); a further offset lam shifts variance between the
unlabeled and pairwise parts without changing the expectation.  The tuned
weights fix lam = w1 + w2, the variance-optimal
2 (w1 s+ + w2 s-) / (s+ + s-) of Theorem 1 when the winner and loser score
variances s+ and s- are equal.  Then the pair weights are a = -b =
(w1 - w2) / 2, so the pairs enter only through winner-minus-loser
differences, and a shift c of the target moves only the unlabeled term's
lam * mean_U(x), which a constant-1 feature column absorbs exactly.  The
empirical risk drops the model-free constant E[Y^2].

The paper derives this rewrite for any Bregman divergence ("Uncoupled
Regression from Pairwise Comparison Data", arXiv:1905.13659).  This package
implements the squared case only: the risk is E[Y^2] + E[h^2] - 2 E[Y h],
and the pairs estimate the cross term through their winner and loser means
of phi'(h) = 2h.

The risk is written once, with its gradient and Hessian, for a score h
pushed through a link g (`linked_risk`), on one contiguous design that holds
the unlabeled, winner and loser rows as weighted columns: each theta costs
one product, one link pass and one finiteness test, and the Hessian is summed
over cache-sized column blocks.  ra is the identity link, and its fit is a
closed form; the target-transform estimator is the same risk at (w1, w2) =
(1/2, 0) on the clamped sigmoid or the target CDF, fitted by damped Newton
steps on these closures.

Weight tuning minimizes, with c = 2 w2, s = 2 (w1 - w2) and u = F_Y(y),

    Err(w1, w2) = E_Y | Y - 2 w1 F_Y(Y) - 2 w2 (1 - F_Y(Y)) |
                = int_0^1 | Q(u) - c - s u | du     (Q the quantile function),

zero for uniform targets on [a, b] exactly at (b/2, a/2).  On a grid of
quantiles it is a least-absolute-deviations fit of Q(u) on (1, u), i.e.
median regression (Koenker & Bassett 1978, "Regression quantiles").  Its
optimum is a line through two of the (Q(u), u) nodes, reached exactly by
Wesolowsky's (1981) vertex descent: each step is one weighted median of the
slopes through a pivot node, and a handful of steps suffice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
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

# ra_fit is a closed form and calls no solver.  The name stays bound here
# because perfbench's tracer wraps risk_approx.minimize_gd and its tests
# delete that attribute.
from .optimize import minimize_gd  # noqa: F401


@dataclass(frozen=True)
class RaVariances:
    """Sample variances of phi'(h) = 2h over winner and loser points."""

    sigma2_plus: float
    sigma2_minus: float

    def __post_init__(self):
        for nm in ("sigma2_plus", "sigma2_minus"):
            v = getattr(self, nm)
            if not (np.isfinite(v) and v >= 0.0):
                raise ParameterError(f"{nm} must be finite and >= 0, got {v!r}")


# ---------------------------------------------------------------------------
# Err objective and weight tuning

# The Err grid: the midpoint rule on _ERR_NODES equal cells between the
# _ERR_QUANTILES: nodes Q(u) at the cell midpoints u, with F = u and weight du.
_ERR_NODES = 1001
_ERR_QUANTILES = (0.01, 0.99)


def _err_grid(dist: TargetDistribution):
    lo, hi = _ERR_QUANTILES
    u = np.linspace(lo, hi, 2 * _ERR_NODES + 1)[1::2]  # the cell midpoints
    y = np.asarray(dist.inv_cdf(u), dtype=float)
    if not np.all(np.isfinite(y)):
        raise ParameterError("inverse cdf gave non-finite quantiles on the Err grid")
    if not y[-1] > y[0]:
        raise ParameterError(
            f"degenerate quantile range [{y[0]:g}, {y[-1]:g}] for the Err grid"
        )
    return y, u, np.full(_ERR_NODES, (hi - lo) / _ERR_NODES)


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
    """Err on the midpoint grid of quantile levels u in [0.01, 0.99]."""
    return _err(*_err_grid(dist), w1, w2)


def err_objective_empirical(targets, w1: float, w2: float) -> float:
    """Sample version of Err with the empirical CDF standing in for F_Y."""
    return _err(*_empirical_err_grid(targets), w1, w2)


# A row lies on the current line when its residual is within this many
# ulps of the line's scale; the vertex rows themselves are off by rounding.
_ON_LINE = 64.0 * np.finfo(float).eps


def _median_row(r: np.ndarray, weight: np.ndarray) -> int:
    """Index of the smallest r (ties kept in index order) whose cumulative
    weight reaches half the total: a weighted median of r."""
    order = np.argsort(r, kind="stable")
    cum = np.cumsum(weight[order])
    return int(order[np.searchsorted(cum, 0.5 * cum[-1])])


def _descent_row(r, F, weight, tol: float, vertex, tried) -> int | None:
    """A row whose edge out of a vertex lowers sum weight * |r|, with r the
    residuals y - c - s F of the vertex's line, or None when no edge does,
    which makes the vertex optimal.

    Each row i on the line (|r_i| <= tol, or listed in vertex) gives the
    edges (dc, ds) = +-(-F_i, 1), which keep row i on the line.  Along them
    Err changes at the rate spread_i -+ (b - a F_i), where spread_i =
    sum weight_j |F_j - F_i| over the rows on the line, and a = sum weight
    sign(r), b = sum weight sign(r) F over the rows off it.  Err is linear
    between neighbouring edges, so it rises in every direction when it
    rises along every edge.  Rows sharing an F with a row in tried, whose
    edges were already followed, are skipped.
    """
    on = np.abs(r) <= tol
    on[vertex] = True
    signed = np.copysign(weight, r)
    signed[on] = 0.0
    a, b = signed.sum(), signed @ F
    rows = np.flatnonzero(on)
    rows = rows[np.argsort(F[rows], kind="stable")]
    Fz, wz = F[rows], weight[rows]
    cw, cm = np.cumsum(wz), np.cumsum(wz * Fz)
    spread = Fz * (2.0 * cw - cw[-1]) - (2.0 * cm - cm[-1])
    slack = np.abs(b - a * Fz) - spread
    slack[(Fz[:, None] == F[tried]).any(axis=1)] = -np.inf
    i = int(np.argmax(slack))
    return int(rows[i]) if slack[i] > 0.0 else None


def _lad_weights(y, F, weight) -> RiskConfig:
    """Exact minimizer of Err = sum weight * |y - c - s F|, returned as
    w1 = (c + s) / 2, w2 = c / 2 and lam = w1 + w2 = c + s / 2.

    Err is convex and piecewise linear in (c, s), so an optimum is a line
    through two rows (y_i, F_i): a vertex.  The descent (Wesolowsky 1981,
    "A new descent algorithm for the least absolute value regression
    problem") starts from the best flat line, c = the weighted median of y,
    through its median row k.  Each step keeps the line through a pivot row
    k and sets the slope to the weighted median of (y_i - y_k) / (F_i - F_k)
    with weights weight_i |F_i - F_k| over the rows with F_i != F_k: the
    best line through k, which meets a second row j.  The next pivot is the
    row on the new line whose edge descends most (_descent_row): j, unless
    three or more rows share the line.  The loop stops when no edge
    descends or a step does not strictly lower Err.  Err falls from vertex
    to vertex, and each vertex follows each of its edges at most once, so
    the loop ends, after a handful of weighted medians.  When every F is
    equal the result is s = 0 and c = the weighted median of y.
    """
    y_max, F_max = float(np.abs(y).max()), float(np.abs(F).max())
    k = _median_row(y, weight)
    c, s = float(y[k]), 0.0
    r = y - c
    best = float(np.abs(r) @ weight)
    vertex, tried = [k], []
    while k is not None:
        tried.append(k)
        dF = F - F[k]
        move = np.flatnonzero(dF)
        if move.size:
            slopes = (y[move] - y[k]) / dF[move]
            m = _median_row(slopes, weight[move] * np.abs(dF[move]))
            s_new = float(slopes[m])
            c_new = float(y[k] - s_new * F[k])
            r_new = y - s_new * F - c_new
            e = float(np.abs(r_new) @ weight)
            if e < best:
                best, c, s, r = e, c_new, s_new, r_new
                vertex, tried = [k, int(move[m])], [k]
        tol = _ON_LINE * (y_max + abs(c) + abs(s) * F_max)
        k = _descent_row(r, F, weight, tol, vertex, tried)
    w1, w2 = (c + s) / 2.0, c / 2.0
    return RiskConfig(w1=w1, w2=w2, lam=w1 + w2)


def tune_weights(dist: TargetDistribution) -> RiskConfig:
    """Exact minimizer of the Err grid objective, the LAD fit of Q(u) on (1, u)
    by _lad_weights; lam = w1 + w2.  Reads only dist.inv_cdf.  Deterministic."""
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


def estimate_variances(model: LinearModel, pairs: PairwiseSet) -> RaVariances:
    """Sample variances (ddof=1) of phi'(h) = 2h on winners and losers."""
    if pairs.n_pairs < 2:
        raise ParameterError("need >= 2 comparisons to estimate variances")
    return RaVariances(
        sigma2_plus=float(np.var(2.0 * predict(model, pairs.winners), ddof=1)),
        sigma2_minus=float(np.var(2.0 * predict(model, pairs.losers), ddof=1)),
    )


# ---------------------------------------------------------------------------
# the linked risk: value, gradient and Hessian for every fit


def identity_link(h):
    """g(h) = h with g' = 1 and g'' = 0: the ra risk on the raw score."""
    return h, np.ones_like(h), np.zeros_like(h)


# Column blocks of the Hessian sum: each block's p x _HESS_BLOCK weighted
# copy stays in cache, where one pass over 100 000 rows does not.
_HESS_BLOCK = 8192


def linked_risk(link, cfg: RiskConfig, unlabeled: Dataset, pairs: PairwiseSet):
    """Closures (fun, grad, hess) of theta for the pairwise-data squared risk
    of a linked score g = link(h), h = theta . x, excluding the model-free
    constant E[Y^2]:

      mean_U[ g^2 - 2 lam g ] - 2 mean_R[ a g(x+) + b g(x-) ]

    with a = w1 - lam/2 and b = w2 - lam/2.  link maps an array of scores
    h to (g, g', g''), three arrays shaped like h.  By the chain rule,

      grad = 2 mean_U[ (g - lam) g' x ] - 2 mean_R[ a g+' x+ + b g-' x- ]
      hess = 2 mean_U[ (g'^2 + (g - lam) g'') x x^T ]
             - 2 mean_R[ a g+'' x+ x+^T + b g-'' x- x-^T ]

    The unlabeled rows, winners and losers are written once as the columns
    of one contiguous d x (n_U + 2 n_R) design, each column with its weight
    1/n_U, -a/n_R or -b/n_R.  So each theta costs one product theta @
    design, one link call and one finiteness test, shared by all three
    closures; grad is one matrix-vector product, and hess is summed over
    column blocks of _HESS_BLOCK.  fun is +inf where a linked score is not
    finite, so a line search backs off there; grad and hess raise
    DomainError.  An intercept is a constant-1 feature column.
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
        """(g, g', g'', whether every g is finite) at theta, computed once
        per theta."""
        key = theta.tobytes()
        if key not in last:
            last.clear()
            g, d1, d2 = link(theta @ Mt)
            last[key] = (g, d1, d2, bool(np.isfinite(g.min()) and np.isfinite(g.max())))
        return last[key]

    def finite(theta):
        g, d1, d2, ok = linked(theta)
        if not ok:
            raise DomainError("linked score is not finite")
        return g, d1, d2

    def fun(theta) -> float:
        g, _, _, ok = linked(theta)
        if not ok:
            return np.inf
        gu = g[:n_u]
        risk = float(weight[:n_u] @ (gu * (gu - 2.0 * lam)))
        return risk + float(weight[n_u:] @ (2.0 * g[n_u:]))

    def grad(theta) -> np.ndarray:
        g, d1, _ = finite(theta)
        c = weight * 2.0
        c *= d1
        c[:n_u] *= g[:n_u] - lam
        return Mt @ c

    def hess(theta) -> np.ndarray:
        g, d1, d2 = finite(theta)
        c = 2.0 * d2
        cu = c[:n_u]
        cu *= g[:n_u] - lam
        cu += 2.0 * d1[:n_u] * d1[:n_u]
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
    model: LinearModel, unlabeled: Dataset, pairs: PairwiseSet, cfg: RiskConfig
) -> float:
    """Pairwise-data estimate of the squared regression risk, excluding the
    model-free constant E[Y^2]:

      mean_U[ h^2 - 2 lam h ] - 2 mean_R[ (w1 - lam/2) h(x+) + (w2 - lam/2) h(x-) ]

    that is, linked_risk on the identity link; +inf when a score is not
    finite.
    """
    fun, _, _ = linked_risk(identity_link, cfg, unlabeled, pairs)
    return fun(model.theta)


_MAX_COND = 1e12
_RIDGE = 1e-8


def solve_normal_equations(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve G theta = rhs on the Jacobi-equilibrated system: with
    r = 1/sqrt(diag G) (1 where it is 0), solve (r G r) t = r rhs and return
    r t, so the column scales behind G do not matter.  When r G r is
    singular or ill-conditioned (exactly collinear columns, such as a one-hot
    block plus a constant column, make the plain solve "succeed" with a huge
    null-space component), retry with a ridge of 1e-8 relative to its unit
    diagonal; raises NumericError when even that fails."""
    norms = np.sqrt(np.diag(G))
    r = 1.0 / np.where(norms > 0.0, norms, 1.0)
    G = r[:, None] * G * r
    rhs = r * rhs
    try:
        if np.linalg.cond(G) <= _MAX_COND:
            theta = np.linalg.solve(G, rhs)
            if np.all(np.isfinite(theta)):
                return r * theta
    except np.linalg.LinAlgError:
        pass
    try:
        theta = np.linalg.solve(G + _RIDGE * np.eye(G.shape[0]), rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError("normal equations unsolvable even with ridge") from exc
    if not np.all(np.isfinite(theta)):
        raise NumericError("normal equations produced non-finite coefficients")
    return r * theta


def ra_fit(unlabeled: Dataset, pairs: PairwiseSet, cfg: RiskConfig) -> LinearModel:
    """Minimize ra_empirical_risk over linear models in closed form: with G
    the unlabeled Gram matrix (1/n_U) sum x x^T,

        G theta = lam * mean_U(x) + (w1 - lam/2) mean_+(x) + (w2 - lam/2) mean_-(x),

    solved by solve_normal_equations (equilibrated, with a relative ridge
    on singular G).  Needs n_U >= the feature count.
    """
    fit_columns(unlabeled, pairs)
    X = unlabeled.features
    G = X.T @ X / unlabeled.n
    rhs = cfg.lam * X.mean(axis=0)
    if pairs.n_pairs > 0:
        rhs = rhs + (cfg.w1 - cfg.lam / 2.0) * pairs.winners.mean(axis=0)
        rhs = rhs + (cfg.w2 - cfg.lam / 2.0) * pairs.losers.mean(axis=0)
    return LinearModel(theta=solve_normal_equations(G, rhs))
