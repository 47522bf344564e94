"""Target-distribution abstraction: analytic (uniform, Gaussian), kernel
density estimates with cross-validated bandwidth, and an interpolated
empirical CDF.

All four callables of a TargetDistribution are vectorized over numpy
arrays; cdf_link gives (cdf, pdf, pdf') in one call, the tt estimator's
exact link.  The type itself enforces the whole call contract, for the four
constructors here and for a marginal a caller builds, so that each
constructor's callables see finite queries and valid quantiles only: a
scalar query gives a float; at -inf and +inf the cdf, pdf and pdf' take
their limits (cdf 0 or 1, pdf and pdf' 0), and a nan query gives nan; and a
quantile outside (0, 1) raises DomainError while the rest are clamped into
[1e-9, 1 - 1e-9] before inversion, so that unbounded supports never
produce infinities.

The Gaussian marginal is built from scipy.special's ndtr and ndtri with the
arithmetic of scipy.stats.norm, and gives its floats bit for bit, without
importing scipy.stats.

The KDE is exact throughout.  Its bandwidth is the grid's best by the
exact 5-fold log-likelihood.  A screen first bounds every bandwidth's score
from above and below at O(n) cost: Taylor expansions of the Gaussian kernel
in cells one bandwidth wide, with Cramér's remainder, a count bound on the
points beyond the band, the nearest-neighbour kernel, and every rounding
error of the screen and of the exact score.  The exact score then runs
once, on the bandwidths whose upper bound reaches the best lower bound: one
or two of 20 on the benchmark's samples.  It scores each pair of folds
once.  Its exponents are floored at -700, so that np.exp stays on its fast
path; a point whose squared gap to its nearer sorted neighbour, d_min,
has a d_min > 600 is rescored with a sum shifted by d_min, and every other
point's sum moves by at most n e^-100 relative.  Its pdf and pdf' are full
kernel sums, with no floor: a pdf of 1e-136 stays exact.  Its cdf is a full
sum too, except that chunks of sorted points where Phi is exactly 1 are
counted instead of computed.  One pass per block of 32 queries gives the
cdf, pdf and pdf' (at 1600 points its buffers fit a 2 MB L2 cache), so
cdf_link costs one pass.  Its inverse CDF caches a 257-node table of the
exact cdf and, from the same pass, the kernel moments of a 10-term Taylor
expansion of the cdf about each node.  Each query starts from the linear
interpolant of the inverse inside the table's bracket and takes Newton
steps on the Taylor polynomial about the nearer node, with no kernel pass.
The result stands when a certificate puts it within 1e-10 of the root: the
remainder bound from Cramér's inequality, a rounding bound and the
residual, over a lower bound of the cdf's slope.  The other queries (flat
gaps, the clamped ends) are refined by kernel-pass Newton steps with a
bisection fallback, to within 1e-8.  A quantile asked for more than once in
a call is inverted once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .core import DomainError, ParameterError

_QUANTILE_CLAMP = 1e-9
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class TargetDistribution:
    """pdf, cdf, inverse cdf and the exact link: cdf_link(y) is the tuple
    (cdf(y), pdf(y), pdf'(y)), where pdf' is the derivative of pdf wherever
    it exists (0 on the flat pieces of a piecewise-linear cdf).

    The fields are given as vectorized callables of a float ndarray, and the
    type enforces one call contract on every marginal, a caller's included:
    a scalar query gives a float (cdf_link a tuple of floats), an array
    query an ndarray.  pdf, cdf and cdf_link see only the finite queries; at
    -inf and +inf each output takes its limit (0 and 1 for the cdf, 0 for
    pdf and pdf'), and at nan it is nan.  inv_cdf raises DomainError for a
    quantile outside (0, 1) or nan and clamps the rest into
    [1e-9, 1 - 1e-9].  The wrappers are idempotent, so
    dataclasses.replace, which wraps the fields again, changes no float."""

    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    inv_cdf: Callable[[np.ndarray], np.ndarray]
    cdf_link: Callable[[np.ndarray], tuple]

    def __post_init__(self):
        inv = self.inv_cdf
        object.__setattr__(self, "inv_cdf", lambda u: inv(_clamp_quantiles(u)))
        object.__setattr__(self, "pdf", _with_limits(self.pdf, (0.0, 0.0)))
        object.__setattr__(self, "cdf", _with_limits(self.cdf, (0.0, 1.0)))
        object.__setattr__(
            self, "cdf_link", _with_limits(self.cdf_link, (0.0, 1.0), (0.0, 0.0), (0.0, 0.0))
        )
        for name in ("pdf", "cdf", "inv_cdf", "cdf_link"):
            object.__setattr__(self, name, _scalarize(getattr(self, name)))


def _clamp_quantiles(u) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr)):
        raise DomainError("inverse-cdf argument must lie strictly inside (0, 1)")
    return np.clip(arr, _QUANTILE_CLAMP, 1.0 - _QUANTILE_CLAMP)


def _scalarize(f):
    """Return float (tuple of floats) for scalar input, ndarray otherwise."""

    def wrapped(y):
        arr = np.asarray(y, dtype=float)
        out = f(arr)
        if arr.ndim == 0:
            return tuple(map(float, out)) if isinstance(out, tuple) else float(out)
        return out

    return wrapped


def _with_limits(f, *limits):
    """f on the finite queries of a float ndarray only.  At -inf and +inf
    output k takes its limit limits[k] = (at -inf, at +inf), and at nan it
    is nan.  An all-finite query goes straight to f."""

    def wrapped(y):
        finite = np.isfinite(y)
        if finite.all():
            return f(y)
        values = f(y[finite])
        outs = []
        for value, (low, high) in zip(values if len(limits) > 1 else (values,), limits):
            out = np.where(np.isnan(y), np.nan, np.where(y > 0.0, high, low))
            out[finite] = value
            outs.append(out)
        return tuple(outs) if len(limits) > 1 else outs[0]

    return wrapped


def gaussian_distribution(mean: float, std: float) -> TargetDistribution:
    """N(mean, std^2), with the floats of scipy.stats.norm(mean, std): the
    same operations in the same order on the standardized x."""
    if not (std > 0.0 and np.isfinite(std) and np.isfinite(mean)):
        raise ParameterError(f"need finite mean and std > 0, got mean={mean!r}, std={std!r}")

    def pdf(y):
        x = (y - mean) / std
        return np.exp(-x**2 / 2.0) / _SQRT_2PI / std

    def cdf(y):
        return ndtr((y - mean) / std)

    def inv(u):
        return ndtri(u) * std + mean

    def link(y):
        p = pdf(y)
        return cdf(y), p, -(y - mean) / (std * std) * p

    return TargetDistribution(pdf=pdf, cdf=cdf, inv_cdf=inv, cdf_link=link)


def uniform_distribution(a: float, b: float) -> TargetDistribution:
    if not (b > a and np.isfinite(a) and np.isfinite(b)):
        raise ParameterError(f"need finite a < b, got a={a!r}, b={b!r}")
    width = b - a

    def pdf(y):
        return np.where((y >= a) & (y <= b), 1.0 / width, 0.0)

    def cdf(y):
        return np.clip((y - a) / width, 0.0, 1.0)

    def inv(u):
        return a + u * width

    return TargetDistribution(
        pdf=pdf, cdf=cdf, inv_cdf=inv, cdf_link=lambda y: (cdf(y), pdf(y), np.zeros_like(y))
    )


# ---------------------------------------------------------------------------
# kernel density estimation


@dataclass(frozen=True, eq=False)
class KdeModel:
    """Gaussian-kernel density model: sample points (stored sorted) plus a
    single positive bandwidth."""

    sample_points: np.ndarray
    bandwidth: float

    def __post_init__(self):
        pts = np.sort(np.asarray(self.sample_points, dtype=float).ravel())
        if pts.size < 1:
            raise ParameterError("KDE needs at least one sample point")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("KDE sample points contain non-finite entries")
        if not (self.bandwidth > 0.0 and np.isfinite(self.bandwidth)):
            raise ParameterError(f"bandwidth must be positive, got {self.bandwidth!r}")
        pts.flags.writeable = False
        object.__setattr__(self, "sample_points", pts)


def silverman_bandwidth(values: np.ndarray) -> float:
    """1.06 * sample std * n^(-1/5)."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 2:
        raise ParameterError("need >= 2 values for a bandwidth rule")
    s = float(np.std(v, ddof=1))
    if not s > 0.0:
        raise ParameterError("degenerate sample (zero spread) has no usable bandwidth")
    return 1.06 * s * v.size ** (-0.2)


def _chunked(n: int, block: int):
    for start in range(0, n, block):
        yield start, min(start + block, n)


# Pairwise blocks never hold more than this many elements.
_KERNEL_BUDGET = 2_000_000
# CV exponents are floored here before np.exp, which leaves numpy's vector
# fast path for results below about e^-708 (see `_cv_scores`).
_EXP_FLOOR = -700.0
# Beyond this a * d_min a CV cell is rescored shifted.
_UNDERFLOW_EXPONENT = 600.0


def _nearest_gaps(v: np.ndarray) -> np.ndarray:
    """Each point's distance to the nearer of its neighbours in the sorted
    sample v."""
    gap = np.diff(v)
    return np.minimum(np.r_[np.inf, gap], np.r_[gap, np.inf])


def _shifted_log_sums(
    val: np.ndarray, train: np.ndarray, a: np.ndarray, d_min: np.ndarray
) -> np.ndarray:
    """log sum_j exp(-a_k (val_i - train_j)^2) for every a_k and row i, as a
    (len(a), len(val)) array.  Each row is shifted by d_min_i, its smallest
    squared distance to `train`: log(sum(exp(-a D'))) - a d_min, whose
    shifted sum is >= 1 and never underflows to log(0)."""
    out = np.empty((a.size, val.size))
    block = max(1, _KERNEL_BUDGET // train.size)
    for lo, hi in _chunked(val.size, block):
        d = val[lo:hi, None] - train[None, :]
        d *= d
        d -= d_min[lo:hi, None]
        buf = np.empty_like(d)
        for k in range(a.size):
            np.multiply(d, -a[k], out=buf)
            np.maximum(buf, _EXP_FLOOR, out=buf)
            np.exp(buf, out=buf)
            out[k, lo:hi] = np.log(buf.sum(axis=1)) - a[k] * d_min[lo:hi]
    return out


def _cv_scores(v: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """5-fold cross-validated log-likelihood of each bandwidth in `grid` for
    the sorted sample `v` (folds by sorted-order index modulo 5).

    The kernel is symmetric, so each of the 10 fold pairs (f, g), f < g, is
    exponentiated once per bandwidth: its row sums go to fold f's points and
    its column sums to fold g's, accumulated per (bandwidth, point) before
    one log.

    Every exponent -a d, with a = 1 / (2 h^2), is floored at -700 before
    np.exp, whose vector loop is 15 to 130 times slower on results that
    underflow.  A point's smallest squared distance d_min to its training
    points is its squared nearest gap in the sorted sample
    (`_nearest_gaps`): both sorted neighbours lie in other folds, and
    rounding is monotone, so no float of the blocks is smaller.  Its largest
    term is e^(-a d_min).  The (bandwidth, point) cells with a d_min > 600
    are recomputed shifted by d_min (`_shifted_log_sums`), where the largest
    term is exactly 1.  In every other cell the largest term is at least
    e^-600 and each floored term is off by less than e^-700, so the sum
    moves by at most n e^-100 relative.
    """
    n = v.size
    a = 0.5 / grid**2
    sums = np.zeros((grid.size, n))
    d_min = _nearest_gaps(v) ** 2
    for f in range(5):
        for g in range(f + 1, 5):
            rows, cols = v[f::5], v[g::5]
            row_sums = sums[:, f::5]
            block = max(1, _KERNEL_BUDGET // cols.size)
            for lo, hi in _chunked(rows.size, block):
                d = rows[lo:hi, None] - cols[None, :]
                d *= d
                buf = np.empty_like(d)
                # BLAS matrix-vector products: several times faster than .sum(axis)
                row_ones, col_ones = np.ones(hi - lo), np.ones(cols.size)
                for k in range(grid.size):
                    np.multiply(d, -a[k], out=buf)
                    np.maximum(buf, _EXP_FLOOR, out=buf)
                    np.exp(buf, out=buf)
                    row_sums[k, lo:hi] += buf @ col_ones
                    sums[k, g::5] += row_ones @ buf
    log_sums = np.log(sums)
    under = a[:, None] * d_min[None, :] > _UNDERFLOW_EXPONENT
    scores = np.zeros(grid.size)
    for f in range(5):
        fold_cells, fold_under = log_sums[:, f::5], under[:, f::5]
        redo = np.flatnonzero(fold_under.any(axis=0))
        if redo.size:
            train = np.delete(v, np.arange(f, n, 5))
            shifted = _shifted_log_sums(v[f::5][redo], train, a, d_min[f::5][redo])
            fold_cells[:, redo] = np.where(fold_under[:, redo], shifted, fold_cells[:, redo])
        n_val = fold_cells.shape[1]
        scores += fold_cells.sum(axis=1) - n_val * np.log((n - n_val) * grid * _SQRT_2PI)
    return scores


# The bandwidth screen (`_cv_bounds`): Taylor expansions of _SCREEN_TERMS
# terms in cells one bandwidth wide, over a band of +-_SCREEN_BAND cells.
_SCREEN_TERMS = 12
_SCREEN_BAND = 6
# (bandwidth, point) pairs per screen group, and (fold, cell) rows per
# translation block: each keeps the screen's buffers near 2 MB.
_SCREEN_PAIRS = 16384
_SCREEN_ROWS = 1280


@functools.cache
def _screen_table():
    """The screen's translation table, (2B + 1) P rows by P + 1 columns,
    and its rounding constant tau.

    With G(w) = exp(-w^2 / 2), so that G^(m) = (-1)^m He_m G, a source at
    offset s from the centre of a cell j cells below the target's cell and
    the target at offset o from its own centre (|o|, |s| <= 1/2, in units
    of the cell width),
    G(j + o - s) = sum_{q + r < P} G^(q+r)(j) (-1)^q s^q o^r / (q! r!) + R.
    Row (j + B) P + q, column r < P holds G^(q+r)(j) (-1)^q / (q! r!): it
    takes a cell's q-th power moment of source offsets to the coefficient
    of o^r.  Column P takes the source count to the remainder's weight:
    |R| <= max |G^(P)| |o - s|^P / P! over |x| >= |j| - 1, and Cramér's
    inequality |He_P(x)| e^(-x^2/4) <= 1.0865 sqrt(P!), with
    1.0865 <= _CRAMER sqrt(2 pi), gives
    |R| <= _CRAMER sqrt(2 pi / P!) e^(-(|j| - 1)^2 / 4) (|o| + 1/2)^P.

    He_m(j) is an exact integer, so each entry is rounded at most four
    times.  tau = sum_r 2^-r max_j sum_q 2^-q |T[j, q, r]| bounds, per
    source in the band, the coefficients' sum of 2^-r |coefficient r|.
    """
    P, B = _SCREEN_TERMS, _SCREEN_BAND
    fact = [math.factorial(k) for k in range(P + 1)]
    table = np.zeros((2 * B + 1, P, P + 1))
    for j in range(-B, B + 1):
        he = [1, j]
        for m in range(1, P - 1):
            he.append(j * he[m] - m * he[m - 1])
        g = math.exp(-0.5 * j * j)
        for q in range(P):
            for r in range(P - q):
                table[j + B, q, r] = (-1) ** r * he[q + r] / (fact[q] * fact[r]) * g
        table[j + B, 0, P] = (
            _CRAMER * _SQRT_2PI / math.sqrt(fact[P]) * math.exp(-0.25 * max(abs(j) - 1, 0) ** 2)
        )
    half = 0.5 ** np.arange(P)
    tau = float(half @ (np.abs(table[:, :, :P]) * half[:, None]).sum(axis=1).max(axis=0))
    return table.reshape(-1, P + 1), tau


def _cv_bounds(v: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of the floats `_cv_scores(v, grid)` returns,
    at O(n) cost per bandwidth.  A bandwidth too small for the sample's
    range (cell coordinates off by more than 1e-9) gets (-inf, inf).

    For each bandwidth h the sorted sample is cut into cells of width h
    from v[0].  Each (fold, occupied cell) gets the power moments q < 12 of
    its points' offsets from the cell centre, in units of h; a fold's
    training moments are the cell's total less the fold's own.  The table
    of `_screen_table` turns the training moments of the cells within 6 of
    a point's cell into a polynomial in the point's offset: the point's
    kernel sum over those training points, up to Cramér's remainder.  The
    sum of G = exp(-(d / h)^2 / 2) over all of a point's training points is
    then bounded

    - below by the polynomial less its remainder and rounding bounds, and
      by G at the point's nearest-neighbour distance d_nn
      (`_nearest_gaps`: its sorted neighbours are both in other folds);
    - above by the polynomial plus those bounds plus the training points
      beyond the band, each counted at G of the larger of d_nn and the
      distance the cells allow: 6.5 cells less the offset for those within
      12 cells, 12.5 cells less the offset for the rest; and by the
      training count times G(d_nn).

    The sums of the log-bounds, less `_cv_scores`'s normalization, bound
    the score.

    Rounding is part of the bounds.  The cell coordinates (v - v[0]) / h
    are off by at most 3 u (z_max + 1) (u = 2^-53), under
    eps = 4 u (z_max + 1): the in-band sum moves by a factor of at most
    1 + 4 eps (2B + 2 + 2 eps), and the band edges move in by 8 eps, which
    also covers their own rounding.  The moments, the table, its products
    and the polynomial's evaluation are off by at most (2n + 20P) u tau
    times the count of all points in the band.  The remainder, rounding and
    tail terms are raised by 0.1%, which covers their own rounding, and
    d_nn / h is moved 8 u outward.  Last, each score bound is widened by
    2 u (n (2n + 8005) + 2 (n + 40) S), with S the sum over points of the
    larger |log-bound| and over folds of |normalization|.  That covers the
    screen's logs and sums and every way `_cv_scores`'s float can differ
    from the exact score: exponents off by 6 u relative, at most 700 (or
    their shift by d_min), numpy's exp and log within 4 ulp, sums of n
    nonnegative terms within 2 n u relative, the floored terms (n e^-100
    relative) and the fold sums.

    Bandwidths are screened in groups of about 16384 (bandwidth, point)
    pairs; each bandwidth's cell keys are offset past the previous one's by
    more than 2B, so that one pass serves a group.
    """
    n = v.size
    P, B = _SCREEN_TERMS, _SCREEN_BAND
    u = _UNIT_ROUNDOFF
    table, tau = _screen_table()
    fold = np.arange(n) % 5
    n_val = np.bincount(fold, minlength=5).astype(float)
    n_train = n - n_val[fold]
    d_nn = _nearest_gaps(v)
    lower = np.full(grid.size, -np.inf)
    upper = np.full(grid.size, np.inf)
    eps_all = 4.0 * u * ((v[-1] - v[0]) / grid + 1.0)
    screened = np.flatnonzero(eps_all <= 1e-9)
    per_group = max(1, _SCREEN_PAIRS // n)
    for start in range(0, screened.size, per_group):
        ks = screened[start : start + per_group]
        h, eps = grid[ks, None], eps_all[ks, None]
        z = (v - v[0]) / h
        cell = np.floor(z)
        off = z - cell - 0.5
        key = (cell + (cell[:, -1].max() + 2 * B + 2) * np.arange(ks.size)[:, None]).ravel()
        new = np.r_[True, key[1:] != key[:-1]]
        cells = key[new]
        m = cells.size
        occ = (np.cumsum(new) - 1).reshape(cell.shape)
        folds = np.broadcast_to(fold, cell.shape)
        # own[f, c, q]: fold f's q-th power moment of offsets in cell c; row
        # m stays 0 and stands for every empty cell
        own = np.empty((5, m + 1, P))
        slot = (folds * (m + 1) + occ).ravel()
        power = np.ones(slot.size)
        for q in range(P):
            own[:, :, q] = np.bincount(slot, weights=power, minlength=5 * (m + 1)).reshape(5, m + 1)
            power *= off.ravel()
        total = own.sum(axis=0)
        train = total - own
        # the source row of each (cell, band offset): train row f (m + 1) + look
        src = cells[:, None] - np.arange(-B, B + 1)
        look = np.minimum(np.searchsorted(cells, src), m - 1)
        look = np.where(cells[look] == src, look, m)
        rows = train.reshape(-1, P)
        coef = np.empty((5 * m, P + 1))
        for lo, hi in _chunked(5 * m, _SCREEN_ROWS):
            f, c = np.divmod(np.arange(lo, hi), m)
            coef[lo:hi] = rows[(f * (m + 1))[:, None] + look[c]].reshape(hi - lo, -1) @ table
        # training counts within B and 2B cells of each cell, all within B
        counts = np.zeros((6, m + 1))
        np.cumsum(train[:, :m, 0], axis=1, out=counts[:5, 1:])
        np.cumsum(total[:m, 0], out=counts[5, 1:])
        near, near2 = (
            counts[:, np.searchsorted(cells, cells + w, side="right")]
            - counts[:, np.searchsorted(cells, cells - w)]
            for w in (B, 2 * B)
        )
        c = coef[folds * m + occ]
        value = c[..., P - 1]
        for r in range(P - 2, -1, -1):
            value = value * off + c[..., r]
        err = 1.001 * (
            (np.abs(off) + 0.5) ** P * c[..., P] + (2 * n + 20 * P) * u * tau * near[5, occ]
        )
        eta = 4.0 * eps * (2 * B + 2 + 2 * eps)
        x = d_nn / h
        x_lo, x_hi = x * (1.0 - 8.0 * u), x * (1.0 + 8.0 * u)
        edge = B + 0.5 - np.abs(off) - 8.0 * eps
        tail = 1.001 * (
            (near2[folds, occ] - near[folds, occ])
            * np.exp(np.maximum(-0.5 * np.maximum(edge, x_lo) ** 2, _EXP_FLOOR))
            + (n_train - near2[folds, occ])
            * np.exp(np.maximum(-0.5 * np.maximum(edge + B, x_lo) ** 2, _EXP_FLOOR))
        )
        with np.errstate(divide="ignore"):
            log_up = np.minimum(
                np.log((value + err) * (1.0 + eta) + tail), np.log(n_train) - 0.5 * x_lo**2
            )
            log_lo = np.maximum(
                np.log(np.maximum(value - err, 0.0) * (1.0 - eta)), -0.5 * x_hi**2
            )
        lam = np.log((n - n_val) * h * _SQRT_2PI)
        norm = lam @ n_val
        size = np.maximum(np.abs(log_lo), np.abs(log_up)).sum(axis=1) + np.abs(lam) @ n_val
        margin = 2.0 * u * (n * (2 * n + 8005) + 2 * (n + 40) * size)
        lower[ks] = log_lo.sum(axis=1) - norm - margin
        upper[ks] = log_up.sum(axis=1) - norm + margin
    return lower, upper


def fit_kde(targets, bandwidth_grid=None) -> KdeModel:
    """Pick a bandwidth by 5-fold cross-validated log-likelihood.

    Folds are assigned by sorted-order index modulo 5, which is both
    deterministic and invariant under permutations of the input.  The default
    grid is 20 log-spaced bandwidths between h_silverman/10 and
    h_silverman*10; an explicit grid is sorted first, so ties prefer the
    smallest bandwidth.  The score is the exact Gaussian-kernel
    log-likelihood of every validation point under its training folds
    (`_cv_scores`), with each pair of folds scored once per bandwidth.

    `_cv_bounds` first bounds every bandwidth's score from below and above,
    rounding included, at O(n) cost per bandwidth, and `_cv_scores` runs
    once, on the candidates: the bandwidths whose upper bound reaches the
    largest lower bound.  The best bandwidth is always a candidate, and
    `_cv_scores` gives each bandwidth the same float in any subset of the
    grid, so the choice, ties included, is that of the exact scores on the
    whole grid.  A bandwidth whose score is within the bounds' slack of the
    best stays a candidate, so near-ties go to the exact pass.
    """
    v = np.sort(np.asarray(targets, dtype=float).ravel())
    if v.size == 0:
        raise ParameterError("empty targets")
    if not np.all(np.isfinite(v)):
        raise ParameterError("targets contain non-finite entries")
    if v.size < 5:
        raise ParameterError(f"need >= 5 targets for 5-fold selection, got {v.size}")
    if bandwidth_grid is None:
        h0 = silverman_bandwidth(v)
        grid = np.geomspace(h0 / 10.0, h0 * 10.0, 20)
    else:
        grid = np.sort(np.asarray(bandwidth_grid, dtype=float).ravel())
        if grid.size == 0 or np.any(~np.isfinite(grid)) or np.any(grid <= 0.0):
            raise ParameterError("bandwidth grid must be nonempty and positive")

    lower, upper = _cv_bounds(v, grid)
    candidates = np.flatnonzero(upper >= lower.max())
    best = candidates[int(np.argmax(_cv_scores(v, grid[candidates])))]
    return KdeModel(sample_points=v, bandwidth=float(grid[best]))


_CDF_TABLE_NODES = 257
# ndtr(z) is exactly 1.0 for every z >= 8.2924; the tests pin it from 8.3 up.
_NDTR_ONE = 8.3
# Sample points per chunk of the cdf sum, and queries per kernel block.  A
# block's pass holds four rows x n float buffers (z, the ndtr output, exp
# and its product with z).  At 32 rows and n = 1600 they take 1.6 MB and
# stay in a 2 MB L2 cache; at 64 rows the first three alone took 2.4 MB,
# and the pass ran about 10% slower.  The values do not depend on the
# block size.
_CDF_CHUNK = 64
_QUERY_BLOCK = 32
# The inverse's node table stores, at each node t, the kernel moments
# M_r(t) = (1/n) sum_j He_r(z_j) phi(z_j), r < _TAYLOR_TERMS, of the Taylor
# expansion F(t + h d) = F(t) + sum_r (-1)^r M_r d^(r+1) / (r+1)!.  By
# Cramér's inequality |He_r(z) phi(z)| <= _CRAMER sqrt(r!) for every z, so
# the remainder after K terms is at most _CRAMER sqrt(K!) |d|^(K+1) / (K+1)!
# for any sample.  A query lies at most half a node spacing from its nearer
# node: 0.083 bandwidths on the benchmark's 1600-point log-normal sample and
# 0.18 on a 1000-point log-normal with a long tail.  There K = 10 bounds the
# remainder by 3e-17 and 1e-13, so a root is certified to 1e-10 wherever the
# pdf exceeds 1e-3 even at the cell's middle.  K = 8 leaves 4e-11 on the
# second sample and certifies 70 fewer of its levels k/1000; K = 12 costs
# 1.4 ms more per 1600-point table and certifies one more (0.999).
_TAYLOR_TERMS = 10
_CRAMER = 0.4335
# |phi'| <= phi(1): a bound on F'' in units of the bandwidth
_PHI_SLOPE_MAX = 0.242
# Newton steps on the Taylor polynomial (on the samples tested, more
# certify no more queries), and the distance from the root within which
# their result must be certified
_TAYLOR_NEWTON_STEPS = 5
_CERTIFIED_RADIUS = 1e-10
_UNIT_ROUNDOFF = 2.0**-53


def _hermite_sums(z, e, terms, work):
    """Row sums of He_r(z) e for r < terms (terms >= 2), by
    He_{r+1} = z He_r - r He_{r-1}.  Overwrites e and work, which holds two
    more arrays of its shape."""
    sums = np.empty((e.shape[0], terms))
    sums[:, 0] = e.sum(axis=1)
    prev, cur, tmp = e, work[0], work[1]
    np.multiply(z, e, out=cur)
    sums[:, 1] = cur.sum(axis=1)
    for r in range(1, terms - 1):
        np.multiply(z, cur, out=tmp)
        prev *= r
        np.subtract(tmp, prev, out=prev)
        sums[:, r + 1] = prev.sum(axis=1)
        prev, cur = cur, prev
    return sums


def _poly(coef, x):
    """sum_r coef[r] x^r by Horner's rule."""
    out = coef[-1]
    for r in range(coef.shape[0] - 2, -1, -1):
        out = out * x + coef[r]
    return out


def kde_distribution(model: KdeModel) -> TargetDistribution:
    """Wrap a KdeModel as a TargetDistribution on [min - 5h, max + 5h].

    pdf, cdf and cdf_link are exact kernel sums, over blocks of 32 sorted
    queries (`_QUERY_BLOCK`).  The cdf sums the sorted sample in fixed
    chunks of 64 points, left to right.  A chunk that lies wholly at
    z >= 8.3 for a block's smallest query adds exactly its size, because
    ndtr is exactly 1 there, and gets no ndtr call.  So each query's value
    is the same float in any batch, and the cdf is exactly monotone.

    cdf_link's cdf, pdf and pdf' come from one pass per block, in buffers
    allocated once per call: z, then the cdf's ndtr chunk sums and one array
    exp(-z^2 / 2), which the pdf sums and whose product with z pdf' sums.
    That exp is not floored, so a pdf far below e^-700 (1e-136 mid-way
    between two points 50 bandwidths apart) stays exact.  pdf and cdf read
    the same pass, so they are cdf_link's floats.

    The inverse CDF tabulates the exact cdf at 257 nodes on the first call
    and caches the table.  The same pass stores at each node t the moments
    M_r = (1/n) sum_j He_r(z_j) phi(z_j), r < K = 10, by the recurrence
    He_{r+1} = z He_r - r He_{r-1} on its z and exp(-z^2 / 2) buffers.
    Then F(t + h d) = F(t) + sum_r (-1)^r M_r d^(r+1) / (r+1)! + R with
    |R| <= 0.4335 sqrt(K!) |d|^(K+1) / (K+1)! for any sample (Cramér's
    inequality bounds |He_K phi| by 0.4335 sqrt(K!)).

    Each query takes its bracket from the table and starts from the linear
    interpolant of the inverse inside it.  It takes 5 Newton steps on the
    Taylor polynomial about the bracket node nearer the start, all queries
    at once and with no kernel pass.  Its result is certified when R, a
    bound on the rounding of the moments and of Horner's rule, and the
    residual, over a lower bound of F' within 1e-10 of it (the polynomial's
    slope less its error bounds and a bound on F''), put the root within
    1e-10.  The root is that of the exact cdf through the node's cdf float.
    A query that is not certified (one in a flat gap, where no cdf in
    doubles pins its root, or at a clamped end) takes kernel-pass Newton
    steps from the same start, falling back to bisection whenever a step
    leaves the bracket.  It stops once the bracket is at most 1e-8 wide or
    a step is below 1e-9.  So every result is within 1e-8 of the smallest y
    with cdf(y) >= u.  Quantiles below cdf(lo) map to lo and above cdf(hi)
    to hi.  Each query's steps depend on its own value alone, so repeated
    quantiles (the rank read-out's levels k/n_U repeat) are inverted once
    each and scattered back, with the same floats.
    """
    pts = model.sample_points
    h = model.bandwidth
    n = pts.size
    lo = float(pts[0] - 5.0 * h)
    hi = float(pts[-1] + 5.0 * h)
    pdf_norm = n * h * _SQRT_2PI
    n_chunks = -(-n // _CDF_CHUNK)
    # +inf pads the last chunk: its z is -inf at every finite query, and
    # ndtr(-inf) adds 0
    padded = np.concatenate((pts, np.full(n_chunks * _CDF_CHUNK - n, np.inf)))
    chunk_max = pts[np.minimum(np.arange(1, n_chunks + 1) * _CDF_CHUNK, n) - 1]
    block = max(1, min(_QUERY_BLOCK, _KERNEL_BUDGET // padded.size))

    def cdf_rows(y, z):
        # The chunks wholly at z >= 8.3 for the smallest query are a prefix.
        # Their ndtr sums would be exactly their sizes, so starting the
        # left-to-right sum of chunk sums at m * 64 gives the same float.
        m = int(np.count_nonzero((y[0] - chunk_max) / h >= _NDTR_ONE))
        if m == n_chunks:
            return 1.0
        sums = ndtr(z[:, m * _CDF_CHUNK :]).reshape(y.size, -1, _CDF_CHUNK).sum(axis=2)
        sums[:, 0] += m * _CDF_CHUNK
        return np.cumsum(sums, axis=1)[:, -1] / n

    def kernel_pass(y, terms=2):
        """(cdf, pdf, pdf') at finite y; for terms > 2 also the
        (y.size, terms) kernel moments M_r of the node table.  Non-finite
        queries never get here: TargetDistribution gives them their limits."""
        flat = np.ravel(y)
        order = np.argsort(flat, kind="stable")
        ys = flat[order]
        outs = [np.empty(flat.size) for _ in range(3)]
        moments = np.zeros((flat.size, terms)) if terms > 2 else None
        z_buf = np.empty((min(block, ys.size), padded.size))
        e_buf = np.empty((z_buf.shape[0], n))
        work = np.empty((2, *e_buf.shape))
        for a, b in _chunked(ys.size, block):
            z, e, at = z_buf[: b - a], e_buf[: b - a], order[a:b]
            np.subtract(ys[a:b, None], padded[None, :], out=z)
            z /= h
            outs[0][at] = cdf_rows(ys[a:b], z)
            np.multiply(z[:, :n], -0.5, out=e)
            e *= z[:, :n]
            np.exp(e, out=e)
            sums = _hermite_sums(z[:, :n], e, terms, work[:, : b - a])
            outs[1][at] = sums[:, 0] / pdf_norm
            outs[2][at] = -sums[:, 1] / (pdf_norm * h)
            if terms > 2:
                moments[at] = sums / (n * _SQRT_2PI)
        outs = tuple(out.reshape(np.shape(y)) for out in outs)
        return outs + (moments,) if terms > 2 else outs

    # the halvings plain bisection of [lo, hi] needs to reach 1e-8: the
    # Newton loop never takes more
    max_steps = int(np.ceil(np.log2(max((hi - lo) / 1e-8, 2.0)))) + 2

    @functools.cache
    def cdf_table():
        """The nodes, their cdf and the coefficients (by power of d, then
        node) of four polynomials per node: S(d) / d, S'(d), and the bounds
        on S's and S''s errors at |d| (the first over |d|), where
        S(d) = F(t + h d) - F(t) is the Taylor polynomial about the node t."""
        nodes = np.linspace(lo, hi, _CDF_TABLE_NODES)
        levels, _, _, moments = kernel_pass(nodes, terms=_TAYLOR_TERMS)
        K = _TAYLOR_TERMS
        fact = np.array([float(math.factorial(r)) for r in range(K + 2)])
        signed = moments.T * (-1.0) ** np.arange(K)[:, None]
        poly = np.zeros((4, K + 1, nodes.size))
        poly[0, :K] = signed / fact[1 : K + 1, None]
        poly[1, :K] = signed / fact[:K, None]
        # Rounding: the coefficients, Horner's rule and the residual cost at
        # most (2K + 4) u of the terms' magnitudes.  Each moment is off by at
        # most u _CRAMER sqrt(r!) (2 sqrt(r + 1) + log2(n) + 32): 2 sqrt(r + 1)
        # for the rounded z, log2(n) + 12 for numpy's pairwise sum, 3 for the
        # exp and the recurrence (measured against extended precision in the
        # tests) and 2 for the scaling, rounded up.  The d^K coefficients of
        # the bounds are the remainders of S and S'.
        gamma = (2 * K + 4) * _UNIT_ROUNDOFF
        moment_err = (
            _UNIT_ROUNDOFF * _CRAMER * np.sqrt(fact[:K])
            * (2.0 * np.sqrt(np.arange(1, K + 1)) + np.log2(n) + 32.0)
        )
        cramer = _CRAMER * math.sqrt(fact[K])
        poly[2, :K] = gamma * np.abs(poly[0, :K]) + (moment_err / fact[1 : K + 1])[:, None]
        poly[2, K] = cramer / fact[K + 1]
        poly[3, :K] = gamma * np.abs(poly[1, :K]) + (moment_err / fact[:K])[:, None]
        poly[3, K] = cramer / fact[K]
        return nodes, levels, poly

    def taylor_roots(q, a, b, i, x):
        """Newton steps from x on the Taylor polynomial about the bracket node
        nearer x.  Returns the roots, clipped to [a, b], and which of them are
        certified within _CERTIFIED_RADIUS of the root of the exact cdf
        through the node's value."""
        nodes, levels, poly = cdf_table()
        j = np.where(x - a <= b - x, i - 1, i)
        t, gap, c = nodes[j], q - levels[j], poly[:, :, j]
        d = (x - t) / h
        d_lo, d_hi = (a - t) / h, (b - t) / h
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(_TAYLOR_NEWTON_STEPS):
                d = np.clip(d - (d * _poly(c[0], d) - gap) / _poly(c[1], d), d_lo, d_hi)
            size = np.abs(d)
            error = (
                np.abs(d * _poly(c[0], d) - gap)
                + size * _poly(c[2], size)
                + (2 * _TAYLOR_TERMS + 4) * _UNIT_ROUNDOFF * np.abs(gap)
            )
            x = t + h * d
            # the certified half-width in units of h, less the rounding of x
            room = (_CERTIFIED_RADIUS - 2.0 * _UNIT_ROUNDOFF * (np.abs(t) + np.abs(x))) / h
            slope_lo = _poly(c[1], d) - _poly(c[3], size) - _PHI_SLOPE_MAX * room
            # F rises by more than `error` within `room` either side of d
            sure = (room > 0.0) & (error < room * slope_lo)
        return np.clip(x, a, b), sure

    def inv(u):
        # invert each distinct quantile once; `repeat` scatters them back
        q, repeat = np.unique(np.ravel(u), return_inverse=True)
        nodes, levels, _ = cdf_table()
        k = np.searchsorted(levels, q, side="left")
        out = np.where(k == 0, lo, hi)
        todo = np.flatnonzero((k > 0) & (k < nodes.size))
        qa = q[todo]
        i = k[todo]
        a, b = nodes[i - 1], nodes[i]
        Fa = levels[i - 1]
        x = a + (qa - Fa) / (levels[i] - Fa) * (b - a)
        roots, sure = taylor_roots(qa, a, b, i, x)
        out[todo[sure]] = roots[sure]
        rest = ~sure
        todo, qa, a, b, x = todo[rest], qa[rest], a[rest], b[rest], x[rest]
        for _ in range(max_steps):
            F, f, _ = kernel_pass(x)
            below = F < qa
            a = np.where(below, x, a)
            b = np.where(below, b, x)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = (qa - F) / f
                # F(x) == q exactly: x is a root, and the leftmost one lies
                # within the width over which F can stay flat, about spacing(q)/f
                size = np.where(step == 0.0, np.spacing(qa) / f, np.abs(step))
            nxt = x + step
            converged = size < 1e-9
            done = converged | (b - a <= 1e-8)
            out[todo[done]] = np.where(
                converged[done],
                np.clip(nxt[done], a[done], b[done]),
                0.5 * (a[done] + b[done]),
            )
            keep = ~done
            if not keep.any():
                break
            todo, qa, a, b, nxt = todo[keep], qa[keep], a[keep], b[keep], nxt[keep]
            x = np.where((nxt > a) & (nxt < b), nxt, 0.5 * (a + b))
        else:
            out[todo] = 0.5 * (a + b)
        return out[repeat].reshape(np.shape(u))

    return TargetDistribution(
        pdf=lambda y: kernel_pass(y)[1],
        cdf=lambda y: kernel_pass(y)[0],
        inv_cdf=inv,
        cdf_link=kernel_pass,
    )


# ---------------------------------------------------------------------------
# the empirical marginal


def empirical_distribution(values) -> TargetDistribution:
    """Continuous (piecewise-linear) distribution interpolating the empirical
    CDF through Hazen plotting positions, giving a genuine pdf/cdf/inverse
    triple; pdf' is 0 between knots.  Duplicate values are merged.
    Needs >= 2 distinct values."""
    v = np.sort(np.asarray(values, dtype=float).ravel())
    if v.size < 2:
        raise ParameterError("need >= 2 values")
    if not np.all(np.isfinite(v)):
        raise ParameterError("values contain non-finite entries")
    uniq, counts = np.unique(v, return_counts=True)
    if uniq.size < 2:
        raise ParameterError("need >= 2 distinct values")
    n = v.size
    cum = np.cumsum(counts)
    positions = (cum - 0.5 * counts) / n
    # Linear ramps over a small data-scaled pad carry the cdf to exactly 0
    # and 1, so every quantile in (0, 1) is invertible (the raw plotting
    # positions only span [0.5/n, 1 - 0.5/n]).
    pad = (uniq[-1] - uniq[0]) / n
    knots = np.concatenate(([uniq[0] - pad], uniq, [uniq[-1] + pad]))
    levels = np.concatenate(([0.0], positions, [1.0]))
    slopes = np.diff(levels) / np.diff(knots)

    def cdf(y):
        return np.interp(y, knots, levels)

    def pdf(y):
        idx = np.searchsorted(knots, y, side="right") - 1
        inside = (idx >= 0) & (idx < slopes.size)
        safe = np.clip(idx, 0, slopes.size - 1)
        return np.where(inside, slopes[safe], 0.0)

    def inv(u):
        return np.interp(u, levels, knots)

    return TargetDistribution(
        pdf=pdf, cdf=cdf, inv_cdf=inv, cdf_link=lambda y: (cdf(y), pdf(y), np.zeros_like(y))
    )
