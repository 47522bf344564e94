"""Target-distribution abstraction: analytic (uniform, Gaussian), kernel
density estimates with cross-validated bandwidth, and an interpolated
empirical CDF.

All four callables of a TargetDistribution are vectorized over numpy
arrays; cdf_link gives (cdf, pdf, pdf') in one call, the tt estimator's
exact link.  Quantile arguments are clamped into [1e-9, 1 - 1e-9] before
inversion so that unbounded supports never produce infinities.  At -inf and
+inf the cdf, pdf and pdf' take their limits (cdf 0 or 1, pdf and pdf' 0),
and a nan query gives nan.

The Gaussian marginal is built from scipy.special's ndtr and ndtri with the
arithmetic of scipy.stats.norm, and gives its floats bit for bit, without
importing scipy.stats.

The KDE is exact throughout.  Its bandwidth score is the exact 5-fold
log-likelihood, with each pair of folds scored once.  Its exponents are
floored at -700, so that np.exp stays on its fast path; points with
a d_min > 600 are rescored with a sum shifted by d_min, and every other
point's sum moves by at most n e^-100 relative.  The floor pass is skipped
in each block and bandwidth where no exponent can fall below -700, since
it would change nothing there.  Its pdf and pdf' are full
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
    it exists (0 on the flat pieces of a piecewise-linear cdf)."""

    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    inv_cdf: Callable[[np.ndarray], np.ndarray]
    cdf_link: Callable[[np.ndarray], tuple]


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


def _flat(y) -> np.ndarray:
    """pdf' of a piecewise-linear cdf: 0 wherever it exists, nan at nan."""
    return np.where(np.isnan(y), np.nan, 0.0)


def gaussian_distribution(mean: float, std: float) -> TargetDistribution:
    """N(mean, std^2), with the floats of scipy.stats.norm(mean, std): the
    same operations in the same order on the standardized x."""
    if not (std > 0.0 and np.isfinite(std) and np.isfinite(mean)):
        raise ParameterError(f"need finite mean and std > 0, got {mean!r}, {std!r}")

    def pdf(y):
        x = (y - mean) / std
        return np.exp(-x**2 / 2.0) / _SQRT_2PI / std

    def cdf(y):
        return ndtr((y - mean) / std)

    def inv(u):
        return ndtri(_clamp_quantiles(u)) * std + mean

    def link(y):
        p = pdf(y)
        # at +-inf, -inf * 0 would give nan where the limit is 0
        with np.errstate(invalid="ignore"):
            slope = -(y - mean) / (std * std) * p
        return cdf(y), p, np.where(np.isinf(y), 0.0, slope)

    return TargetDistribution(
        pdf=_scalarize(pdf),
        cdf=_scalarize(cdf),
        inv_cdf=_scalarize(inv),
        cdf_link=_scalarize(link),
    )


def uniform_distribution(a: float, b: float) -> TargetDistribution:
    if not (b > a and np.isfinite(a) and np.isfinite(b)):
        raise ParameterError(f"need finite a < b, got a={a!r}, b={b!r}")
    width = b - a

    def pdf(y):
        return np.where((y >= a) & (y <= b), 1.0 / width, _flat(y))

    def cdf(y):
        return np.clip((y - a) / width, 0.0, 1.0)

    def inv(u):
        return a + _clamp_quantiles(u) * width

    return TargetDistribution(
        pdf=_scalarize(pdf),
        cdf=_scalarize(cdf),
        inv_cdf=_scalarize(inv),
        cdf_link=_scalarize(lambda y: (cdf(y), pdf(y), _flat(y))),
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


def _shifted_log_sums(val: np.ndarray, train: np.ndarray, a: np.ndarray) -> np.ndarray:
    """log sum_j exp(-a_k (val_i - train_j)^2) for every a_k and row i, as a
    (len(a), len(val)) array.  Each row is shifted by its nearest-neighbour
    distance d_min: log(sum(exp(-a D'))) - a d_min, whose shifted sum is >= 1
    and never underflows to log(0)."""
    out = np.empty((a.size, val.size))
    block = max(1, _KERNEL_BUDGET // train.size)
    for lo, hi in _chunked(val.size, block):
        d = val[lo:hi, None] - train[None, :]
        d *= d
        d_min = d.min(axis=1)
        d -= d_min[:, None]
        buf = np.empty_like(d)
        for k in range(a.size):
            np.multiply(d, -a[k], out=buf)
            np.maximum(buf, _EXP_FLOOR, out=buf)
            np.exp(buf, out=buf)
            out[k, lo:hi] = np.log(buf.sum(axis=1)) - a[k] * d_min
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
    underflow.  A point whose nearest training point is d_min away has a
    largest term of e^(-a d_min).  The (bandwidth, point) cells with
    a d_min > 600 are recomputed shifted by d_min (`_shifted_log_sums`),
    where the largest term is exactly 1.  In every other cell the largest
    term is at least e^-600 and each floored term is off by less than
    e^-700, so the sum moves by at most n e^-100 relative.

    The floor pass is skipped in each (block, bandwidth) cell where
    a * max(d) <= 700.  Rounding is monotone, so every product -a d of the
    block is then >= -700 and the floor would change no float.  On a
    1600-point sample with the default grid, about half the cells skip it.
    """
    n = v.size
    a = 0.5 / grid**2
    sums = np.zeros((grid.size, n))
    d_min = np.full(n, np.inf)
    for f in range(5):
        for g in range(f + 1, 5):
            rows, cols = v[f::5], v[g::5]
            row_min, row_sums = d_min[f::5], sums[:, f::5]
            block = max(1, _KERNEL_BUDGET // cols.size)
            for lo, hi in _chunked(rows.size, block):
                d = rows[lo:hi, None] - cols[None, :]
                d *= d
                np.minimum(row_min[lo:hi], d.min(axis=1), out=row_min[lo:hi])
                np.minimum(d_min[g::5], d.min(axis=0), out=d_min[g::5])
                buf = np.empty_like(d)
                # BLAS matrix-vector products: several times faster than .sum(axis)
                row_ones, col_ones = np.ones(hi - lo), np.ones(cols.size)
                d_max = d.max()
                for k in range(grid.size):
                    np.multiply(d, -a[k], out=buf)
                    if d_max * -a[k] < _EXP_FLOOR:
                        np.maximum(buf, _EXP_FLOOR, out=buf)
                    np.exp(buf, out=buf)
                    row_sums[k, lo:hi] += buf @ col_ones
                    sums[k, g::5] += row_ones @ buf
    with np.errstate(divide="ignore"):
        log_sums = np.log(sums)
    under = a[:, None] * d_min[None, :] > _UNDERFLOW_EXPONENT
    scores = np.zeros(grid.size)
    for f in range(5):
        fold_cells, fold_under = log_sums[:, f::5], under[:, f::5]
        redo = np.flatnonzero(fold_under.any(axis=0))
        if redo.size:
            train = np.delete(v, np.arange(f, n, 5))
            shifted = _shifted_log_sums(v[f::5][redo], train, a)
            fold_cells[:, redo] = np.where(fold_under[:, redo], shifted, fold_cells[:, redo])
        n_val = fold_cells.shape[1]
        scores += fold_cells.sum(axis=1) - n_val * np.log((n - n_val) * grid * _SQRT_2PI)
    return scores


def fit_kde(targets, bandwidth_grid=None) -> KdeModel:
    """Pick a bandwidth by 5-fold cross-validated log-likelihood.

    Folds are assigned by sorted-order index modulo 5, which is both
    deterministic and invariant under permutations of the input.  The default
    grid is 20 log-spaced bandwidths between h_silverman/10 and
    h_silverman*10; an explicit grid is sorted first, so ties prefer the
    smallest bandwidth.  The score is the exact Gaussian-kernel
    log-likelihood of every validation point under its training folds
    (`_cv_scores`): each pair of folds is scored once for every bandwidth in
    the grid.
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

    best = int(np.argmax(_cv_scores(v, grid)))
    return KdeModel(sample_points=v, bandwidth=float(grid[best]))


_CDF_TABLE_NODES = 257
# ndtr(z) is exactly 1.0 for every z >= 8.2924; the tests pin it from 8.3 up.
_NDTR_ONE = 8.3
# Sample points per chunk of the cdf sum, and queries per kernel block.  A
# block's pass holds three rows x n float buffers (z, the ndtr output and
# exp).  At 32 rows and n = 1600 they take 1.2 MB and stay in a 2 MB L2
# cache; at 64 rows they took 2.4 MB, and the pass ran about 10% slower.
# The values do not depend on the block size.
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
    """Row sums of He_r(z) e for r < terms, by He_{r+1} = z He_r - r He_{r-1}.
    Overwrites e; for terms > 2, work holds two more arrays of its shape."""
    sums = np.empty((e.shape[0], terms))
    sums[:, 0] = e.sum(axis=1)
    if terms == 2:
        e *= z
        sums[:, 1] = e.sum(axis=1)
    elif terms > 2:
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
    exp(-z^2 / 2), which the pdf sums and pdf' then scales in place by z.
    That exp is not floored, so a pdf far below e^-700 (1e-136 mid-way
    between two points 50 bandwidths apart) stays exact.  pdf and cdf each
    run the same pass without the pdf' sums, so they give cdf_link's floats.

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
        """(cdf, pdf, pdf') at y, or (cdf, pdf) for terms=1; for terms > 2 also
        the (y.size, terms) kernel moments M_r of the node table."""
        flat = np.ravel(y)
        order = np.argsort(flat, kind="stable")
        ys = flat[order]
        outs = [np.empty(flat.size) for _ in range(min(terms, 2) + 1)]
        moments = np.zeros((flat.size, terms)) if terms > 2 else None
        # -inf sorts first, then the finite queries, then +inf and nan; the
        # non-finite ones take their limits and stay out of the kernel blocks
        start = int(np.searchsorted(ys, -np.inf, side="right"))
        stop = int(np.searchsorted(ys, np.inf, side="left"))
        edge = np.r_[order[:start], order[stop:]]
        y_edge = flat[edge]
        limit = _flat(y_edge)
        outs[0][edge] = np.where(y_edge > 0.0, 1.0, limit)
        for out in outs[1:]:
            out[edge] = limit
        ys, order = ys[start:stop], order[start:stop]
        z_buf = np.empty((min(block, ys.size), padded.size))
        e_buf = np.empty((z_buf.shape[0], n))
        work = np.empty((2, *e_buf.shape)) if terms > 2 else None
        for a, b in _chunked(ys.size, block):
            z, e, at = z_buf[: b - a], e_buf[: b - a], order[a:b]
            np.subtract(ys[a:b, None], padded[None, :], out=z)
            z /= h
            outs[0][at] = cdf_rows(ys[a:b], z)
            np.multiply(z[:, :n], -0.5, out=e)
            e *= z[:, :n]
            np.exp(e, out=e)
            sums = _hermite_sums(z[:, :n], e, terms, None if work is None else work[:, : b - a])
            outs[1][at] = sums[:, 0] / pdf_norm
            if terms > 1:
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
        q, repeat = np.unique(np.ravel(_clamp_quantiles(u)), return_inverse=True)
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
            F, f = kernel_pass(x, terms=1)
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
        pdf=_scalarize(lambda y: kernel_pass(y, terms=1)[1]),
        cdf=_scalarize(lambda y: kernel_pass(y, terms=1)[0]),
        inv_cdf=_scalarize(inv),
        cdf_link=_scalarize(kernel_pass),
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
        arr = np.asarray(y, dtype=float)
        idx = np.searchsorted(knots, arr, side="right") - 1
        inside = (idx >= 0) & (idx < slopes.size)
        safe = np.clip(idx, 0, slopes.size - 1)
        return np.where(inside, slopes[safe], _flat(arr))

    def inv(u):
        return np.interp(_clamp_quantiles(u), levels, knots)

    return TargetDistribution(
        pdf=_scalarize(pdf),
        cdf=_scalarize(cdf),
        inv_cdf=_scalarize(inv),
        cdf_link=_scalarize(lambda y: (cdf(y), pdf(y), _flat(y))),
    )
