import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.special import logsumexp, ndtr, ndtri
from scipy.stats import norm

from uncoupled import (
    DomainError,
    KdeModel,
    ParameterError,
    TargetDistribution,
    empirical_distribution,
    fit_kde,
    gaussian_distribution,
    kde_distribution,
    uniform_distribution,
)
import uncoupled.distributions
from uncoupled.distributions import (
    _CRAMER,
    _SCREEN_BAND,
    _SCREEN_TERMS,
    _TAYLOR_TERMS,
    _UNIT_ROUNDOFF,
    _bound_sums,
    _cv_bounds,
    _cv_scores,
    _hermite_sums,
    _nearest_gaps,
    _screen_cells,
    _screen_table,
    _shifted_log_sums,
    silverman_bandwidth,
)

INV_SQRT_2PI = 0.3989422804014327


def kde_window(model):
    """The KDE's working window: 5 bandwidths past its extreme points."""
    pts, h = model.sample_points, model.bandwidth
    return float(pts[0] - 5.0 * h), float(pts[-1] + 5.0 * h)


_SAMPLE = np.random.default_rng(11).normal(0.0, 1.0, 200)
_SAMPLE_KDE = fit_kde(_SAMPLE)
_PAD = (_SAMPLE.max() - _SAMPLE.min()) / _SAMPLE.size
# the finite window each marginal of all_distributions() and
# TestNonFiniteQueries is scanned over: mean +- 10 std, the support, and the
# empirical cdf's padded knot range
WINDOWS = {
    "gaussian": (-10.0, 10.0),
    "gaussian_formulas": (-10.0, 10.0),
    "gaussian_shifted": (-2.0 - 30.0, -2.0 + 30.0),
    "uniform": (0.0, 1.0),
    "uniform_wide": (-1.0, 3.0),
    "kde": kde_window(_SAMPLE_KDE),
    "empirical": (float(_SAMPLE.min() - _PAD), float(_SAMPLE.max() + _PAD)),
}


def all_distributions():
    return [
        ("gaussian", gaussian_distribution(0.0, 1.0)),
        ("gaussian_shifted", gaussian_distribution(-2.0, 3.0)),
        ("uniform", uniform_distribution(0.0, 1.0)),
        ("uniform_wide", uniform_distribution(-1.0, 3.0)),
        ("kde", kde_distribution(_SAMPLE_KDE)),
        ("empirical", empirical_distribution(_SAMPLE)),
    ]


class TestGaussian:
    def test_cdf_at_mean(self):
        assert gaussian_distribution(0.0, 1.0).cdf(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_pdf_at_mean(self):
        assert gaussian_distribution(0.0, 1.0).pdf(0.0) == pytest.approx(
            INV_SQRT_2PI, abs=1e-9
        )

    def test_quantile_roundtrip(self):
        dist = gaussian_distribution(0.0, 1.0)
        assert dist.inv_cdf(dist.cdf(1.3)) == pytest.approx(1.3, abs=1e-6)

    @pytest.mark.parametrize("std", [0.0, -1.0, np.nan])
    def test_bad_std_rejected(self, std):
        with pytest.raises(ParameterError):
            gaussian_distribution(0.0, std)


class TestGaussianMatchesScipy:
    """The Gaussian marginal is built from ndtr and ndtri, so that the
    package never imports scipy.stats; it must give the frozen
    scipy.stats.norm's floats bit for bit."""

    @pytest.mark.parametrize("mean,std", [(0.0, 1.0), (-2.0, 3.0), (1e3, 1e-3), (0.7, 250.0)])
    def test_bitwise_equal_to_frozen_norm(self, mean, std):
        ref = norm(loc=mean, scale=std)
        dist = gaussian_distribution(mean, std)
        rng = np.random.default_rng(31)
        y = np.concatenate((
            rng.normal(mean, 5.0 * std, 20_000),
            mean + std * np.array([-40.0, 40.0, 0.0]),
            [-np.inf, np.inf, np.nan],
        ))
        u = np.concatenate((rng.uniform(0.0, 1.0, 20_000), [1e-9, 1.0 - 1e-9, 1e-12, 1.0 - 1e-12]))
        u = u[(u > 0.0) & (u < 1.0)]
        finite = np.isfinite(y)
        slope = np.where(np.isnan(y), np.nan, 0.0)
        slope[finite] = -(y[finite] - mean) / (std * std) * ref.pdf(y[finite])
        expected = [
            (dist.pdf, y, ref.pdf(y)),
            (dist.cdf, y, ref.cdf(y)),
            (lambda v: dist.cdf_link(v)[2], y, slope),
            (dist.inv_cdf, u, ref.ppf(np.clip(u, 1e-9, 1.0 - 1e-9))),
        ]
        for f, x, want in expected:
            assert np.array_equal(f(x), want, equal_nan=True)
            for i in (0, -4, -3, -1):
                got = f(x[i])
                assert isinstance(got, float)
                assert np.array_equal(got, want[i], equal_nan=True)


class TestUniform:
    def test_cdf_linear(self):
        assert uniform_distribution(0.0, 1.0).cdf(0.3) == pytest.approx(0.3, abs=1e-12)

    def test_inv_cdf_midpoint(self):
        assert uniform_distribution(0.0, 2.0).inv_cdf(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_pdf_indicator(self):
        dist = uniform_distribution(0.0, 1.0)
        assert dist.pdf(0.4) == pytest.approx(1.0, abs=1e-12)
        assert dist.pdf(-0.1) == 0.0
        assert dist.pdf(1.1) == 0.0

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ParameterError):
            uniform_distribution(1.0, 1.0)

    @pytest.mark.parametrize(
        "a,b", [(0.0, 1.0), (-1.0, 3.0), (2.0, 3.0), (0.0, 3.0), (-0.7, 2.3), (1e-3, 7.1)]
    )
    def test_closed_forms(self, a, b):
        """The piecewise-linear marginal through (a, 0) and (b, 1) gives the
        closed-form quantile bit for bit.  np.interp multiplies by the
        rounded slope 1/(b - a) where the closed-form cdf divides by b - a,
        so the cdf is bit for bit only when b - a is a power of two, and
        within one ulp otherwise."""
        dist = uniform_distribution(a, b)
        rng = np.random.default_rng(17)
        u = rng.uniform(0.0, 1.0, 100_000)
        assert np.array_equal(dist.inv_cdf(u), a + u * (b - a))
        y = np.concatenate((rng.uniform(a - 1.0, b + 1.0, 100_000), [a, b]))
        closed = np.clip((y - a) / (b - a), 0.0, 1.0)
        if math.frexp(b - a)[0] == 0.5:
            assert np.array_equal(dist.cdf(y), closed)
        else:
            assert np.all(np.abs(dist.cdf(y) - closed) <= np.spacing(closed))
        inside = (y >= a) & (y < b)
        assert np.array_equal(dist.pdf(y), np.where(inside, 1.0 / (b - a), 0.0))
        assert dist.pdf(b) == 0.0 and dist.pdf(a) == 1.0 / (b - a)


class TestKde:
    def test_single_point_kernel_value(self):
        model = KdeModel(sample_points=np.array([0.0]), bandwidth=1.0)
        dist = kde_distribution(model)
        assert dist.pdf(0.0) == pytest.approx(INV_SQRT_2PI, abs=1e-6)

    def test_pdf_integrates_to_one(self):
        rng = np.random.default_rng(5)
        model = fit_kde(rng.normal(2.0, 0.7, 120))
        dist = kde_distribution(model)
        lo = model.sample_points.min() - 5 * model.bandwidth
        hi = model.sample_points.max() + 5 * model.bandwidth
        grid = np.linspace(lo, hi, 4001)
        integral = np.trapezoid(dist.pdf(grid), grid)
        assert 0.999 <= integral <= 1.001

    def test_symmetric_sample_has_median_zero(self):
        model = KdeModel(sample_points=np.array([-1.0, 1.0]), bandwidth=0.8)
        assert kde_distribution(model).cdf(0.0) == pytest.approx(0.5, abs=1e-9)

    def test_identical_points_collapse_to_one_kernel(self):
        model = KdeModel(sample_points=np.zeros(3), bandwidth=1.0)
        dist = kde_distribution(model)
        ref = gaussian_distribution(0.0, 1.0)
        for y in (-1.5, -0.3, 0.0, 0.7, 2.1):
            assert dist.cdf(y) == pytest.approx(ref.cdf(y), abs=1e-9)

    def test_requires_five_points(self):
        with pytest.raises(ParameterError):
            fit_kde(np.array([1.0, 2.0, 3.0, 4.0]))

    def test_rejects_bad_bandwidth_grid(self):
        targets = np.arange(10.0)
        with pytest.raises(ParameterError):
            fit_kde(targets, bandwidth_grid=np.array([0.5, -1.0]))
        with pytest.raises(ParameterError):
            fit_kde(targets, bandwidth_grid=np.array([]))

    def test_cv_picks_reasonable_bandwidth(self):
        rng = np.random.default_rng(9)
        model = fit_kde(rng.normal(0.0, 1.0, 400))
        # Silverman's rule is ~0.32 at n=400; CV should land within its grid
        # and in the same order of magnitude.
        assert 0.03 < model.bandwidth < 3.2

    def test_inv_cdf_outside_unit_interval_rejected(self):
        dist = kde_distribution(KdeModel(np.array([0.0, 1.0]), bandwidth=0.5))
        for u in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                dist.inv_cdf(u)


def reference_cv_scores(v, grid):
    """Per-pair logsumexp CV log-likelihood, one bandwidth and fold at a time."""
    fold_of = np.arange(v.size) % 5
    scores = np.empty(grid.size)
    for k, h in enumerate(grid):
        total = 0.0
        for f in range(5):
            train, val = v[fold_of != f], v[fold_of == f]
            z = (val[:, None] - train[None, :]) / h
            log_pdf = logsumexp(-0.5 * z * z, axis=1) - np.log(train.size * h / INV_SQRT_2PI)
            total += float(np.sum(log_pdf))
        scores[k] = total
    return scores


def reference_cdf(model, y):
    """Full-sum kernel cdf, one query at a time."""
    pts, h = model.sample_points, model.bandwidth
    return np.array([ndtr((q - pts) / h).mean() for q in np.ravel(y)]).reshape(np.shape(y))


def reference_inv_cdf(model, u):
    """60 halvings of the support window on reference_cdf(mid) < u."""
    pts, h = model.sample_points, model.bandwidth
    a = np.full(u.shape, pts[0] - 5.0 * h)
    b = np.full(u.shape, pts[-1] + 5.0 * h)
    for _ in range(60):
        mid = 0.5 * (a + b)
        too_low = reference_cdf(model, mid) < u
        a = np.where(too_low, mid, a)
        b = np.where(too_low, b, mid)
    return 0.5 * (a + b)


def _lognormal_tail_model():
    return fit_kde(np.random.default_rng(8).lognormal(0.0, 1.0, 1000))


def _bandwidth_gate_cases():
    rng = np.random.default_rng(2024)
    normal = rng.normal(0.0, 1.0, 400)
    bimodal = np.concatenate([rng.normal(-2.0, 0.5, 400), rng.normal(3.0, 1.0, 400)])
    lognormal = rng.lognormal(0.0, 1.0, 1200)
    # about 60 distinct values: most validation rows have d_min = 0
    repeated = np.round(rng.normal(0.0, 1.0, 500), 1)
    return [
        ("normal", normal, None),
        ("bimodal", bimodal, None),
        ("lognormal", lognormal, None),
        ("explicit_grid", rng.normal(0.0, 2.0, 300), np.array([0.03, 0.1, 0.3, 0.6, 1.0, 3.0])),
        ("repeated_values", repeated, None),
        # the point at 30 is ~27 from its nearest neighbour: a d_min > 700
        # for the small bandwidths, where only the shifted sum is finite
        ("isolated_point", np.append(rng.normal(0.0, 1.0, 300), 30.0), np.geomspace(0.02, 2.0, 8)),
        # a point 0.745 beyond the largest: a d_min ~ 694 at h = 0.02, within
        # e^6 of the exponent floor, so only the shifted sum is exact there
        ("near_floor", _past_the_max(rng.normal(0.0, 1.0, 300), 0.745), np.geomspace(0.02, 2.0, 8)),
    ]


def _past_the_max(values, gap):
    return np.append(values, values.max() + gap)


class TestKdeExactness:
    """The exact-KDE gates.  CV scores must match a per-pair logsumexp,
    including the floored exponents and the rows rescored above
    a d_min = 600.  The inverse cdf must match bisection, and the cdf the
    full sum.
    Repeated quantiles and the query block size must move no float."""

    @pytest.mark.parametrize(
        "name,values,grid", _bandwidth_gate_cases(), ids=lambda p: p if isinstance(p, str) else ""
    )
    def test_cv_scores_match_reference(self, name, values, grid):
        v = np.sort(values)
        if grid is None:
            h0 = silverman_bandwidth(v)
            grid = np.geomspace(h0 / 10.0, h0 * 10.0, 20)
        ref = reference_cv_scores(v, grid)
        got = _cv_scores(v, grid)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0.0)
        model = fit_kde(values, bandwidth_grid=grid)
        assert model.bandwidth == grid[int(np.argmax(ref))]

    @pytest.mark.parametrize(
        "name,model",
        [
            ("single_point", KdeModel(np.array([0.0]), bandwidth=1.0)),
            ("three_zeros", KdeModel(np.zeros(3), bandwidth=1.0)),
            # the pdf is ~1e-136 mid-gap and F sits at exactly 0.5 across it,
            # so the median needs the bisection fallback
            ("gap_50_bandwidths", KdeModel(np.array([0.0, 50.0]), bandwidth=1.0)),
            ("lognormal_tail", _lognormal_tail_model()),
        ],
        ids=lambda p: p if isinstance(p, str) else "",
    )
    def test_inv_cdf_matches_reference_bisection(self, name, model):
        dist = kde_distribution(model)
        u = np.array([1e-9, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-9])
        got = dist.inv_cdf(u)
        np.testing.assert_allclose(got, reference_inv_cdf(model, u), rtol=0.0, atol=1e-8)

        lo, hi = kde_window(model)
        dense = np.concatenate(([1e-9, 1e-6], np.linspace(0.001, 0.999, 999), [1 - 1e-6, 1 - 1e-9]))
        q = dist.inv_cdf(dense)
        assert np.all(np.diff(q) >= 0.0)
        assert np.all((q >= lo) & (q <= hi))
        scalar = dist.inv_cdf(0.25)
        assert isinstance(scalar, float)
        assert scalar == dist.inv_cdf(np.array([0.25]))[0]

    def test_isolated_point_needs_the_shifted_sum(self):
        (_, values, grid), = [c for c in _bandwidth_gate_cases() if c[0] == "isolated_point"]
        v = np.sort(values)
        fold_of = np.arange(v.size) % 5
        d_min = np.array([np.min((x - v[fold_of != f]) ** 2) for x, f in zip(v, fold_of)])
        assert np.max(0.5 / grid[0] ** 2 * d_min) > 700.0

    def test_rows_between_600_and_700_are_rescored(self):
        # rescored since the threshold fell from 700 to 600; with the old
        # threshold the floored terms would dominate these rows' sums
        (_, values, grid), = [c for c in _bandwidth_gate_cases() if c[0] == "near_floor"]
        v = np.sort(values)
        fold_of = np.arange(v.size) % 5
        d_min = np.array([np.min((x - v[fold_of != f]) ** 2) for x, f in zip(v, fold_of)])
        scaled = 0.5 / grid[0] ** 2 * d_min
        assert np.any((scaled > 600.0) & (scaled <= 700.0))

    def test_tied_scores_prefer_the_smallest_bandwidth(self, monkeypatch):
        # the bounds tie too, so every bandwidth reaches the exact pass, and
        # there the exact scores tie
        scored = []

        def tied_scores(v, grid):
            scored.append(grid)
            return np.zeros(grid.size)

        monkeypatch.setattr(uncoupled.distributions, "_cv_scores", tied_scores)
        monkeypatch.setattr(
            uncoupled.distributions, "_cv_bounds", lambda v, grid: (np.zeros(grid.size),) * 2
        )
        model = fit_kde(np.arange(10.0), bandwidth_grid=np.array([3.0, 1.0, 0.3, 0.1]))
        assert model.bandwidth == 0.1
        assert len(scored) == 1
        np.testing.assert_array_equal(scored[0], [0.1, 0.3, 1.0, 3.0])

    def test_ndtr_saturates_from_8_3(self):
        assert np.all(ndtr(np.linspace(8.3, 40.0, 10**6)) == 1.0)

    @pytest.mark.parametrize(
        "name,model",
        [
            ("lognormal_tail", _lognormal_tail_model()),
            ("repeated_values", fit_kde(np.round(np.random.default_rng(4).normal(0.0, 1.0, 500), 1))),
            ("two_points", KdeModel(np.array([0.0, 50.0]), bandwidth=1.0)),
        ],
        ids=lambda p: p if isinstance(p, str) else "",
    )
    def test_cdf_matches_full_sum(self, name, model):
        dist = kde_distribution(model)
        pts, h = model.sample_points, model.bandwidth
        # each query sits just either side of where some point saturates
        edge = pts + 8.2924 * h
        y = np.concatenate((edge + 1e-12, edge - 1e-12, np.repeat(pts[::5], 3)))
        y = np.random.default_rng(0).permutation(y)
        np.testing.assert_allclose(dist.cdf(y), reference_cdf(model, y), rtol=0.0, atol=1e-15)
        scalar = dist.cdf(float(pts[len(pts) // 2]))
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(float(reference_cdf(model, pts[len(pts) // 2])), abs=1e-15)

        lo, hi = kde_window(model)
        grid = np.linspace(lo - 10.0 * h, hi + 10.0 * h, 20_001)
        values = dist.cdf(grid)
        assert np.all(np.diff(values) >= 0.0)
        # the same float whichever batch or block a query lands in
        np.testing.assert_array_equal(dist.cdf(grid[::-1])[::-1], values)
        for i in range(0, grid.size, 997):
            assert dist.cdf(grid[i : i + 1])[0] == values[i]
            assert dist.cdf(grid[i]) == values[i]
        np.testing.assert_array_equal(dist.cdf(y), dist.cdf(y[::-1])[::-1])

    def test_newton_phase_needs_few_cdf_evaluations(self, monkeypatch):
        dist = kde_distribution(_lognormal_tail_model())
        dist.inv_cdf(0.5)  # builds the node table
        rows = []

        def counting_ndtr(z):
            rows.append(z.shape[0])
            return ndtr(z)

        monkeypatch.setattr(uncoupled.distributions, "ndtr", counting_ndtr)
        dist.inv_cdf(np.linspace(0.001, 0.999, 999))
        assert sum(rows) / 999 <= 2.0


    def test_repeated_quantiles_give_the_scalar_floats(self, monkeypatch):
        dist = kde_distribution(_lognormal_tail_model())
        n_u = 1000
        # the rank read-out's levels k/n_U, each asked for several times, and
        # table nodes' own levels, unsorted
        levels = np.arange(1, n_u) / n_u
        rng = np.random.default_rng(9)
        u = rng.permutation(np.concatenate((rng.choice(levels, 600), levels[::50], [0.5] * 5)))
        assert np.unique(u).size < u.size
        got = dist.inv_cdf(u)
        np.testing.assert_array_equal(got, [dist.inv_cdf(float(q)) for q in u])
        np.testing.assert_array_equal(dist.inv_cdf(u.reshape(-1, 5)), got.reshape(-1, 5))

        rows = []

        def counting_ndtr(z):
            rows.append(z.shape[0])
            return ndtr(z)

        monkeypatch.setattr(uncoupled.distributions, "ndtr", counting_ndtr)
        dist.inv_cdf(np.unique(u))
        distinct_rows = sum(rows)
        rows.clear()
        dist.inv_cdf(u)
        assert sum(rows) == distinct_rows > 0

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_query_block_moves_no_float(self, monkeypatch, block):
        model = _lognormal_tail_model()
        lo, hi = kde_window(model)
        y = np.random.default_rng(12).uniform(lo, hi, 333)
        u = np.random.default_rng(13).uniform(0.0, 1.0, 333)
        default = kde_distribution(model)
        monkeypatch.setattr(uncoupled.distributions, "_QUERY_BLOCK", block)
        other = kde_distribution(model)
        for name in ("cdf", "pdf", "cdf_link", "inv_cdf"):
            arg = u if name == "inv_cdf" else y
            np.testing.assert_array_equal(getattr(other, name)(arg), getattr(default, name)(arg))


def _default_grid(v):
    h0 = silverman_bandwidth(v)
    return np.geomspace(h0 / 10.0, h0 * 10.0, 20)


def _screen_cases():
    """The gate samples, a 1600-point log-normal with a long tail, and one
    shaped like the benchmark's train targets (log-normal, sigma 0.36), each
    sorted, with its grid."""
    rng = np.random.default_rng(1600)
    samples = [(name, values, grid) for name, values, grid in _bandwidth_gate_cases()]
    samples.append(("lognormal_1600", rng.lognormal(0.0, 1.0, 1600), None))
    samples.append(("benchmark_like_1600", rng.lognormal(0.0, 0.36, 1600), None))
    cases = []
    for name, values, grid in samples:
        v = np.sort(values)
        cases.append((name, v, _default_grid(v) if grid is None else grid))
    return cases


_SCREEN_IDS = dict(ids=lambda p: p if isinstance(p, str) else "")
_TEN_POINTS = np.sort(np.random.default_rng(10).normal(0.0, 1.0, 10))


@st.composite
def kde_inverse_cases(draw):
    """A KDE with Silverman's bandwidth h on 5 to 400 points: normal, two
    clusters 50 h apart, rounded to 0.1 (duplicates), or with the largest
    point moved 1000 h out, where the inverse's node table is several
    bandwidths wide.  Sorted quantiles: both clamp ends, 1e-6, up to about
    30 of the levels k/n and 20 uniform draws."""
    n = draw(st.integers(5, 400))
    shape = draw(st.sampled_from(["normal", "gap_50", "duplicates", "isolated_1000"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = np.sort(rng.normal(0.0, 1.0, n))
    h = silverman_bandwidth(v)
    if shape == "gap_50":
        k = draw(st.integers(1, n - 1))
        v[k:] += v[k - 1] - v[k] + 50.0 * h
    elif shape == "duplicates":
        v = np.round(v, 1)
    elif shape == "isolated_1000":
        v[-1] = v[-2] + 1000.0 * h
    levels = np.arange(1, n) / n
    levels = levels[:: max(1, levels.size // 30)]
    u = np.concatenate(([1e-9, 1e-6, 1.0 - 1e-9], levels, rng.uniform(0.0, 1.0, 20)))
    return KdeModel(v, bandwidth=h), np.sort(u)


def _near_tie(v):
    """Two bandwidths 1e-9 apart at the optimum of v's default grid: their
    scores differ by far less than the bounds' slack."""
    grid = _default_grid(v)
    best = grid[int(np.argmax(_cv_scores(v, grid)))]
    return np.array([best, best * (1.0 + 1e-9)])


def _isolated_maximum(seed):
    """A benchmark-shaped sample whose largest point is moved 0.9 past the
    next: its tail count leaves the screen a second candidate."""
    v = np.sort(np.random.default_rng(seed).lognormal(0.0, 0.36, 1600))
    v[-1] = v[-2] + 0.9
    return v


class TestBandwidthScreen:
    """fit_kde bounds every grid bandwidth's CV score (`_cv_bounds`) and
    runs the exact `_cv_scores` only when two or more bandwidths' upper
    bounds reach the best lower bound, once, on those.  The bounds must
    hold for the floats that `_cv_scores` returns, with no tolerance added
    here: their rounding margin is their own.  `_cv_scores` must give a
    bandwidth the same float in any subset of the grid, or the exact pass
    could rank the candidates differently from the full grid."""

    @pytest.mark.parametrize("name,v,grid", _screen_cases(), **_SCREEN_IDS)
    def test_bounds_bracket_the_exact_scores(self, name, v, grid):
        lower, upper = _cv_bounds(v, grid)
        exact = _cv_scores(v, grid)
        assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
        assert np.all(lower <= exact)
        assert np.all(exact <= upper)

    @pytest.mark.parametrize("name,v,grid", _screen_cases(), **_SCREEN_IDS)
    def test_the_best_bandwidth_is_the_only_candidate(self, name, v, grid):
        lower, upper = _cv_bounds(v, grid)
        candidates = np.flatnonzero(upper >= lower.max())
        assert candidates.tolist() == [int(np.argmax(_cv_scores(v, grid)))]

    @pytest.mark.parametrize("name,v,grid", _screen_cases(), **_SCREEN_IDS)
    def test_any_subset_of_the_grid_gives_the_same_floats(self, name, v, grid):
        full = _cv_scores(v, grid)
        rng = np.random.default_rng(v.size)
        for size in (1, 2, 3, grid.size // 2):
            subset = np.sort(rng.choice(grid.size, size, replace=False))
            np.testing.assert_array_equal(_cv_scores(v, grid[subset]), full[subset])

    @pytest.mark.parametrize(
        "name,v,grid,n_candidates",
        [("ten_points", _TEN_POINTS, _default_grid(_TEN_POINTS), 1)]
        + [c + (1,) for c in _screen_cases() if c[0] in ("isolated_point", "lognormal_1600")]
        + [c[:2] + (_near_tie(c[1]), 2) for c in _screen_cases() if c[0] == "benchmark_like_1600"],
        **_SCREEN_IDS,
    )
    def test_exact_pass_runs_once_only_on_two_or_more_candidates(
        self, monkeypatch, name, v, grid, n_candidates
    ):
        # fit_kde builds the default grid itself
        given = None if np.array_equal(grid, _default_grid(v)) else grid
        lower, upper = _cv_bounds(v, grid)
        candidates = grid[upper >= lower.max()]
        assert candidates.size == n_candidates
        best = grid[int(np.argmax(_cv_scores(v, grid)))]
        scored = []

        def recording_scores(v, grid):
            scored.append(grid)
            return _cv_scores(v, grid)

        monkeypatch.setattr(uncoupled.distributions, "_cv_scores", recording_scores)
        model = fit_kde(np.random.default_rng(3).permutation(v), given)
        if n_candidates == 1:
            assert scored == []
        else:
            assert len(scored) == 1
            np.testing.assert_array_equal(scored[0], candidates)
        assert model.bandwidth == best

    def test_a_near_tie_goes_to_the_exact_pass(self):
        # their scores differ by far less than the bounds' slack, so neither
        # may be ruled out
        (_, v, _), = [c for c in _screen_cases() if c[0] == "benchmark_like_1600"]
        pair = _near_tie(v)
        lower, upper = _cv_bounds(v, pair)
        exact = _cv_scores(v, pair)
        assert abs(exact[1] - exact[0]) < 1e-6
        assert np.all(upper >= lower.max())
        assert fit_kde(v, bandwidth_grid=pair).bandwidth == pair[int(np.argmax(exact))]

    @pytest.mark.parametrize("seed", range(5))
    def test_rescue_rescores_only_the_candidates(self, monkeypatch, seed):
        v = _isolated_maximum(seed)
        grid = _default_grid(v)
        exact = _cv_scores(v, grid)
        log_lo, log_up, dominated = _screen_cells(v, grid)
        lower, upper = _bound_sums(log_lo, log_up, grid)
        before = np.flatnonzero(upper >= lower.max())
        assert before.size == 2
        rescored = []

        def recording_sums(val, train, a, d_min):
            rescored.append(a)
            return _shifted_log_sums(val, train, a, d_min)

        monkeypatch.setattr(uncoupled.distributions, "_shifted_log_sums", recording_sums)
        lower, upper = _cv_bounds(v, grid)
        assert np.all(lower <= exact) and np.all(exact <= upper)
        assert np.flatnonzero(upper >= lower.max()).tolist() == [int(np.argmax(exact))]
        assert rescored
        touched = np.concatenate(rescored)
        assert np.all(np.isin(touched, 0.5 / grid[before] ** 2))
        assert np.all(np.isin(touched, 0.5 / grid[dominated.any(axis=1)] ** 2))

    @given(kde_inverse_cases())
    def test_bounds_and_choice_on_any_sample(self, case):
        # the samples of kde_inverse_cases, on their default grid
        v = case[0].sample_points
        assume(v[-1] > v[0])
        grid = _default_grid(v)
        lower, upper = _cv_bounds(v, grid)
        exact = _cv_scores(v, grid)
        assert np.all(lower <= exact) and np.all(exact <= upper)
        assert fit_kde(v).bandwidth == grid[int(np.argmax(exact))]

    @pytest.mark.parametrize("name,v,grid", _screen_cases(), **_SCREEN_IDS)
    def test_nearest_gaps_are_the_smallest_distances_to_the_other_folds(self, name, v, grid):
        # the squared gap must be, bit for bit, the smallest float the exact
        # pass's fold-pair blocks produce, which `_cv_scores` reads it as
        fold_of = np.arange(v.size) % 5
        brute = np.array([np.min((x - v[fold_of != f]) ** 2) for x, f in zip(v, fold_of)])
        np.testing.assert_array_equal(_nearest_gaps(v) ** 2, brute)

    def test_table_expands_the_kernel_within_cramers_remainder(self):
        P, B = _SCREEN_TERMS, _SCREEN_BAND
        table, _ = _screen_table()
        table = table.reshape(2 * B + 1, P, P + 1)
        rng = np.random.default_rng(5)
        o, s = rng.uniform(-0.5, 0.5, (2, 4000))
        o[:2], s[:2] = [0.5, -0.5], [-0.5, 0.5]
        worst = 0.0
        for j in range(-B, B + 1):
            poly = np.einsum("iq,ir,qr->i", s[:, None] ** np.arange(P), o[:, None] ** np.arange(P),
                             table[j + B, :, :P])
            remainder = table[j + B, 0, P] * (np.abs(o) + 0.5) ** P
            miss = np.abs(poly - np.exp(-0.5 * (j + o - s) ** 2))
            # 1e-15 for this test's own sums of terms below 1
            assert np.all(miss <= remainder + 1e-15)
            worst = max(worst, float(miss.max()))
        # the truncation is not negligible: the remainder bound is needed
        assert worst > 1e-7
        # each remainder weight bounds |G^(P)(x)| / P! = |He_P(x)| e^(-x^2/2) / P!
        # wherever j + o - s can be, |x| >= |j| - 1; and Cramér's inequality
        # holds at P as the table uses it
        x = np.linspace(-40.0, 40.0, 400_001)
        he_prev, he = np.ones_like(x), x.copy()
        for m in range(1, P):
            he_prev, he = he, x * he - m * he_prev
        derivative = np.abs(he) * np.exp(-0.5 * x * x) / math.factorial(P)
        for j in range(-B, B + 1):
            assert np.max(derivative[np.abs(x) >= abs(j) - 1]) <= table[j + B, 0, P]
        peak = np.max(np.abs(he) * np.exp(-0.25 * x * x)) / math.sqrt(math.factorial(P))
        assert peak <= _CRAMER * math.sqrt(2.0 * math.pi)


class TestKdeTaylorInverse:
    """The inverse cdf's certified Taylor steps: no kernel pass for a
    quantile they certify, and the results of the kernel-pass loop to its
    tolerance on any sample."""

    def test_certified_quantiles_need_no_kernel_pass(self, monkeypatch):
        dist = kde_distribution(_lognormal_tail_model())
        u = np.linspace(0.001, 0.999, 999)
        x = dist.inv_cdf(u)  # builds the node table
        # 0.998 falls 2.4 past 16.56, in a 7-wide gap where the pdf is 1.5e-15
        # and the root is set only to about 0.07 by any cdf in doubles; 0.999
        # has a pdf of 3.7e-5, too small for the remainder there.  These two
        # take the kernel-pass loop.
        conditioned = u < 0.9975
        assert np.all(dist.pdf(x[~conditioned]) < 1e-4)
        rows = []

        def counting_ndtr(z):
            rows.append(z.shape[0])
            return ndtr(z)

        monkeypatch.setattr(uncoupled.distributions, "ndtr", counting_ndtr)
        np.testing.assert_array_equal(dist.inv_cdf(u[conditioned]), x[conditioned])
        assert rows == []

    @pytest.mark.parametrize("gap", [150.0, 200.0, 300.0, 400.0])
    def test_certified_roots_within_1e_10_of_the_closed_form(self, gap):
        # below the median of two points `gap` bandwidths apart the cdf is
        # Phi(y) / 2, so the root is ndtri(2u).  The node spacing, 0.6 to 1.6
        # bandwidths, puts many queries where the remainder decides.
        dist = kde_distribution(KdeModel(np.array([0.0, gap]), bandwidth=1.0))
        u = np.linspace(1e-6, 0.49, 40_001)
        np.testing.assert_allclose(dist.inv_cdf(u), ndtri(2.0 * u), rtol=0.0, atol=1e-10)

    @given(kde_inverse_cases())
    def test_matches_reference_on_any_sample(self, case):
        model, u = case
        dist = kde_distribution(model)
        x = dist.inv_cdf(u)
        assert np.all(np.diff(x) >= 0.0)
        ref = reference_inv_cdf(model, u)
        # where the pdf is below 1e-6 a cdf rounding error of 1e-14 alone
        # moves the root by 1e-8: on a level k/n in a gap it moves it by 0.02
        conditioned = dist.pdf(ref) >= 1e-6
        np.testing.assert_allclose(x[conditioned], ref[conditioned], rtol=0.0, atol=1e-8)
        lo, hi = kde_window(model)
        inside = (x > lo) & (x < hi)
        miss = np.abs(dist.cdf(x[inside]) - u[inside])
        assert np.all(miss <= 1e-9 * dist.pdf(x[inside]) + 1e-14)

    def test_hermite_sums_stay_within_the_rounding_bound(self):
        # the certificate charges each moment 3 u times Cramér's bound
        # 1.0865 sqrt(r!) for the exp and the recurrence; one point per row,
        # so each row's sums are its terms
        if np.finfo(np.longdouble).nmant <= np.finfo(float).nmant:
            pytest.skip("needs an extended-precision long double")
        z = np.linspace(-40.0, 40.0, 80_001).reshape(-1, 1)
        e = np.exp(-0.5 * z * z)
        got = _hermite_sums(z, e, _TAYLOR_TERMS, np.empty((2, *e.shape)))
        zl = z.ravel().astype(np.longdouble)
        prev, cur = np.exp(-0.5 * zl * zl), zl * np.exp(-0.5 * zl * zl)
        ref = [prev, cur]
        for r in range(1, _TAYLOR_TERMS - 1):
            prev, cur = cur, zl * cur - r * prev
            ref.append(cur)
        for r in range(_TAYLOR_TERMS):
            scale = _CRAMER * math.sqrt(2.0 * math.pi * math.factorial(r))
            err = np.abs(got[:, r] - ref[r]).astype(float)
            assert err.max() <= 3.0 * _UNIT_ROUNDOFF * scale


class TestKdeOnePass:
    """One cdf_link call runs the ndtr rows of one cdf call and gives the
    plain kernel sums."""

    def test_one_pass_serves_cdf_pdf_and_pdf_prime(self, monkeypatch):
        model = _lognormal_tail_model()
        pts, h = model.sample_points, model.bandwidth
        dist = kde_distribution(model)
        rows = []

        def counting_ndtr(z):
            rows.append(z.shape[0])
            return ndtr(z)

        monkeypatch.setattr(uncoupled.distributions, "ndtr", counting_ndtr)
        lo, hi = kde_window(model)
        y = np.random.default_rng(5).uniform(lo, hi, 300)
        cdf, pdf, slope = dist.cdf_link(y)
        via_link = list(rows)
        rows.clear()
        np.testing.assert_array_equal(dist.cdf(y), cdf)
        assert rows == via_link and sum(rows) == y.size

        # the same floats as the plain kernel sums
        z = (y[:, None] - pts[None, :]) / h
        norm = pts.size * h * np.sqrt(2.0 * np.pi)
        np.testing.assert_array_equal(pdf, np.exp(-0.5 * z * z).sum(axis=1) / norm)
        np.testing.assert_array_equal(slope, -(z * np.exp(-0.5 * z * z)).sum(axis=1) / (norm * h))
        np.testing.assert_allclose(cdf, reference_cdf(model, y), rtol=0.0, atol=1e-15)

        # a query of the same shape but other values gets its own values
        scores = np.random.default_rng(6).normal(2.0, 2.0, 300)
        np.testing.assert_allclose(
            dist.cdf_link(scores)[0], reference_cdf(model, scores), rtol=0.0, atol=1e-15
        )


class TestEmpiricalCdf:
    def test_interpolated_variant_tracks_steps(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0.0, 2.0, 500)
        dist = empirical_distribution(values)
        grid = np.linspace(values.min(), values.max(), 200)
        # right-continuous step ECDF: fraction of values <= each grid point
        steps = np.searchsorted(np.sort(values), grid, side="right") / values.size
        gap = np.abs(dist.cdf(grid) - steps)
        assert gap.max() <= 1.0 / np.sqrt(500) + 1.0 / 500


class TestDistributionContract:
    @pytest.mark.parametrize("name,dist", all_distributions(), ids=lambda p: p if isinstance(p, str) else "")
    def test_cdf_monotone_and_bounded(self, name, dist):
        lo, hi = WINDOWS[name]
        grid = np.linspace(lo, hi, 10_000)
        values = dist.cdf(grid)
        assert np.all(np.diff(values) >= -1e-12)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    @pytest.mark.parametrize("name,dist", all_distributions(), ids=lambda p: p if isinstance(p, str) else "")
    def test_pdf_nonnegative(self, name, dist):
        lo, hi = WINDOWS[name]
        grid = np.linspace(lo, hi, 2000)
        assert np.all(dist.pdf(grid) >= 0.0)

    @pytest.mark.parametrize("name,dist", all_distributions(), ids=lambda p: p if isinstance(p, str) else "")
    def test_pdf_prime_is_the_pdf_derivative(self, name, dist):
        lo, hi = WINDOWS[name]
        grid = np.linspace(lo, hi, 501)[1:-1]
        slope = dist.cdf_link(grid)[2]
        if name.startswith("uniform") or name == "empirical":
            # a piecewise-linear cdf: pdf is flat wherever pdf' exists
            assert np.all(slope == 0.0)
            assert dist.cdf_link(0.5 * (lo + hi))[2] == 0.0
            return
        step = 1e-6 * (hi - lo)
        fd = (dist.pdf(grid + step) - dist.pdf(grid - step)) / (2.0 * step)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(slope - fd)) / scale < 1e-6
        y = float(grid[200])
        assert dist.cdf_link(y)[2] == pytest.approx(float(slope[200]), rel=1e-12)

    @pytest.mark.parametrize("name,dist", all_distributions(), ids=lambda p: p if isinstance(p, str) else "")
    def test_cdf_link_gives_the_cdf_and_pdf_floats(self, name, dist):
        lo, hi = WINDOWS[name]
        y = np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 1200).reshape(3, -1)
        link = dist.cdf_link(y)
        assert isinstance(link, tuple) and len(link) == 3
        assert all(v.shape == y.shape for v in link)
        np.testing.assert_array_equal(link[0], dist.cdf(y))
        np.testing.assert_array_equal(link[1], dist.pdf(y))

    @pytest.mark.parametrize("name,dist", all_distributions(), ids=lambda p: p if isinstance(p, str) else "")
    def test_scalar_cdf_link_is_a_tuple_of_three_floats(self, name, dist):
        lo, hi = WINDOWS[name]
        y = 0.3 * lo + 0.7 * hi
        link = dist.cdf_link(y)
        assert isinstance(link, tuple) and len(link) == 3
        assert all(isinstance(v, float) for v in link)
        assert link[:2] == (dist.cdf(y), dist.pdf(y))
        assert link == tuple(float(v[0]) for v in dist.cdf_link(np.array([y])))

    @pytest.mark.parametrize("name,dist", all_distributions(), ids=lambda p: p if isinstance(p, str) else "")
    def test_quantile_of_cdf_identity(self, name, dist):
        lo, hi = WINDOWS[name]
        width = hi - lo
        ys = np.linspace(lo + 0.05 * width, hi - 0.05 * width, 25)
        for y in ys:
            u = float(dist.cdf(y))
            if 1e-6 < u < 1.0 - 1e-6:
                assert dist.inv_cdf(u) == pytest.approx(y, abs=2e-6 * max(1.0, width))

    @pytest.mark.parametrize("name,dist", all_distributions(), ids=lambda p: p if isinstance(p, str) else "")
    def test_cdf_of_quantile_identity(self, name, dist):
        for u in np.linspace(0.001, 0.999, 21):
            assert dist.cdf(dist.inv_cdf(u)) == pytest.approx(u, abs=1e-6)



def raw_logistic():
    """The standard logistic marginal's fields as bare vectorized callables,
    each giving a 0-d array for a 0-d query."""

    def cdf(y):
        return np.array(1.0 / (1.0 + np.exp(-y)))

    def pdf(y):
        c = cdf(y)
        return c * (1.0 - c)

    def link(y):
        c = cdf(y)
        return c, c * (1.0 - c), c * (1.0 - c) * (1.0 - 2.0 * c)

    def inv(u):
        return np.array(np.log(u / (1.0 - u)))

    return {"pdf": pdf, "cdf": cdf, "inv_cdf": inv, "cdf_link": link}


class TestTypeContract:
    """TargetDistribution applies the call contract to every marginal, one a
    caller builds from bare callables included, and the contract survives
    dataclasses.replace (the benchmark tracer rebuilds marginals with it)."""

    def test_scalar_query_gives_floats(self):
        dist = TargetDistribution(**raw_logistic())
        for f in (dist.pdf, dist.cdf, dist.inv_cdf):
            assert isinstance(f(0.25), float)
        link = dist.cdf_link(0.25)
        assert isinstance(link, tuple) and all(isinstance(v, float) for v in link)
        y = np.array([-1.0, 0.25, 2.0])
        assert dist.cdf(0.25) == dist.cdf(y)[1]
        assert link == tuple(float(v[1]) for v in dist.cdf_link(y))

    def test_inv_cdf_rejects_outside_quantiles_and_clamps_the_rest(self):
        dist = TargetDistribution(**raw_logistic())
        for bad in (0.0, 1.0, -0.2, np.nan):
            with pytest.raises(DomainError):
                dist.inv_cdf(bad)
            with pytest.raises(DomainError):
                dist.inv_cdf(np.array([0.5, bad]))
        assert dist.inv_cdf(1e-12) == dist.inv_cdf(1e-9)
        assert dist.inv_cdf(1.0 - 1e-12) == dist.inv_cdf(1.0 - 1e-9)

    @pytest.mark.parametrize(
        "name,dist",
        [("gaussian", gaussian_distribution(0.0, 1.0)), ("kde", kde_distribution(_SAMPLE_KDE))],
        ids=lambda p: p if isinstance(p, str) else "",
    )
    def test_replaced_marginal_gives_the_same_floats(self, name, dist):
        fields = ("pdf", "cdf", "inv_cdf", "cdf_link")
        # pass-through wrappers, as the tracer's query counters are
        passed = {k: (lambda f: lambda v: f(v))(getattr(dist, k)) for k in fields}
        again = dataclasses.replace(dist, **passed)
        lo, hi = WINDOWS[name]
        y = np.linspace(lo, hi, 101)
        u = np.linspace(1e-12, 1.0 - 1e-12, 101)
        for k in fields:
            arg = u if k == "inv_cdf" else y
            old, new = getattr(dist, k), getattr(again, k)
            np.testing.assert_array_equal(new(arg), old(arg))
            for v in arg[[0, 37, 100]]:
                assert new(v) == old(v)
                assert type(new(v)) is type(old(v))


def raw_gaussian():
    """The standard Gaussian marginal from bare formulas.  Its pdf' -y pdf
    would give -inf * 0 = nan, with a RuntimeWarning, at +-inf."""

    def pdf(y):
        return np.exp(-y**2 / 2.0) / math.sqrt(2.0 * math.pi)

    return {
        "pdf": pdf,
        "cdf": ndtr,
        "inv_cdf": ndtri,
        "cdf_link": lambda y: (ndtr(y), pdf(y), -y * pdf(y)),
    }


class TestNonFiniteQueries:
    """Every marginal gives its limits at +-inf and nan at nan, with no
    warning, one built from bare formulas included: TargetDistribution
    passes only the finite queries on.  The 200-point KDE pads its cdf's
    last 64-point chunk with +inf."""

    @pytest.mark.parametrize(
        "name,dist",
        all_distributions() + [("gaussian_formulas", TargetDistribution(**raw_gaussian()))],
        ids=lambda p: p if isinstance(p, str) else "",
    )
    def test_limits_at_infinity_and_nan_stays_nan(self, name, dist):
        lo, hi = WINDOWS[name]
        y = np.array([-np.inf, lo, 0.5 * (lo + hi), np.inf, np.nan, hi, 0.3 * lo + 0.7 * hi])
        finite_y = y[np.isfinite(y)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched = [dist.cdf(y), dist.pdf(y), *dist.cdf_link(y)]
            alone = [
                [dist.cdf(v) for v in y],
                [dist.pdf(v) for v in y],
                *zip(*(dist.cdf_link(v) for v in y)),
            ]
            finite_only = [dist.cdf(finite_y), dist.pdf(finite_y), *dist.cdf_link(finite_y)]
        cdf, pdf = [0.0, 1.0, np.nan], [0.0, 0.0, np.nan]
        limits = (cdf, pdf, cdf, pdf, [0.0, 0.0, np.nan])
        for values, scalars, finite, limit in zip(batched, alone, finite_only, limits):
            np.testing.assert_array_equal(values[[0, 3, 4]], limit)
            assert all(isinstance(v, float) for v in scalars)
            # each query gets the same float alone, in a batch with non-finite
            # queries, or among the finite ones only
            np.testing.assert_array_equal(values, scalars)
            np.testing.assert_array_equal(values[np.isfinite(y)], finite)
