import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import optimize, sparse
from scipy.special import ndtr

from uncoupled import (
    Dataset,
    DegenerateVarianceError,
    DomainError,
    LinearModel,
    NumericError,
    PairwiseSet,
    ParameterError,
    RaVariances,
    RiskConfig,
    ShapeError,
    SyntheticSpec,
    err_objective,
    err_objective_empirical,
    estimate_variances,
    fit_kde,
    gaussian_distribution,
    generate_synthetic,
    kde_distribution,
    optimal_lambda,
    pairwise_from_arrays,
    ra_empirical_risk,
    ra_fit,
    sample_pairwise_from_spec,
    solve_normal_equations,
    tune_weights,
    tune_weights_empirical,
    uniform_distribution,
)
import uncoupled.distributions
from uncoupled import risk_approx
from uncoupled.distributions import TargetDistribution
from uncoupled.optimize import minimize_gd
from uncoupled.risk_approx import _err, _lad_weights, identity_link, linked_risk
from uncoupled.target_transform import cdf_link, sigmoid_link

LINKS = {
    "identity": identity_link,
    "sigmoid": sigmoid_link,
    "cdf": cdf_link(gaussian_distribution(0.0, 1.0)),
}
# case ids name the loss, then the link; the identity link (the ra risk)
# carries the bare loss id
LINK_CASES = [
    pytest.param(link, id="squared" if link == "identity" else f"squared-{link}")
    for link in LINKS
]

UNIFORM_CASES = [(0.0, 1.0), (0.0, 2.0), (-1.0, 3.0)]


def uniform_coupling(n_u, n_r, seed, shift=0.0):
    """X ~ U(0,1) scalar features coupled exactly as Y = X + shift."""
    rng = np.random.default_rng(seed)
    xu = rng.random(n_u)
    x1, x2 = rng.random(n_r), rng.random(n_r)
    unlabeled = Dataset(features=xu[:, None])
    pairs = pairwise_from_arrays(x1[:, None], x1 + shift, x2[:, None], x2 + shift)
    return unlabeled, pairs


def with_ones(unlabeled, pairs):
    """unlabeled and pairs with a trailing constant-1 feature, the column an
    intercept reads."""
    X, W, L = (
        np.hstack([M, np.ones((M.shape[0], 1))])
        for M in (unlabeled.features, pairs.winners, pairs.losers)
    )
    return Dataset(features=X), PairwiseSet(W, L)


class TestErrObjective:
    @pytest.mark.parametrize("a,b", UNIFORM_CASES)
    def test_uniform_optimum_is_exact(self, a, b):
        assert err_objective(uniform_distribution(a, b), b / 2.0, a / 2.0) <= 1e-9

    def test_uniform_grid_value_at_origin(self):
        # residual is y = Q(u) = u itself; the midpoint rule on 1001 equal
        # cells of [0.01, 0.99] integrates a linear Q exactly, to 0.49
        val = err_objective(uniform_distribution(0.0, 1.0), 0.0, 0.0)
        assert val == pytest.approx(0.49, abs=1e-12)
        assert val == pytest.approx(0.49, abs=1e-3)  # the integral it discretizes

    def test_moving_off_optimum_increases_objective(self):
        dist = uniform_distribution(0.0, 1.0)
        base = err_objective(dist, 0.5, 0.0)
        assert err_objective(dist, 0.7, 0.0) > base
        assert err_objective(dist, 0.5, -0.2) > base

    def test_degenerate_quantile_range_rejected(self):
        # a point mass: every quantile is the same value
        point = TargetDistribution(
            pdf=np.zeros_like,
            pdf_prime=np.zeros_like,
            cdf=lambda y: np.where(np.asarray(y) >= 1.0, 1.0, 0.0),
            inv_cdf=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        )
        with pytest.raises(ParameterError):
            err_objective(point, 0.5, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_quantile_rejected(self, bad):
        normal = gaussian_distribution(0.0, 1.0)

        def inv_cdf(u):
            y = np.array(normal.inv_cdf(u))
            y[y.size // 2] = bad
            return y

        dist = TargetDistribution(normal.pdf, normal.pdf_prime, normal.cdf, inv_cdf)
        for call in (lambda: err_objective(dist, 0.5, 0.0), lambda: tune_weights(dist)):
            with pytest.raises(ParameterError, match="non-finite quantiles"):
                call()


class TestTuneWeights:
    @pytest.mark.parametrize("a,b", UNIFORM_CASES)
    def test_recovers_uniform_optimum(self, a, b):
        cfg = tune_weights(uniform_distribution(a, b))
        assert cfg.w1 == pytest.approx(b / 2.0, abs=1e-9)
        assert cfg.w2 == pytest.approx(a / 2.0, abs=1e-9)
        assert cfg.lam == pytest.approx(cfg.w1 + cfg.w2, abs=1e-12)

    def test_symmetric_gaussian_weights_are_antisymmetric(self):
        cfg = tune_weights(gaussian_distribution(0.0, 1.0))
        assert cfg.w2 == pytest.approx(-cfg.w1, abs=0.02)
        assert abs(cfg.lam) <= 0.02

    def test_gaussian_weight_matches_dense_scan(self):
        # independent 1-d oracle: scan the antisymmetric slice w2 = -w1
        dist = gaussian_distribution(0.0, 1.0)
        grid = np.linspace(0.6, 0.9, 601)
        values = [err_objective(dist, c, -c) for c in grid]
        best = grid[int(np.argmin(values))]
        cfg = tune_weights(dist)
        assert cfg.w1 == pytest.approx(best, abs=0.005)

    def test_deterministic(self):
        dist = gaussian_distribution(1.0, 2.0)
        a, b = tune_weights(dist), tune_weights(dist)
        assert (a.w1, a.w2, a.lam) == (b.w1, b.w2, b.lam)

    def test_reads_only_the_inverse_cdf(self):
        def refuse(y):
            raise AssertionError("the Err grid read pdf, pdf' or cdf")

        normal = gaussian_distribution(1.0, 2.0)
        blind = TargetDistribution(refuse, refuse, refuse, normal.inv_cdf)
        a, b = tune_weights(blind), tune_weights(normal)
        assert (a.w1, a.w2, a.lam) == (b.w1, b.w2, b.lam)
        assert err_objective(blind, 0.7, -0.7) == err_objective(normal, 0.7, -0.7)

    def test_kde_marginal_needs_no_kernel_pass_past_the_table(self, monkeypatch):
        # the first inv_cdf call builds the node table; every Err-grid
        # quantile of this marginal is then certified from it, so the tuner
        # runs no ndtr row (a quantile in a flat gap would fall back to the
        # kernel-pass loop, and none of these lies in one)
        dist = kde_distribution(fit_kde(LOGNORMAL_TARGETS))
        dist.inv_cdf(0.5)
        rows = []

        def counting_ndtr(z):
            rows.append(z.shape[0])
            return ndtr(z)

        monkeypatch.setattr(uncoupled.distributions, "ndtr", counting_ndtr)
        tune_weights(dist)
        assert rows == []

    def test_rank_read_out_levels_need_no_kernel_pass_past_the_table(self, monkeypatch):
        # every level the rank read-out can ask for at n_U = 1600 (its
        # clamped (n_U - n') / n_U, n' = 1 .. n_U + 1) and the levels k/1000
        # are certified from the node table alone, so the read-out runs no
        # ndtr row once the table exists
        dist = kde_distribution(fit_kde(LOGNORMAL_TARGETS))
        dist.inv_cdf(0.5)
        n = 1600
        read_out = np.clip((n - 1 - np.arange(n + 1)) / n, 1.0 / (n + 1), n / (n + 1.0))
        rows = []

        def counting_ndtr(z):
            rows.append(z.shape[0])
            return ndtr(z)

        monkeypatch.setattr(uncoupled.distributions, "ndtr", counting_ndtr)
        dist.inv_cdf(read_out)
        dist.inv_cdf(np.arange(1, 1000) / 1000)
        assert rows == []


class TestEmpiricalObjective:
    def test_two_point_sample_at_origin(self):
        assert err_objective_empirical(np.array([0.0, 1.0]), 0.0, 0.0) == pytest.approx(0.5)

    def test_constant_sample_zeroed_by_half_weight(self):
        targets = np.full(4, 3.0)
        # empirical cdf is 1 at the common value, so w1 = c/2 kills the residual
        assert err_objective_empirical(targets, 1.5, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        targets = rng.normal(0.0, 1.0, 300)
        shuffled = rng.permutation(targets)
        a = err_objective_empirical(targets, 0.4, -0.2)
        b = err_objective_empirical(shuffled, 0.4, -0.2)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("targets", [np.full(4, 3.0), np.array([0.0, 1.0])],
                             ids=["constant", "two-point"])
    def test_tuner_zeroes_err_on_degenerate_samples(self, targets):
        # on the constant sample F is 1 everywhere, so every slope is optimal
        cfg = tune_weights_empirical(targets)
        assert np.all(np.isfinite([cfg.w1, cfg.w2, cfg.lam]))
        assert err_objective_empirical(targets, cfg.w1, cfg.w2) <= 1e-12
        again = tune_weights_empirical(targets)
        assert (cfg.w1, cfg.w2, cfg.lam) == (again.w1, again.w2, again.lam)

    def test_tuner_recovers_uniform_weights_from_sample(self):
        rng = np.random.default_rng(8)
        cfg = tune_weights_empirical(rng.random(20_000))
        assert cfg.w1 == pytest.approx(0.5, abs=0.05)
        assert cfg.w2 == pytest.approx(0.0, abs=0.05)
        assert cfg.lam == pytest.approx(0.5, abs=0.05)


def quadrature_grid(dist):
    """The Err grid rebuilt from its definition: Q(u) at the midpoints u of
    1001 equal cells of [0.01, 0.99], F = u, weights 0.98 / 1001."""
    u = 0.01 + 0.98 * (np.arange(1001) + 0.5) / 1001
    return np.asarray(dist.inv_cdf(u)), u, np.full(1001, 0.98 / 1001)


def pdf_dy_grid(dist):
    """An oracle grid for the same integral in y: 1001 equally spaced nodes
    between the 1% and 99% quantiles, F = cdf(y), weights pdf * dy."""
    y = np.linspace(float(dist.inv_cdf(0.01)), float(dist.inv_cdf(0.99)), 1001)
    return y, np.asarray(dist.cdf(y)), np.asarray(dist.pdf(y)) * (y[1] - y[0])


def empirical_grid(targets):
    v = np.sort(targets)
    return v, np.searchsorted(v, v, side="right") / v.size, np.full(v.size, 1.0 / v.size)


def lp_weights(y, F, weight):
    """Weighted LAD of y on (1, F) as a linear program solved by HiGHS:
    y = c + s F + u - v with u, v >= 0, minimizing weight . (u + v)."""
    n = y.size
    design = sparse.csr_matrix(np.column_stack([np.ones(n), F]))
    a_eq = sparse.hstack([design, sparse.eye(n), -sparse.eye(n)])
    bounds = [(None, None)] * 2 + [(0.0, None)] * (2 * n)
    res = optimize.linprog(np.concatenate([[0.0, 0.0], weight, weight]),
                           A_eq=a_eq, b_eq=y, bounds=bounds, method="highs")
    assert res.success, res.message
    c, s = res.x[:2]
    return (c + s) / 2.0, c / 2.0


def nested_grid_weights(y, F, weight, y_lo, y_hi, rounds=3, points=51):
    """The former tuner: a 51 x 51 grid on [-bound, bound]^2, zoomed 5x
    around the incumbent for three rounds."""
    c1 = c2 = 0.0
    half = max(abs(y_lo), abs(y_hi), 1e-6)
    for _ in range(rounds):
        g1, g2 = np.meshgrid(np.linspace(c1 - half, c1 + half, points),
                             np.linspace(c2 - half, c2 + half, points), indexing="ij")
        g1, g2 = g1.ravel(), g2.ravel()
        resid = y - 2.0 * g1[:, None] * F - 2.0 * g2[:, None] * (1.0 - F)
        idx = int(np.argmin(np.abs(resid) @ weight))
        c1, c2, half = g1[idx], g2[idx], half / 5.0
    return c1, c2


LOGNORMAL_TARGETS = np.exp(0.35 * np.random.default_rng(11).standard_normal(1600))
GATE_CASES = {
    "uniform(0,1)": lambda: uniform_distribution(0.0, 1.0),
    "uniform(-1,3)": lambda: uniform_distribution(-1.0, 3.0),
    "normal(0,1.01)": lambda: gaussian_distribution(0.0, np.sqrt(1.01)),
    "kde-lognormal": lambda: kde_distribution(fit_kde(LOGNORMAL_TARGETS)),
    "empirical-lognormal": None,
}


class TestExactTuning:
    """tune_weights against a linear-programming optimum and against the
    nested grid search it replaced.  The LP agreement is relative to the
    larger of the LP optimum and Err(0, 0), because the uniform optimum is 0."""

    @pytest.mark.parametrize("case", list(GATE_CASES))
    def test_matches_lp_and_beats_grid(self, case):
        make = GATE_CASES[case]
        if make is None:
            t = LOGNORMAL_TARGETS
            grid = empirical_grid(t)
            y_lo, y_hi = np.quantile(t, [0.01, 0.99])
            err = lambda w1, w2: err_objective_empirical(t, w1, w2)
            cfg = tune_weights_empirical(t)
        else:
            dist = make()
            grid = quadrature_grid(dist)
            y_lo, y_hi = grid[0][0], grid[0][-1]
            err = lambda w1, w2: err_objective(dist, w1, w2)
            cfg = tune_weights(dist)
        new = err(cfg.w1, cfg.w2)
        lp = err(*lp_weights(*grid))
        assert abs(new - lp) <= 1e-10 * max(lp, err(0.0, 0.0))
        assert new <= err(*nested_grid_weights(*grid, y_lo, y_hi))

    @pytest.mark.parametrize("case", [case for case, make in GATE_CASES.items() if make])
    def test_near_the_optimum_of_the_pdf_dy_grid(self, case):
        # both grids discretize one integral, so the weights tuned on Q(u)
        # score within 1e-5 of the pdf * dy grid's own LP optimum there
        dist = GATE_CASES[case]()
        grid = pdf_dy_grid(dist)
        cfg = tune_weights(dist)
        lp = _err(*grid, *lp_weights(*grid))
        assert _err(*grid, cfg.w1, cfg.w2) - lp <= 1e-5 * max(lp, _err(*grid, 0.0, 0.0))


@st.composite
def lad_problems(draw):
    """A weighted LAD problem with ties: F on a few levels, y mixing small
    integers (many rows on one line) with arbitrary floats."""
    n = draw(st.integers(3, 40))
    levels = draw(st.integers(2, n))
    F = np.array(draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)))
    value = st.one_of(st.integers(-3, 3).map(float), st.floats(-100.0, 100.0))
    y = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    weight = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)))
    return y, F / (levels - 1), weight


class TestVertexDescent:
    """_lad_weights, the exact weighted LAD fit behind both tuners."""

    @given(lad_problems())
    def test_never_worse_than_the_lp(self, problem):
        # the LP's point is optimal only to HiGHS's tolerances, so the
        # descent must match or beat its Err
        y, F, weight = problem
        cfg = _lad_weights(y, F, weight)
        lp = _err(y, F, weight, *lp_weights(y, F, weight))
        scale = max(lp, _err(y, F, weight, 0.0, 0.0))
        assert _err(y, F, weight, cfg.w1, cfg.w2) <= lp + 1e-10 * scale

    @pytest.mark.parametrize("weight,median", [((1.0, 1.0, 1.0, 1.0), 2.0),
                                               ((1.0, 1.0, 1.0, 4.0), 5.0)])
    def test_equal_F_gives_flat_weighted_median(self, weight, median):
        y = np.array([3.0, 1.0, 2.0, 5.0])
        cfg = _lad_weights(y, np.full(4, 0.25), np.array(weight))
        assert (cfg.w1, cfg.w2, cfg.lam) == (median / 2.0, median / 2.0, median)

    @pytest.mark.parametrize("case", list(GATE_CASES))
    def test_takes_a_handful_of_weighted_medians(self, case, monkeypatch):
        # the golden-section search it replaced took about 70
        calls = []
        median_row = risk_approx._median_row
        monkeypatch.setattr(
            risk_approx, "_median_row", lambda r, w: calls.append(1) or median_row(r, w)
        )
        make = GATE_CASES[case]
        if make is None:
            tune_weights_empirical(LOGNORMAL_TARGETS)
        else:
            tune_weights(make())
        assert 2 <= len(calls) <= 12


class TestOptimalLambda:
    def test_hand_values(self):
        assert optimal_lambda(1.0, 0.0, RaVariances(1.0, 1.0)) == pytest.approx(1.0)
        assert optimal_lambda(0.5, -0.5, RaVariances(2.0, 2.0)) == pytest.approx(0.0)
        assert optimal_lambda(1.0, 1.0, RaVariances(3.0, 1.0)) == pytest.approx(2.0)

    def test_degenerate_variances_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            optimal_lambda(0.5, 0.0, RaVariances(0.0, 0.0))

    def test_estimate_variances_hand_case(self):
        pairs = pairwise_from_arrays(
            np.array([[1.0], [2.0], [4.0]]),
            [9.0, 9.0, 9.0],
            np.array([[0.0], [1.0], [3.0]]),
            [0.0, 0.0, 0.0],
        )
        model = LinearModel(np.array([1.0]))
        v = estimate_variances(model, pairs)
        # phi' values are (2, 4, 8) and (0, 2, 6); both sample variances = 28/3
        assert v.sigma2_plus == pytest.approx(28.0 / 3.0, rel=1e-12)
        assert v.sigma2_minus == pytest.approx(28.0 / 3.0, rel=1e-12)

    def test_estimate_variances_needs_two_pairs(self):
        pairs = pairwise_from_arrays([[1.0]], [1.0], [[0.0]], [0.0])
        with pytest.raises(ParameterError):
            estimate_variances(LinearModel(np.array([1.0])), pairs)


class TestEmpiricalRisk:
    def test_hand_instance(self):
        # unlabeled h = (1, 3), lambda = 1/2:
        #   phi(h) - (h - lambda) phi'(h) = (1 - 1, 9 - 15) -> mean -3 -> +3
        # pair: winner h=2 (phi'=4) weight w1-lam/2=0, loser h=-1 (phi'=-2)
        #   weight w2-lam/2=1/2 -> term -(-1) = +1
        unlabeled = Dataset(features=np.array([[1.0], [3.0]]))
        pairs = pairwise_from_arrays([[2.0]], [1.0], [[-1.0]], [0.0])
        model = LinearModel(np.array([1.0]))
        cfg = RiskConfig(w1=0.25, w2=0.75, lam=0.5)
        assert ra_empirical_risk(model, unlabeled, pairs, cfg) == 4.0

    def test_zero_model_zero_risk(self):
        rng = np.random.default_rng(1)
        unlabeled = Dataset(features=rng.standard_normal((40, 3)))
        pairs = PairwiseSet(rng.standard_normal((9, 3)), rng.standard_normal((9, 3)))
        model = LinearModel(np.zeros(3))
        cfg = RiskConfig(0.4, -0.1, 0.6)
        # h = 0 annihilates every term of the squared risk
        assert ra_empirical_risk(model, unlabeled, pairs, cfg) == 0.0

    def test_empty_pairs_keep_unlabeled_term(self):
        unlabeled = Dataset(features=np.array([[1.0], [3.0]]))
        pairs = PairwiseSet(np.empty((0, 1)), np.empty((0, 1)))
        model = LinearModel(np.array([1.0]))
        cfg = RiskConfig(0.25, 0.75, 0.5)
        assert ra_empirical_risk(model, unlabeled, pairs, cfg) == 3.0

    @pytest.mark.parametrize("link", LINK_CASES)
    def test_risk_is_affine_in_lambda(self, link):
        rng = np.random.default_rng(7)
        unlabeled = Dataset(features=rng.standard_normal((30, 2)))
        pairs = PairwiseSet(rng.standard_normal((12, 2)), rng.standard_normal((12, 2)))
        theta = rng.standard_normal(2)
        g_u, g_w, g_l = (
            LINKS[link](M @ theta)[0] for M in (unlabeled.features, pairs.winners, pairs.losers)
        )
        # phi'(g) = 2g
        slope = np.mean(2.0 * g_w + 2.0 * g_l) / 2.0 - np.mean(2.0 * g_u)

        def risk(lam):
            cfg = RiskConfig(0.3, -0.2, lam)
            fun, _, _ = linked_risk(LINKS[link], cfg, unlabeled, pairs)
            return fun(theta)

        assert risk(0.7) - risk(0.0) == pytest.approx(0.7 * slope, abs=1e-12)

    def test_lambda_shift_invariant_in_expectation(self):
        # the lambda slope averages to zero across resamples, so risks at two
        # lambda values agree within Monte-Carlo error (paired comparison)
        theta = np.array([1.0, 0.0])
        spec = SyntheticSpec(dim=2, noise_std=0.1, theta_true=theta, seed=0)
        model = LinearModel(theta)
        diffs = []
        for k in range(300):
            s = SyntheticSpec(dim=2, noise_std=0.1, theta_true=theta, seed=1000 + k)
            unlabeled = generate_synthetic(s, 400).without_targets()
            pairs = sample_pairwise_from_spec(s, 400)
            lo = ra_empirical_risk(model, unlabeled, pairs, RiskConfig(0.7, -0.7, -0.5))
            hi = ra_empirical_risk(model, unlabeled, pairs, RiskConfig(0.7, -0.7, 0.5))
            diffs.append(hi - lo)
        diffs = np.asarray(diffs)
        se = diffs.std(ddof=1) / np.sqrt(diffs.size)
        assert abs(diffs.mean()) <= 3.0 * se

    def test_convex_in_theta(self):
        rng = np.random.default_rng(3)
        unlabeled = Dataset(features=rng.standard_normal((50, 3)))
        pairs = PairwiseSet(rng.standard_normal((20, 3)), rng.standard_normal((20, 3)))
        cfg = RiskConfig(0.6, -0.3, 0.2)

        def risk(theta):
            return ra_empirical_risk(LinearModel(theta), unlabeled, pairs, cfg)

        for _ in range(100):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            mid = risk((a + b) / 2.0)
            assert mid <= (risk(a) + risk(b)) / 2.0 + 1e-12


def finite_difference_gradient(f, theta, step=1e-6):
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (f(up) - f(down)) / (2.0 * step)
    return grad


class TestRiskGradient:
    @pytest.mark.parametrize("link", LINK_CASES[:1])
    def test_matches_finite_differences(self, link):
        rng = np.random.default_rng(17)
        for _ in range(10):
            unlabeled = Dataset(features=rng.standard_normal((25, 3)))
            pairs = PairwiseSet(rng.standard_normal((10, 3)), rng.standard_normal((10, 3)))
            theta = rng.standard_normal(3)
            cfg = RiskConfig(*rng.uniform(-0.8, 0.8, 2), rng.uniform(-0.5, 0.5))
            _, grad_fn, _ = linked_risk(LINKS[link], cfg, unlabeled, pairs)
            grad = grad_fn(theta)
            fd = finite_difference_gradient(
                lambda t: ra_empirical_risk(LinearModel(t), unlabeled, pairs, cfg),
                theta,
            )
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(grad - fd)) / scale < 1e-5


class TestRaFit:
    def test_uniform_coupling_recovers_theta(self):
        unlabeled, pairs = uniform_coupling(100_000, 5000, seed=0)
        cfg = tune_weights(uniform_distribution(0.0, 1.0))
        model = ra_fit(unlabeled, pairs, cfg)
        assert model.theta[0] == pytest.approx(1.0, abs=0.05)

    def test_intercept_recovers_affine_shift(self):
        unlabeled, pairs = with_ones(*uniform_coupling(100_000, 5000, seed=1, shift=2.0))
        cfg = tune_weights(uniform_distribution(2.0, 3.0))
        model = ra_fit(unlabeled, pairs, cfg)
        assert model.theta[0] == pytest.approx(1.0, abs=0.05)
        assert model.theta[1] == pytest.approx(2.0, abs=0.05)

    def test_closed_form_matches_newton(self):
        unlabeled, pairs = uniform_coupling(2000, 400, seed=2)
        cfg = RiskConfig(0.5, 0.0, 0.25)
        closed = ra_fit(unlabeled, pairs, cfg)
        fun, grad, hess = linked_risk(identity_link, cfg, unlabeled, pairs)
        newton = minimize_gd(fun, grad, np.zeros(1), hess=hess)
        assert newton.converged
        assert np.max(np.abs(closed.theta - newton.theta)) < 1e-10

    def test_zero_weights_give_zero_model(self):
        unlabeled, pairs = uniform_coupling(500, 50, seed=3)
        model = ra_fit(unlabeled, pairs, RiskConfig(0.0, 0.0, 0.0))
        np.testing.assert_allclose(model.theta, 0.0, atol=1e-9)

    def test_dim_mismatch_rejected(self):
        unlabeled = Dataset(features=np.ones((5, 2)))
        pairs = PairwiseSet(np.ones((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ShapeError):
            ra_fit(unlabeled, pairs, RiskConfig(0.5, 0.0, 0.25))

    def test_fit_deterministic(self):
        unlabeled, pairs = uniform_coupling(3000, 300, seed=4)
        cfg = RiskConfig(0.5, 0.0, 0.25)
        a = ra_fit(unlabeled, pairs, cfg)
        b = ra_fit(unlabeled, pairs, cfg)
        np.testing.assert_array_equal(a.theta, b.theta)


class TestNormalEquations:
    def test_solves_well_conditioned_system(self):
        G = np.array([[2.0, 0.5], [0.5, 1.0]])
        rhs = np.array([1.0, 2.0])
        np.testing.assert_allclose(solve_normal_equations(G, rhs) , np.linalg.solve(G, rhs))

    def test_collinear_system_falls_back_to_ridge(self):
        # rank-1 matrix: the plain solve is untrustworthy; ridge keeps the
        # solution bounded instead of exploding along the null space
        G = np.outer([1.0, 1.0], [1.0, 1.0])
        theta = solve_normal_equations(G, np.array([1.0, 1.0]))
        assert np.all(np.isfinite(theta))
        assert np.linalg.norm(theta) < 10.0

    def test_overflowing_ridge_solve_raises(self):
        # finite input whose ridge solve overflows to non-finite coefficients
        with pytest.raises(NumericError, match="non-finite coefficients"):
            solve_normal_equations(np.ones((2, 2)), np.array([1e308, -1e308]))


class TestTuningConfig:
    def test_rejects_bad_grid(self):
        with pytest.raises(ParameterError):
            RaVariances(-1.0, 2.0)


def three_block_risk(link, cfg, unlabeled, pairs, include_intercept):
    """Reference (fun, grad, hess): the squared linked risk
    mean_U[g^2 - 2 lam g] - 2 mean_R[a g+ + b g-] with the unlabeled rows,
    winners and losers as three separate designs and three link calls, each
    with a trailing constant-1 column when include_intercept is set."""
    X, W, L = (
        np.hstack([M, np.ones((M.shape[0], int(include_intercept)))])
        for M in (unlabeled.features, pairs.winners, pairs.losers)
    )
    n_u, n_r, lam = X.shape[0], W.shape[0], cfg.lam
    a, b = cfg.w1 - lam / 2.0, cfg.w2 - lam / 2.0

    def parts(theta):
        out = [np.broadcast_arrays(*link(M @ theta)) for M in (X, W, L)]
        if not all(np.all(np.isfinite(g)) for g, _, _ in out):
            return None
        return out

    def fun(theta):
        p = parts(theta)
        if p is None:
            return np.inf
        (gu, _, _), (gp, _, _), (gm, _, _) = p
        risk = float(np.mean(gu**2 - 2.0 * lam * gu))
        if n_r:
            risk -= 2.0 * float(np.mean(a * gp + b * gm))
        return risk

    def grad(theta):
        (gu, du, _), (gp, dp, _), (gm, dm, _) = parts(theta)
        out = X.T @ (2.0 * (gu - lam) * du) / n_u
        if n_r:
            out = out - 2.0 * (W.T @ (a * dp) + L.T @ (b * dm)) / n_r
        return out

    def hess(theta):
        (gu, du, ddu), (gp, _, ddp), (gm, _, ddm) = parts(theta)
        cu = 2.0 * (du * du + (gu - lam) * ddu)
        out = (X.T * cu) @ X / n_u
        if n_r:
            out = out - 2.0 * ((W.T * (a * ddp)) @ W + (L.T * (b * ddm)) @ L) / n_r
        return out

    return fun, grad, hess


LEAN_LINKS = {
    **LINKS,
    "kde": cdf_link(kde_distribution(fit_kde(np.random.default_rng(3).normal(0.2, 1.5, 300)))),
}


class TestLeanRisk:
    """linked_risk's one-design closures against the three-block formulas:
    value, gradient and Hessian at rtol 1e-12 for every link, with and
    without a constant-1 column, with no pairs, and at n_U = 20000, which
    spans several Hessian blocks."""

    @pytest.mark.parametrize("n_u,n_r", [(500, 300), (500, 0), (20_000, 300)])
    @pytest.mark.parametrize("include_intercept", [False, True], ids=["no-icpt", "icpt"])
    @pytest.mark.parametrize("link", list(LEAN_LINKS), ids=lambda name: f"squared-{name}")
    def test_matches_three_block_formulas(self, link, include_intercept, n_u, n_r):
        rng = np.random.default_rng(n_u + n_r + include_intercept)
        unlabeled = Dataset(features=rng.standard_normal((n_u, 3)))
        pairs = PairwiseSet(rng.standard_normal((n_r, 3)), rng.standard_normal((n_r, 3)))
        cfg = RiskConfig(*rng.uniform(-0.8, 0.8, 2), rng.uniform(-0.5, 0.5))
        ref = three_block_risk(LEAN_LINKS[link], cfg, unlabeled, pairs, include_intercept)
        if include_intercept:
            unlabeled, pairs = with_ones(unlabeled, pairs)
        lean = linked_risk(LEAN_LINKS[link], cfg, unlabeled, pairs)
        for theta in 0.5 * rng.standard_normal((3, 3 + include_intercept)):
            for got, want in zip(lean, ref):
                np.testing.assert_allclose(got(theta), want(theta), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("row", ["unlabeled", "winner", "loser"])
    def test_non_finite_linked_score(self, bad, row):
        """One row whose link output is not finite makes fun +inf, so a line
        search backs off, and makes grad and hess raise DomainError."""
        rng = np.random.default_rng(8)
        X, W, L = (rng.uniform(-1.0, 1.0, (n, 2)) for n in (30, 10, 10))
        # the marked row alone scores h = 14 at theta = (1, 1)
        {"unlabeled": X, "winner": W, "loser": L}[row][4] = 7.0
        unlabeled, pairs = Dataset(features=X), PairwiseSet(W, L)

        def link(h):
            g, d1, d2 = identity_link(h)
            return np.where(h == 14.0, bad, g), d1, d2

        cfg = RiskConfig(0.4, 0.1, 0.2)
        fun, grad, hess = linked_risk(link, cfg, unlabeled, pairs)
        inside = np.array([0.5, 0.5])
        assert np.isfinite(fun(inside))
        assert np.all(np.isfinite(grad(inside))) and np.all(np.isfinite(hess(inside)))
        outside = np.array([1.0, 1.0])
        assert fun(outside) == np.inf
        for closure in (grad, hess):
            with pytest.raises(DomainError):
                closure(outside)
