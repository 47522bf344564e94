import warnings

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import kendalltau

from uncoupled import (
    Dataset,
    ExperimentSpec,
    LinearModel,
    PairwiseSet,
    ParameterError,
    RiskConfig,
    SyntheticSpec,
    fit_kde,
    gaussian_distribution,
    generate_synthetic,
    kde_distribution,
    mse,
    pairwise_from_arrays,
    predict,
    random_unit_vector,
    sample_pairwise_from_spec,
    tt_fit,
    tt_predict,
    uniform_distribution,
)
from uncoupled.evaluation import _repeat_seed, _synthetic_data
from uncoupled.optimize import minimize_gd
from uncoupled.risk_approx import identity_link, linked_risk
from uncoupled.target_transform import cdf_link, sigmoid_link

UNIFORM = uniform_distribution(0.0, 1.0)
SURROGATE = RiskConfig(w1=0.5, w2=0.0, lam=0.5)
LINKS = {
    "identity": identity_link,
    "sigmoid": sigmoid_link,
    "gaussian_cdf": cdf_link(gaussian_distribution(0.0, 1.0)),
    "kde_cdf": cdf_link(kde_distribution(fit_kde(np.random.default_rng(19).standard_normal(200)))),
}
# case ids name the loss, then the link; the sigmoid link (the tt surrogate)
# carries the bare loss id
LINK_CASES = [
    pytest.param(link, id="squared" if link == "sigmoid" else f"squared-{link}")
    for link in LINKS
]
SURROGATE_CASE = [case for case in LINK_CASES if case.id == "squared"]
SIGMOID_1 = 0.7310585786300049  # 1 / (1 + e^-1)


class TestSigmoidLink:
    """The numpy sigmoid link: within 2 ulp of scipy's expit with no
    warning, clamped to [1e-9, 1 - 1e-9], its input array left unwritten,
    and 0-d output for 0-d input."""

    CLAMP = 1e-9

    def grid(self):
        h = np.random.default_rng(21).uniform(-40.0, 40.0, 20_000)
        edges = [0.0, 20.7, 36.0, 708.0, 709.8, 710.0, 745.0, 800.0]
        return np.concatenate([h, edges, np.negative(edges)])

    def test_within_two_ulp_of_expit_without_warnings(self):
        h = self.grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s, s1, s2 = sigmoid_link(h)
        want = np.clip(expit(h), self.CLAMP, 1.0 - self.CLAMP)
        assert np.all(np.abs(s - want) <= 2.0 * np.spacing(want))
        np.testing.assert_array_equal(s1, s * (1.0 - s))
        np.testing.assert_array_equal(s2, s1 * (1.0 - 2.0 * s))

    def test_clamp_holds(self):
        h = self.grid()
        s = sigmoid_link(h)[0]
        assert np.all((s >= self.CLAMP) & (s <= 1.0 - self.CLAMP))
        far = np.abs(h) >= 36.0
        np.testing.assert_array_equal(
            s[far], np.where(h[far] > 0, 1.0 - self.CLAMP, self.CLAMP)
        )

    def test_leaves_input_unchanged(self):
        h = self.grid()
        before = h.copy()
        outputs = sigmoid_link(h)
        np.testing.assert_array_equal(h, before)
        assert all(not np.shares_memory(v, h) for v in outputs)

    @pytest.mark.parametrize("h", [0.3, np.float64(-2.0), np.array(40.0)],
                             ids=["float", "float64", "0-d array"])
    def test_zero_dim_input_gives_zero_dim_output(self, h):
        s, s1, s2 = sigmoid_link(h)
        assert (np.ndim(s), np.ndim(s1), np.ndim(s2)) == (0, 0, 0)
        want = sigmoid_link(np.array([h], dtype=float))
        assert (float(s), float(s1), float(s2)) == tuple(float(v[0]) for v in want)


def tt_closures(link, unlabeled, pairs, lam=0.5):
    """fun and grad of the tt risk: linked_risk at (w1, w2) = (1/2, 0)."""
    fun, grad, _ = linked_risk(link, RiskConfig(0.5, 0.0, lam), unlabeled, pairs)
    return fun, grad


def single_feature(*values):
    return Dataset(features=np.asarray(values, dtype=float)[:, None])


def pair_1d(winner, loser):
    return PairwiseSet(np.array([[winner]], dtype=float), np.array([[loser]], dtype=float))


class TestCdfRisk:
    def test_zero_model_on_uniform_support_boundary(self):
        # F(0) = 0 makes every g^2 and 2g term vanish
        unlabeled = single_feature(0.3, -0.8)
        pairs = pair_1d(0.5, -0.5)
        fun, _ = tt_closures(cdf_link(UNIFORM), unlabeled, pairs)
        assert fun(np.zeros(1)) == 0.0

    def test_hand_instance(self):
        # -[(1/2 - 1/4)(1/2) + 1/16] - [(1/4)(3/2) - (1/4)(1/2)] = -0.4375
        unlabeled = single_feature(0.25)
        pairs = pair_1d(0.75, 0.25)
        fun, _ = tt_closures(cdf_link(UNIFORM), unlabeled, pairs)
        assert fun(np.array([1.0])) == pytest.approx(-0.4375, abs=1e-12)

    def test_lambda_terms_cancel_in_expectation(self):
        # uniform coupling, fixed h = identity: risks at two lambda values
        # agree in expectation; compare paired resample means
        theta = np.array([1.0])
        diffs = []
        for k in range(1000):
            rng = np.random.default_rng(5000 + k)
            unlabeled = Dataset(features=rng.random((200, 1)))
            x1, x2 = rng.random((2, 200))
            pairs = pairwise_from_arrays(x1[:, None], x1, x2[:, None], x2)
            lo = tt_closures(cdf_link(UNIFORM), unlabeled, pairs, lam=0.1)[0](theta)
            hi = tt_closures(cdf_link(UNIFORM), unlabeled, pairs, lam=0.9)[0](theta)
            diffs.append(hi - lo)
        diffs = np.asarray(diffs)
        se = diffs.std(ddof=1) / np.sqrt(diffs.size)
        assert abs(diffs.mean()) <= 3.0 * se


class TestSurrogateRisk:
    def test_zero_model_value(self):
        rng = np.random.default_rng(2)
        unlabeled = Dataset(features=rng.standard_normal((17, 3)))
        pairs = PairwiseSet(rng.standard_normal((6, 3)), rng.standard_normal((6, 3)))
        fun, _ = tt_closures(sigmoid_link, unlabeled, pairs)
        assert fun(np.zeros(3)) == pytest.approx(-0.25, abs=1e-12)

    def test_single_point_hand_value(self):
        # s = sigmoid(1): -( (1/2 - s) 2s + s^2 ) with an empty pair set
        unlabeled = single_feature(1.0)
        pairs = PairwiseSet(np.empty((0, 1)), np.empty((0, 1)))
        risk = tt_closures(sigmoid_link, unlabeled, pairs)[0](np.array([1.0]))
        expected = -((0.5 - SIGMOID_1) * 2 * SIGMOID_1 + SIGMOID_1**2)
        assert risk == pytest.approx(expected, abs=1e-12)
        assert risk == pytest.approx(-0.19661193324148185, abs=1e-12)

    def test_antisymmetric_pair_identity(self):
        rng = np.random.default_rng(4)
        winners = rng.standard_normal((40, 2))
        pairs = PairwiseSet(winners, -winners)
        unlabeled = Dataset(features=rng.standard_normal((10, 2)))
        theta = rng.standard_normal(2)
        risk = tt_closures(sigmoid_link, unlabeled, pairs)[0](theta)
        # sigma(t) + sigma(-t) = 1 collapses the pair sum
        su = 1.0 / (1.0 + np.exp(-unlabeled.features @ theta))
        sp = 1.0 / (1.0 + np.exp(-winners @ theta))
        expected = -np.mean((0.5 - su) * 2 * su + su**2) - np.mean(2 * sp - 1.0) / 2.0
        assert risk == pytest.approx(expected, abs=1e-12)

    def test_decreases_when_winner_scores_increase(self):
        unlabeled = single_feature(0.1, -0.4)
        theta = np.array([1.0])
        low = tt_closures(sigmoid_link, unlabeled, pair_1d(0.2, -0.3))[0](theta)
        high = tt_closures(sigmoid_link, unlabeled, pair_1d(1.5, -0.3))[0](theta)
        assert high < low

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        unlabeled = Dataset(features=rng.standard_normal((30, 2)))
        W, L = rng.standard_normal((2, 12, 2))
        theta = rng.standard_normal(2)
        base = tt_closures(sigmoid_link, unlabeled, PairwiseSet(W, L))[0](theta)
        pu = rng.permutation(30)
        pr = rng.permutation(12)
        shuffled, _ = tt_closures(
            sigmoid_link,
            Dataset(features=unlabeled.features[pu]),
            PairwiseSet(W[pr], L[pr]),
        )
        assert shuffled(theta) == pytest.approx(base, rel=1e-12)


def finite_difference_gradient(f, theta, step=1e-6):
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (f(up) - f(down)) / (2.0 * step)
    return grad


class TestSurrogateGradient:
    @pytest.mark.parametrize("link", SURROGATE_CASE)
    def test_matches_finite_differences(self, link):
        rng = np.random.default_rng(8)
        for _ in range(10):
            unlabeled = Dataset(features=rng.standard_normal((20, 3)))
            pairs = PairwiseSet(rng.standard_normal((8, 3)), rng.standard_normal((8, 3)))
            theta = rng.standard_normal(3)
            fun, grad_fn = tt_closures(LINKS[link], unlabeled, pairs)
            grad = grad_fn(theta)
            fd = finite_difference_gradient(fun, theta)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(grad - fd)) / scale < 1e-5

    def test_exact_cdf_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        dist = gaussian_distribution(0.0, 1.0)
        for _ in range(5):
            unlabeled = Dataset(features=rng.standard_normal((15, 2)))
            pairs = PairwiseSet(rng.standard_normal((7, 2)), rng.standard_normal((7, 2)))
            theta = rng.standard_normal(2) * 0.5
            fun, grad_fn = tt_closures(cdf_link(dist), unlabeled, pairs, lam=0.4)
            grad = grad_fn(theta)
            fd = finite_difference_gradient(fun, theta)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(grad - fd)) / scale < 1e-5

    def test_zero_model_symmetric_data_zero_gradient(self):
        rng = np.random.default_rng(10)
        half = rng.standard_normal((25, 3))
        unlabeled = Dataset(features=np.vstack([half, -half]))
        W = rng.standard_normal((9, 3))
        pairs = PairwiseSet(np.vstack([W, -W]), np.vstack([-W, W]))
        grad = tt_closures(sigmoid_link, unlabeled, pairs)[1](np.zeros(3))
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_single_point_hand_gradient(self):
        x = np.array([0.7, -1.2])
        theta = np.array([0.5, 0.3])
        unlabeled = Dataset(features=x[None, :])
        pairs = PairwiseSet(np.empty((0, 2)), np.empty((0, 2)))
        h = float(x @ theta)
        s = 1.0 / (1.0 + np.exp(-h))
        expected = -(s * (1.0 - s)) * (1.0 - 2.0 * s) * x
        grad = tt_closures(sigmoid_link, unlabeled, pairs)[1](theta)
        np.testing.assert_allclose(grad, expected, atol=1e-12)


class TestSurrogateHessian:
    @pytest.mark.parametrize("link", LINK_CASES)
    @pytest.mark.parametrize("intercept", [False, True], ids=["no_icpt", "icpt"])
    @pytest.mark.parametrize("n_pairs", [0, 8], ids=["no_pairs", "pairs"])
    def test_matches_finite_differences(self, link, intercept, n_pairs):
        rng = np.random.default_rng(11)
        # an intercept is a trailing constant-1 feature
        icpt = lambda M: np.hstack([M, np.ones((M.shape[0], int(intercept)))])
        for _ in range(5):
            draw = lambda n: rng.standard_normal((n, 3))
            unlabeled = Dataset(features=icpt(draw(20)))
            pairs = PairwiseSet(icpt(draw(n_pairs)), icpt(draw(n_pairs)))
            # CDF-linked scores stay in the marginal's bulk
            scale = 0.3 if link.endswith("cdf") else 1.0
            theta = rng.standard_normal(3 + intercept) * scale
            cfg = RiskConfig(0.6, -0.1, 0.35)
            _, grad, hess_fn = linked_risk(LINKS[link], cfg, unlabeled, pairs)
            hess = hess_fn(theta)
            fd = np.array(
                [finite_difference_gradient(lambda t: grad(t)[i], theta) for i in range(theta.size)]
            )
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(hess - fd)) / scale < 1e-6
            np.testing.assert_allclose(hess, hess.T, atol=1e-15)


class TestFit:
    def test_learns_concordant_ranking(self):
        theta = np.array([0.6, -0.8])
        spec = SyntheticSpec(dim=2, noise_std=0.0, theta_true=theta, seed=21)
        unlabeled = generate_synthetic(spec, 2000).without_targets()
        pairs = sample_pairwise_from_spec(spec, 10_000)
        model = tt_fit(unlabeled, pairs)
        test = generate_synthetic(spec, 500, stream=2)
        tau = kendalltau(predict(model, test.features), test.features @ theta).statistic
        assert tau >= 0.95

    def test_deterministic(self):
        theta = np.array([1.0, 0.0])
        spec = SyntheticSpec(dim=2, noise_std=0.1, theta_true=theta, seed=3)
        unlabeled = generate_synthetic(spec, 500).without_targets()
        pairs = sample_pairwise_from_spec(spec, 300)
        a = tt_fit(unlabeled, pairs)
        b = tt_fit(unlabeled, pairs)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_final_risk_beats_every_start(self):
        theta = np.array([1.0, 0.0])
        spec = SyntheticSpec(dim=2, noise_std=0.1, theta_true=theta, seed=4)
        unlabeled = generate_synthetic(spec, 400).without_targets()
        pairs = sample_pairwise_from_spec(spec, 200)
        model = tt_fit(unlabeled, pairs)
        fun, _ = tt_closures(sigmoid_link, unlabeled, pairs)
        final = fun(model.theta)
        for start in (np.zeros(2), np.full(2, 0.1), np.full(2, -0.1)):
            assert final <= fun(start) + 1e-12

    @pytest.mark.parametrize("link", SURROGATE_CASE)
    def test_newton_agrees_with_gradient_descent(self, link, gradient_descent):
        theta = np.array([0.6, -0.8, 0.0])
        spec = SyntheticSpec(dim=3, noise_std=1.0, theta_true=theta, seed=13)
        unlabeled = generate_synthetic(spec, 1000).without_targets()
        pairs = sample_pairwise_from_spec(spec, 300)
        fun, grad, hess = linked_risk(LINKS[link], SURROGATE, unlabeled, pairs)
        for x0 in (np.zeros(3), np.full(3, 0.1)):
            gd = gradient_descent(fun, grad, x0)
            newton = minimize_gd(fun, grad, x0, hess=hess)
            assert gd.converged and newton.converged
            assert newton.iterations < gd.iterations
            np.testing.assert_allclose(newton.theta, gd.theta, rtol=0.0, atol=1e-6)
        from_zero = minimize_gd(fun, grad, np.zeros(3), hess=hess)
        np.testing.assert_array_equal(tt_fit(unlabeled, pairs).theta, from_zero.theta)

    @pytest.mark.parametrize("n_r", [100, 1000, 5000])
    @pytest.mark.parametrize("seed", [1, 3])
    def test_exact_newton_agrees_with_gradient_descent(self, seed, n_r, gradient_descent):
        # a desk cell: d = 5, noise 0.1, n_U = 5000, analytic Gaussian marginal
        theta = random_unit_vector(5, np.random.default_rng(seed))
        spec = SyntheticSpec(dim=5, noise_std=0.1, theta_true=theta, seed=seed)
        unlabeled = generate_synthetic(spec, 5000).without_targets()
        pairs = sample_pairwise_from_spec(spec, n_r)
        dist = gaussian_distribution(0.0, np.sqrt(1.01))
        fun, grad, hess = linked_risk(cdf_link(dist), SURROGATE, unlabeled, pairs)
        gd = gradient_descent(fun, grad, np.zeros(5))
        newton = minimize_gd(fun, grad, np.zeros(5), hess=hess)
        assert gd.converged and newton.converged
        assert newton.iterations <= 10
        np.testing.assert_allclose(newton.theta, gd.theta, rtol=0.0, atol=1e-6)
        fitted = tt_fit(unlabeled, pairs, cdf_link(dist))
        np.testing.assert_array_equal(fitted.theta, newton.theta)

    def test_surrogate_honours_lambda(self):
        theta = np.array([1.0, 0.0])
        spec = SyntheticSpec(dim=2, noise_std=0.1, theta_true=theta, seed=6)
        unlabeled = generate_synthetic(spec, 400).without_targets()
        pairs = sample_pairwise_from_spec(spec, 200)
        fitted = tt_fit(unlabeled, pairs)
        _, grad, _ = linked_risk(sigmoid_link, SURROGATE, unlabeled, pairs)
        assert np.linalg.norm(grad(fitted.theta)) <= 1e-8

    def test_rejects_fewer_unlabeled_rows_than_parameters(self):
        unlabeled = Dataset(features=np.array([[0.3, -0.2]]))
        pairs = PairwiseSet(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        with pytest.raises(ParameterError):
            tt_fit(unlabeled, pairs)

    def test_exact_mode_fits_too(self):
        theta = np.array([1.0])
        spec = SyntheticSpec(dim=1, noise_std=0.1, theta_true=theta, seed=5)
        unlabeled = generate_synthetic(spec, 300).without_targets()
        pairs = sample_pairwise_from_spec(spec, 150)
        dist = gaussian_distribution(0.0, np.sqrt(1.01))
        model = tt_fit(unlabeled, pairs, cdf_link(dist))
        fun, _ = tt_closures(cdf_link(dist), unlabeled, pairs, lam=0.5)
        start_risk = fun(np.zeros(1))
        final_risk = fun(model.theta)
        assert final_risk <= start_risk + 1e-12


class TestPredict:
    def test_uniform_identity(self):
        model = LinearModel(np.array([2.0]))
        x = np.array([[0.3], [-0.5], [1.1]])
        h = x[:, 0] * 2.0
        expected = 1.0 / (1.0 + np.exp(-h))
        np.testing.assert_allclose(tt_predict(model, UNIFORM, x), expected, atol=1e-12)

    def test_zero_score_gives_median(self):
        model = LinearModel(np.zeros(2))
        dist = gaussian_distribution(3.5, 2.0)
        assert tt_predict(model, dist, np.array([4.0, -1.0])) == pytest.approx(3.5, abs=1e-9)

    def test_gaussian_quantile_value(self):
        # sigmoid(1.6682678659858134) = 0.8413447... = Phi(1), so the
        # prediction lands on the standard-normal quantile 1.0
        model = LinearModel(np.array([1.6682678659858134]))
        dist = gaussian_distribution(0.0, 1.0)
        assert tt_predict(model, dist, np.array([1.0])) == pytest.approx(1.0, abs=1e-4)

    def test_monotone_in_score(self):
        rng = np.random.default_rng(12)
        model = LinearModel(np.array([1.0, -0.5]))
        x = rng.standard_normal((100, 2))
        scores = predict(model, x)
        order = np.argsort(scores)
        for dist in (UNIFORM, gaussian_distribution(0.0, 1.0)):
            preds = tt_predict(model, dist, x)
            assert np.all(np.diff(preds[order]) >= -1e-12)

    def test_scalar_input_returns_float(self):
        value = tt_predict(LinearModel(np.array([1.0])), UNIFORM, np.array([0.2]))
        assert isinstance(value, float)


class TestExactReadOut:
    """Full-scale synthetic repeat 2 at the default seed, built as the sweep
    builds it.  On its first 20 pool pairs the exact fit converges to a
    large theta, and its raw scores land far outside the target's range."""

    @pytest.fixture(scope="class")
    def cell(self):
        spec = ExperimentSpec()
        rep = _synthetic_data(SURROGATE, spec, _repeat_seed(spec.seed, 2))
        dist, _, pool = rep.uncoupled()
        return rep, dist, pool

    def fit(self, cell, n_r):
        rep, dist, pool = cell
        pairs = PairwiseSet(pool.winners[:n_r], pool.losers[:n_r])
        link = cdf_link(dist)
        return tt_fit(rep.train.without_targets(), pairs, link), link

    def test_blown_up_cell_reads_out_bounded(self, cell):
        rep, dist, _ = cell
        model, link = self.fit(cell, 20)
        assert np.linalg.norm(model.theta) == pytest.approx(19.56656174867238, rel=1e-9)
        preds = tt_predict(model, dist, rep.test.features, link)
        assert np.all(preds >= dist.inv_cdf(1e-9))
        assert np.all(preds <= dist.inv_cdf(1.0 - 1e-9))
        assert mse(preds, rep.test.targets) < 30.0

    def test_read_out_is_the_score_where_the_cdf_is_not_saturated(self, cell):
        rep, dist, _ = cell
        model, link = self.fit(cell, 10240)
        x = rep.test.features
        h = predict(model, x)
        near = np.abs(h) < 5.0
        assert near.any()
        preds = tt_predict(model, dist, x, link)
        np.testing.assert_allclose(preds[near], h[near], rtol=0.0, atol=1e-9)
