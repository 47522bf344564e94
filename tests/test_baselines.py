import numpy as np
import pytest

from uncoupled import (
    Dataset,
    EmptyDataError,
    LinearModel,
    PairwiseSet,
    ParameterError,
    SyntheticSpec,
    gaussian_distribution,
    lr_fit,
    predict,
    random_unit_vector,
    rank_predict,
    ranker_fit,
    sample_pairwise_from_spec,
    uniform_distribution,
)
from uncoupled.baselines import _hinge_risk
from uncoupled.optimize import minimize_gd


def labeled(X, y):
    return Dataset(features=np.asarray(X, dtype=float), targets=np.asarray(y, dtype=float))


class TestLeastSquares:
    def test_exact_recovery_without_noise(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 4))
        theta = np.array([1.5, -2.0, 0.25, 3.0])
        model = lr_fit(labeled(X, X @ theta))
        np.testing.assert_allclose(model.theta, theta, atol=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((200, 3))
        y = X @ np.array([1.0, -1.0, 0.5]) + 0.3 * rng.standard_normal(200)
        model = lr_fit(labeled(X, y))
        resid = y - predict(model, X)
        scale = max(1.0, float(np.max(np.abs(X.T @ y))))
        assert np.max(np.abs(X.T @ resid)) <= 1e-6 * scale

    def test_constant_target_with_intercept(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 3))
        model = lr_fit(labeled(X, np.full(50, 7.25)), include_intercept=True)
        assert model.includes_intercept
        np.testing.assert_allclose(model.theta[:3], 0.0, atol=1e-8)
        assert model.theta[3] == pytest.approx(7.25, abs=1e-8)

    def test_never_worse_than_zero_model_on_train(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((80, 2))
        y = rng.standard_normal(80) + 0.5
        model = lr_fit(labeled(X, y))
        fit_mse = float(np.mean((y - predict(model, X)) ** 2))
        assert fit_mse <= float(np.mean(y**2)) + 1e-12

    def test_requires_targets(self):
        with pytest.raises(ParameterError):
            lr_fit(Dataset(features=np.ones((4, 2))))


def separable_pairs(seed=4, n=80, d=3):
    rng = np.random.default_rng(seed)
    direction = np.array([1.0, -0.5, 2.0])[:d]
    W = rng.standard_normal((n, d))
    L = W - np.abs(rng.standard_normal((n, 1))) * direction - 0.2 * direction
    return PairwiseSet(W, L), direction


class TestRankerFit:
    def test_separable_data_reaches_zero_error(self):
        pairs, _ = separable_pairs()
        ranker = ranker_fit(pairs)
        assert np.all(predict(ranker, pairs.winners) >= predict(ranker, pairs.losers))

    def test_loss_not_worse_than_zero_start(self):
        pairs, _ = separable_pairs(seed=5)
        ranker = ranker_fit(pairs)
        fun, _, _ = _hinge_risk(pairs.winners - pairs.losers)
        assert fun(ranker.theta) <= fun(np.zeros(pairs.dim)) + 1e-12

    def test_swapping_pairs_negates_direction(self):
        pairs, _ = separable_pairs(seed=6)
        fwd = ranker_fit(pairs)
        rev = ranker_fit(PairwiseSet(pairs.losers, pairs.winners))
        np.testing.assert_allclose(rev.theta, -fwd.theta, atol=1e-5)

    def test_deterministic(self):
        pairs, _ = separable_pairs(seed=8)
        np.testing.assert_array_equal(ranker_fit(pairs).theta, ranker_fit(pairs).theta)

    def test_empty_pairs_rejected(self):
        with pytest.raises(EmptyDataError):
            ranker_fit(PairwiseSet(np.empty((0, 2)), np.empty((0, 2))))


def hinge_solves(pairs, gradient_descent):
    """(reference gradient descent, damped Newton) from zero."""
    fun, grad, hess = _hinge_risk(pairs.winners - pairs.losers)
    x0 = np.zeros(pairs.dim)
    newton = minimize_gd(fun, grad, x0, hess=hess)
    return gradient_descent(fun, grad, x0), newton


class TestRankerNewton:
    def test_generalized_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        W, L = rng.standard_normal((2, 40, 3))
        D = W - L
        theta = rng.standard_normal(3)
        _, grad, hess_fn = _hinge_risk(D)
        step = 1e-6
        margin = D @ theta
        # away from the kinks at margin 1 the squared hinge is quadratic
        assert np.min(np.abs(margin - 1.0)) > 10 * step * np.max(np.abs(D))
        # some pairs active and some not, so the row selection is exercised
        assert 0 < np.sum(margin < 1.0) < margin.size
        fd = np.column_stack(
            [
                (grad(theta + e) - grad(theta - e)) / (2 * step)
                for e in step * np.eye(3)
            ]
        )
        hess = hess_fn(theta)
        np.testing.assert_allclose(hess, fd, rtol=0.0, atol=1e-7)

    def test_newton_agrees_with_gradient_descent(self, gradient_descent):
        pairs, _ = separable_pairs(seed=15)
        gd, newton = hinge_solves(pairs, gradient_descent)
        assert gd.converged and newton.converged
        assert newton.iterations < gd.iterations
        np.testing.assert_allclose(newton.theta, gd.theta, rtol=0.0, atol=1e-6)

    def test_newton_converges_where_gradient_descent_hits_the_cap(self, gradient_descent):
        # desk-sized problem: d = 5, noise 0.1, 100 comparisons, default reg
        theta = random_unit_vector(5, np.random.default_rng(2))
        spec = SyntheticSpec(dim=5, noise_std=0.1, theta_true=theta, seed=2)
        pairs = sample_pairwise_from_spec(spec, 100)
        gd, newton = hinge_solves(pairs, gradient_descent)
        assert not gd.converged and gd.iterations == 10_000
        assert newton.converged and newton.iterations < 50
        assert newton.value <= gd.value


class TestRankPredict:
    UNIFORM = uniform_distribution(0.0, 1.0)

    def base_ten(self):
        # identity scorer over scores 1..10
        scores = np.arange(1.0, 11.0)
        return LinearModel(np.array([1.0])), Dataset(features=scores[:, None])

    def test_interior_quantile(self):
        # one unlabeled score above the test point: level (10 - 2)/10 = 0.8
        ranker, unlabeled = self.base_ten()
        assert rank_predict(ranker, unlabeled, self.UNIFORM, np.array([9.5])) == pytest.approx(0.8)

    def test_top_is_capped_below_one(self):
        ranker, unlabeled = self.base_ten()
        top = rank_predict(ranker, unlabeled, self.UNIFORM, np.array([99.0]))
        assert top == pytest.approx(0.9)

    def test_bottom_clamps_into_quantile_domain(self):
        ranker, unlabeled = self.base_ten()
        bottom = rank_predict(ranker, unlabeled, self.UNIFORM, np.array([-99.0]))
        assert bottom == pytest.approx(1.0 / 11.0)

    def test_monotone_in_test_score(self):
        rng = np.random.default_rng(11)
        ranker = LinearModel(np.array([1.0, -2.0]))
        unlabeled = Dataset(features=rng.standard_normal((40, 2)))
        x = rng.standard_normal((200, 2))
        preds = np.asarray(rank_predict(ranker, unlabeled, gaussian_distribution(0.0, 1.0), x))
        order = np.argsort(np.asarray(predict(ranker, x)))
        assert np.all(np.diff(preds[order]) >= -1e-12)

    def test_invariant_under_increasing_score_maps(self):
        # scoring with 2r + 3 (via an appended constant feature) leaves the
        # rank-based quantile untouched
        rng = np.random.default_rng(12)
        U = rng.standard_normal((30, 2))
        x = rng.standard_normal((25, 2))
        theta = np.array([0.7, -1.1])
        ones_u = np.hstack([U, np.ones((30, 1))])
        ones_x = np.hstack([x, np.ones((25, 1))])
        base = rank_predict(
            LinearModel(theta), Dataset(features=U), self.UNIFORM, x
        )
        mapped = rank_predict(
            LinearModel(np.append(2.0 * theta, 3.0)),
            Dataset(features=ones_u),
            self.UNIFORM,
            ones_x,
        )
        np.testing.assert_allclose(mapped, base, atol=1e-12)

    def test_scalar_input_returns_float(self):
        ranker, unlabeled = self.base_ten()
        value = rank_predict(ranker, unlabeled, self.UNIFORM, np.array([5.5]))
        assert isinstance(value, float)
