import numpy as np
import pytest

from uncoupled import (
    CounterexampleVariant,
    ParameterError,
    ShapeError,
    SyntheticSpec,
    counterexample_sampler,
    generate_synthetic,
    pairwise_from_arrays,
    random_unit_vector,
    sample_pairwise_from_spec,
)
from uncoupled.pairgen import (
    STREAM_AUX,
    STREAM_PAIRWISE,
    STREAM_TEST,
    STREAM_UNLABELED,
    stream_rng,
)

E1 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])


def spec_for(theta, noise=0.1, seed=0):
    theta = np.asarray(theta, dtype=float)
    return SyntheticSpec(dim=theta.size, noise_std=noise, theta_true=theta, seed=seed)


class TestRandomUnitVector:
    def test_unit_norm(self):
        for dim in (1, 2, 5, 40):
            v = random_unit_vector(dim, np.random.default_rng(0))
            assert v.shape == (dim,)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_bad_dim(self):
        with pytest.raises(ParameterError):
            random_unit_vector(0, np.random.default_rng(0))


class TestSyntheticSpec:
    def test_rejects_non_unit_theta(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(dim=2, noise_std=0.1, theta_true=np.array([1.0, 1.0]), seed=0)

    def test_rejects_wrong_length_theta(self):
        with pytest.raises(ShapeError):
            SyntheticSpec(dim=3, noise_std=0.1, theta_true=np.array([1.0, 0.0]), seed=0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(dim=1, noise_std=-0.5, theta_true=np.array([1.0]), seed=0)

    @pytest.mark.parametrize("dim,seed", [(1, 0), (2, 7), (5, 1009)])
    def test_draw_takes_theta_from_the_seeds_aux_stream(self, dim, seed):
        spec = SyntheticSpec.draw(dim, 0.3, seed)
        want = random_unit_vector(dim, stream_rng(seed, STREAM_AUX))
        assert np.array_equal(spec.theta_true, want)
        assert (spec.dim, spec.noise_std, spec.seed) == (dim, 0.3, seed)


class TestGenerateSynthetic:
    def test_zero_noise_targets_equal_projection(self):
        data = generate_synthetic(spec_for(E1, noise=0.0), 500)
        np.testing.assert_array_equal(data.targets, data.features[:, 0])

    def test_target_variance_matches_model(self):
        # Var(Y) = |theta|^2 + noise^2 = 1 + 0.01
        data = generate_synthetic(spec_for(E1, noise=0.1, seed=42), 1_000_000)
        assert np.var(data.targets, ddof=1) == pytest.approx(1.01, rel=0.01)

    def test_deterministic_in_seed(self):
        a = generate_synthetic(spec_for(E1, seed=5), 100)
        b = generate_synthetic(spec_for(E1, seed=5), 100)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_different_streams_differ(self):
        spec = spec_for(E1, seed=5)
        a = generate_synthetic(spec, 100, stream=STREAM_UNLABELED)
        b = generate_synthetic(spec, 100, stream=STREAM_TEST)
        assert not np.allclose(a.features, b.features)

    def test_streams_nearly_uncorrelated(self):
        spec = spec_for(np.array([1.0]), seed=9)
        a = generate_synthetic(spec, 200_000, stream=STREAM_UNLABELED)
        b = generate_synthetic(spec, 200_000, stream=STREAM_TEST)
        corr = np.corrcoef(a.features[:, 0], b.features[:, 0])[0, 1]
        assert abs(corr) < 0.01


class TestPairwiseConstruction:
    def test_orders_by_target(self):
        x1 = np.array([[1.0], [2.0]])
        x2 = np.array([[3.0], [4.0]])
        pairs = pairwise_from_arrays(x1, [0.0, 9.0], x2, [5.0, 1.0])
        np.testing.assert_array_equal(pairs.winners, [[3.0], [2.0]])
        np.testing.assert_array_equal(pairs.losers, [[1.0], [4.0]])

    def test_tie_puts_first_sample_on_winner_side(self):
        pairs = pairwise_from_arrays([[7.0]], [2.0], [[8.0]], [2.0])
        np.testing.assert_array_equal(pairs.winners, [[7.0]])
        np.testing.assert_array_equal(pairs.losers, [[8.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["first", "second"])
    def test_non_finite_target_is_rejected(self, bad, side):
        """nan compares False both ways, so it cannot order a pair."""
        y1, y2 = [bad, 1.0], [0.0, 2.0]
        if side == "second":
            y1, y2 = y2, y1
        with pytest.raises(ParameterError, match="targets contain non-finite entries"):
            pairwise_from_arrays([[1.0], [2.0]], y1, [[3.0], [4.0]], y2)

    def test_swap_invariance_for_distinct_targets(self):
        rng = np.random.default_rng(2)
        x1, x2 = rng.standard_normal((2, 50, 3))
        y1 = rng.standard_normal(50)
        y2 = y1 + rng.uniform(0.1, 1.0, 50) * rng.choice([-1.0, 1.0], 50)
        a = pairwise_from_arrays(x1, y1, x2, y2)
        b = pairwise_from_arrays(x2, y2, x1, y1)
        np.testing.assert_array_equal(a.winners, b.winners)
        np.testing.assert_array_equal(a.losers, b.losers)

    def test_zero_noise_winner_scores_dominate(self):
        pairs = sample_pairwise_from_spec(spec_for(E1, noise=0.0), 300)
        assert np.all(pairs.winners[:, 0] >= pairs.losers[:, 0])

    def test_sample_determinism(self):
        spec = spec_for(E1, seed=3)
        a = sample_pairwise_from_spec(spec, 64)
        b = sample_pairwise_from_spec(spec, 64)
        np.testing.assert_array_equal(a.winners, b.winners)


def _sample(variant, n, seed):
    data = counterexample_sampler(variant, n, seed=seed)
    return data.features[:, 0], data.targets


class TestCounterexample:
    def test_deterministic(self):
        a = counterexample_sampler(CounterexampleVariant.TILDE, 100, seed=1)
        b = counterexample_sampler(CounterexampleVariant.TILDE, 100, seed=1)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_variants_draw_distinct_samples(self):
        _, yb = _sample(CounterexampleVariant.BASE, 100, seed=1)
        _, yt = _sample(CounterexampleVariant.TILDE, 100, seed=1)
        assert not np.array_equal(yb, yt)

    @pytest.mark.parametrize("variant", list(CounterexampleVariant))
    def test_support_and_moments(self, variant):
        x, y = _sample(variant, 200_000, seed=7)
        assert np.all((x >= -1.0) & (x <= 1.0))
        in_low = (y >= 0.0) & (y <= 2.0)
        in_high = (y >= 3.0) & (y <= 4.0)
        assert np.all(in_low | in_high)
        # common marginals: X uniform on [-1,1], E[Y] = 11/6
        assert np.mean(x) == pytest.approx(0.0, abs=0.01)
        assert np.mean(y) == pytest.approx(11.0 / 6.0, abs=0.01)

    def test_tilde_conditional_means_split(self):
        x, y = _sample(CounterexampleVariant.TILDE, 400_000, seed=11)
        assert np.mean(y[x < 0]) == pytest.approx(7.0 / 4.0, abs=0.01)
        assert np.mean(y[x >= 0]) == pytest.approx(23.0 / 12.0, abs=0.01)

    def test_base_conditional_mean_constant(self):
        x, y = _sample(CounterexampleVariant.BASE, 400_000, seed=11)
        assert np.mean(y[x < 0]) == pytest.approx(11.0 / 6.0, abs=0.01)
        assert np.mean(y[x >= 0]) == pytest.approx(11.0 / 6.0, abs=0.01)


class TestStreamRng:
    def test_rejects_negative_seed(self):
        with pytest.raises(ParameterError):
            stream_rng(-1, STREAM_PAIRWISE)

    def test_stream_tags_change_the_stream(self):
        a = stream_rng(4, 0).random(8)
        b = stream_rng(4, 1).random(8)
        assert not np.array_equal(a, b)
