import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import uncoupled
from uncoupled import (
    BERNOULLI_KL,
    SQUARED,
    Dataset,
    DomainError,
    LinearModel,
    NumericError,
    PairwiseSet,
    RiskConfig,
    ShapeError,
    bregman_divergence,
    check_generator,
    predict,
)


class TestBregmanDivergence:
    def test_squared_three_one(self):
        assert bregman_divergence(SQUARED, 3.0, 1.0) == 4.0

    @pytest.mark.parametrize("gen,c", [(SQUARED, 2.5), (SQUARED, -7.0), (BERNOULLI_KL, 0.3)])
    def test_identity_is_zero(self, gen, c):
        assert bregman_divergence(gen, c, c) == 0.0

    def test_bernoulli_kl_value(self):
        # phi(0.75) - phi(0.5) - 0.25 * phi'(0.5), with phi'(0.5) = 0
        assert bregman_divergence(BERNOULLI_KL, 0.75, 0.5) == pytest.approx(
            0.130812035941137, abs=1e-12
        )

    @pytest.mark.parametrize("t,z", [(1.5, 0.5), (-0.5, 0.3), (0.0, 2.0)])
    def test_kl_outside_unit_interval_rejected(self, t, z):
        with pytest.raises(DomainError):
            bregman_divergence(BERNOULLI_KL, t, z)

    @given(
        t=st.floats(-50, 50, allow_nan=False),
        z=st.floats(-50, 50, allow_nan=False),
    )
    def test_squared_equals_squared_distance(self, t, z):
        assert bregman_divergence(SQUARED, t, z) == pytest.approx(
            (t - z) ** 2, abs=1e-12, rel=1e-12
        )

    def test_squared_equals_squared_distance_bulk(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-10, 10, 1000)
        z = rng.uniform(-10, 10, 1000)
        vals = [bregman_divergence(SQUARED, ti, zi) for ti, zi in zip(t, z)]
        np.testing.assert_allclose(vals, (t - z) ** 2, atol=1e-12)

    def test_nonnegative_and_zero_iff_equal(self):
        grid = np.linspace(0.05, 0.95, 25)
        for gen, pts in [(SQUARED, np.linspace(-3, 3, 25)), (BERNOULLI_KL, grid)]:
            for t in pts:
                for z in pts:
                    d = bregman_divergence(gen, float(t), float(z))
                    assert d >= 0.0
                    if abs(t - z) > 1e-12:
                        assert d > 0.0


class TestGenerators:
    @pytest.mark.parametrize("gen", [SQUARED, BERNOULLI_KL], ids=["squared", "kl"])
    def test_derivatives_match_finite_differences(self, gen):
        check_generator(gen)  # raises if phi_prime/phi_third disagree with central FD

    @pytest.mark.parametrize("gen", [SQUARED, BERNOULLI_KL], ids=["squared", "kl"])
    def test_wrong_third_derivative_is_caught(self, gen):
        broken = dataclasses.replace(gen, phi_third=lambda x: gen.phi_third(x) + 1.0)
        with pytest.raises(NumericError, match="phi_third"):
            check_generator(broken)

    def test_third_derivative_hand_values(self):
        x = np.array([0.25, 0.5])
        np.testing.assert_array_equal(SQUARED.phi_third(x), [0.0, 0.0])
        # (2x - 1) / (x (1 - x))^2 at x = 1/4 is -0.5 / (3/16)^2
        np.testing.assert_allclose(BERNOULLI_KL.phi_third(x), [-128.0 / 9.0, 0.0])

    TINY = np.nextafter(0.0, 1.0)
    BELOW_ONE = np.nextafter(1.0, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "gen,x,inside",
        [
            (SQUARED, np.nan, False),
            (SQUARED, np.inf, False),
            (SQUARED, -np.inf, False),
            (SQUARED, np.array([1.0, np.nan]), False),
            (SQUARED, np.array([[-1e308, 1e308], [0.0, -np.inf]]), False),
            (SQUARED, np.array([-1e308, 0.0, 1e308]), True),
            (SQUARED, np.array(3.5), True),
            (SQUARED, np.empty(0), True),
            (BERNOULLI_KL, 0.0, False),
            (BERNOULLI_KL, 1.0, False),
            (BERNOULLI_KL, np.array([0.5, 1.0]), False),
            (BERNOULLI_KL, np.array([0.0, 0.5]), False),
            (BERNOULLI_KL, np.array([0.5, np.nan]), False),
            (BERNOULLI_KL, np.array([np.nan, np.nan]), False),
            (BERNOULLI_KL, np.array([-np.inf, 0.5, np.inf]), False),
            (BERNOULLI_KL, np.array([TINY, 0.5, BELOW_ONE]), True),
            (BERNOULLI_KL, np.array(0.5), True),
            (BERNOULLI_KL, np.empty((0, 3)), True),
        ],
    )
    def test_contains_is_the_open_domain(self, gen, x, inside):
        """nan and +-inf lie outside every domain, the domain edges too, and
        an empty array inside; 0-d input counts like a scalar."""
        assert gen.contains(x) is inside

    @pytest.mark.parametrize("gen", [SQUARED, BERNOULLI_KL], ids=["squared", "kl"])
    def test_second_derivative_nonnegative(self, gen):
        lo, hi = gen.valid_domain
        pad = 1e-3 if np.isfinite(lo) else 0.0
        lo = lo + pad if np.isfinite(lo) else -10.0
        hi = hi - pad if np.isfinite(hi) else 10.0
        grid = np.linspace(lo, hi, 101)
        assert np.all(gen.phi_second(grid) >= 0.0)


class TestPredict:
    def test_axis_projection(self):
        assert predict(LinearModel(np.array([1.0, 0.0])), np.array([5.0, 7.0])) == 5.0

    def test_zero_model(self):
        model = LinearModel(np.zeros(3))
        assert predict(model, np.array([4.0, -2.0, 9.0])) == 0.0

    def test_hand_dot_product(self):
        assert predict(LinearModel(np.array([2.0, -1.0])), np.array([3.0, 4.0])) == 2.0

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(1)
        model = LinearModel(rng.standard_normal(4))
        X = rng.standard_normal((20, 4))
        batch = predict(model, X)
        for i in range(20):
            assert batch[i] == pytest.approx(predict(model, X[i]), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            predict(LinearModel(np.array([1.0, 2.0])), np.array([1.0, 2.0, 3.0]))

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_linearity_in_input(self, a, b):
        model = LinearModel(np.array([1.5, -0.5]))
        x1 = np.array([1.0, 2.0])
        x2 = np.array([-3.0, 0.5])
        lhs = predict(model, a * x1 + b * x2)
        rhs = a * predict(model, x1) + b * predict(model, x2)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestDataclasses:
    def test_dataset_rejects_nan(self):
        with pytest.raises(Exception):
            Dataset(features=np.array([[1.0], [np.nan]]))

    def test_dataset_target_length_checked(self):
        with pytest.raises(ShapeError):
            Dataset(features=np.eye(3), targets=np.array([1.0, 2.0]))

    def test_dataset_shape_accessors(self):
        data = Dataset(features=np.ones((4, 2)), targets=np.zeros(4))
        assert (data.n, data.dim) == (4, 2)
        assert data.without_targets().targets is None

    def test_pairwise_shape_mismatch(self):
        with pytest.raises(ShapeError):
            PairwiseSet(winners=np.ones((3, 2)), losers=np.ones((2, 2)))

    def test_pairwise_counts(self):
        pairs = PairwiseSet(winners=np.ones((5, 2)), losers=np.zeros((5, 2)))
        assert (pairs.n_pairs, pairs.dim) == (5, 2)

    def test_linear_model_rejects_nonfinite(self):
        with pytest.raises(Exception):
            LinearModel(np.array([1.0, np.inf]))

    def test_risk_config_fields(self):
        cfg = RiskConfig(w1=0.5, w2=-0.5, lam=0.0)
        assert (cfg.w1, cfg.w2, cfg.lam) == (0.5, -0.5, 0.0)

    def test_immutability(self):
        model = LinearModel(np.array([1.0, 2.0]))
        with pytest.raises(Exception):
            model.theta = np.zeros(2)
        with pytest.raises(Exception):
            model.theta[0] = 9.0


def test_package_import_leaves_scipy_stats_out():
    """The package and its CLI load scipy.special, not scipy.stats, whose
    import alone costs more CPU time than numpy and scipy.special together;
    nor multiprocessing, which only a sweep with jobs > 1 needs."""
    src = Path(uncoupled.__file__).resolve().parent.parent
    code = (
        "import sys, uncoupled, uncoupled.cli; "
        "print('scipy.stats' in sys.modules, 'multiprocessing' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False False"
