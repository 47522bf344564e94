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
    Dataset,
    LinearModel,
    PairwiseSet,
    RiskConfig,
    ShapeError,
    predict,
)


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
