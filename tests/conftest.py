import hypothesis
import numpy as np
import pytest

from uncoupled.core import DivergenceError
from uncoupled.optimize import ARMIJO, GRAD_TOL, MAX_ITER, SHRINK, GdResult

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("suite")


def _gradient_descent(fun, grad, x0) -> GdResult:
    """Plain gradient descent with an Armijo backtracking line search whose
    first trial step is one size above the last accepted one; same stopping
    rules, line-search constants and result as minimize_gd."""
    x = np.array(x0, dtype=float)
    f = float(fun(x))
    g = np.asarray(grad(x), dtype=float)
    step = 1.0
    for it in range(1, MAX_ITER + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= GRAD_TOL:
            return GdResult(x, f, gnorm, it - 1, True)
        t = min(1.0, step / SHRINK)
        decrease = ARMIJO * gnorm * gnorm
        while True:
            trial = x - t * g
            f_trial = float(fun(trial))
            if np.isnan(f_trial):
                raise DivergenceError("objective became non-finite during line search")
            if f_trial <= f - t * decrease:
                break
            t *= SHRINK
            if t < 1e-20:
                return GdResult(x, f, gnorm, it - 1, False)
        x, f, step = trial, f_trial, t
        g = np.asarray(grad(x), dtype=float)
    gnorm = float(np.linalg.norm(g))
    return GdResult(x, f, gnorm, MAX_ITER, gnorm <= GRAD_TOL)


@pytest.fixture
def gradient_descent():
    """Reference solver that the damped Newton fits are checked against."""
    return _gradient_descent
