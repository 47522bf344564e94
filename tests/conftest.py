import hypothesis
import numpy as np
import pytest

from uncoupled.core import DivergenceError
from uncoupled.optimize import GdResult, SolverOptions

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("suite")


def _gradient_descent(fun, grad, x0, options=None) -> GdResult:
    """Plain gradient descent with an Armijo backtracking line search whose
    first trial step is one size above the last accepted one; same stopping
    rules and result as minimize_gd."""
    opts = options or SolverOptions()
    x = np.array(x0, dtype=float)
    f = float(fun(x))
    g = np.asarray(grad(x), dtype=float)
    step = 1.0
    for it in range(1, opts.max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= opts.grad_tol:
            return GdResult(x, f, gnorm, it - 1, True)
        t = min(1.0, step / opts.shrink)
        decrease = opts.armijo * gnorm * gnorm
        while True:
            trial = x - t * g
            f_trial = float(fun(trial))
            if np.isnan(f_trial):
                raise DivergenceError("objective became non-finite during line search")
            if f_trial <= f - t * decrease:
                break
            t *= opts.shrink
            if t < 1e-20:
                return GdResult(x, f, gnorm, it - 1, False)
        x, f, step = trial, f_trial, t
        g = np.asarray(grad(x), dtype=float)
    gnorm = float(np.linalg.norm(g))
    return GdResult(x, f, gnorm, opts.max_iter, gnorm <= opts.grad_tol)


@pytest.fixture
def gradient_descent():
    """Reference solver that the damped Newton fits are checked against."""
    return _gradient_descent
