"""Damped Newton descent with an Armijo backtracking line search.

Every risk here is smooth or piecewise quadratic in a handful of parameters,
and every fit supplies its (generalized) Hessian, so each step is a damped
Newton step (Nocedal & Wright, Numerical Optimization, ch. 3 and 6): the
direction solves (H + mu I) d = -g, with mu = 0 when H is positive definite
and doubled from a small shift until a Cholesky factorization succeeds
otherwise, and the line search starts from the full step.  The
fits' closures share one pass over the data per theta, so the gradient at
an accepted trial and the next Hessian reuse the objective's pass.  There
are no knobs: the stopping rule and line search are module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DivergenceError

# first shift tried on a Hessian that is not positive definite, relative to
# its largest diagonal entry
_SHIFT = 1e-3
# stopping rule and Armijo line search
MAX_ITER = 10_000
GRAD_TOL = 1e-8
ARMIJO = 1e-4
SHRINK = 0.5


@dataclass(frozen=True, eq=False)
class GdResult:
    theta: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool


def _newton_direction(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve (H + mu I) d = -g in one LU solve, with mu = 0 when the Cholesky
    factorization of H succeeds and otherwise the first of
    _SHIFT * max(1, max |H_ii|) doubled that makes H + mu I factor.  Returns
    -g when H is non-finite, no finite shift factors it, or the solve does
    not give a descent direction."""
    H = np.asarray(H, dtype=float)
    if not np.all(np.isfinite(H)):
        return -g
    mu, shifted = 0.0, H
    while True:
        try:
            # the factorization only tests positive definiteness
            np.linalg.cholesky(shifted)
            break
        except np.linalg.LinAlgError:
            mu = 2.0 * mu if mu else _SHIFT * max(1.0, float(np.max(np.abs(np.diag(H)))))
            if not np.isfinite(mu):
                return -g
            shifted = H + mu * np.eye(H.shape[0])
    d = -np.linalg.solve(shifted, g)
    if not float(g @ d) < 0.0:
        return -g
    return d


def minimize_gd(fun, grad, x0, *, hess) -> GdResult:
    """Minimize fun from x0 by damped Newton steps, with hess a callable
    returning the d x d Hessian.  Stops once the gradient norm reaches
    GRAD_TOL, after MAX_ITER steps, or when the line search collapses, and
    raises DivergenceError on a non-finite objective or gradient."""
    x = np.array(x0, dtype=float)
    f = float(fun(x))
    if not np.isfinite(f):
        raise DivergenceError("objective is non-finite at the starting point")
    g = np.asarray(grad(x), dtype=float)
    for it in range(1, MAX_ITER + 1):
        if not np.all(np.isfinite(g)):
            raise DivergenceError("gradient became non-finite")
        gnorm = math.sqrt(g @ g)
        if gnorm <= GRAD_TOL:
            return GdResult(x, f, gnorm, it - 1, True)
        direction = _newton_direction(hess(x), g)
        t = 1.0
        decrease = -ARMIJO * float(g @ direction)
        while True:
            trial = x + t * direction
            f_trial = float(fun(trial))
            if np.isnan(f_trial):
                raise DivergenceError("objective became non-finite during line search")
            if f_trial <= f - t * decrease:
                break
            t *= SHRINK
            if t < 1e-20:
                # step has collapsed to rounding level; nothing left to gain
                return GdResult(x, f, gnorm, it - 1, False)
        x = trial
        f = f_trial
        g = np.asarray(grad(x), dtype=float)
    gnorm = math.sqrt(g @ g)
    return GdResult(x, f, gnorm, MAX_ITER, gnorm <= GRAD_TOL)
