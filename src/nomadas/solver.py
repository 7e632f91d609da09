"""Damped Newton root finding for the optimal power allocation systems.

solve_system takes the caller's Newton step when one is given (SRRH-OPA's
is block-eliminated, see optimal_pa) and falls back to a dense solve on
central differences otherwise. It reports the residual actually achieved
instead of trusting step size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SolveReport:
    """Outcome of a root solve.

    residuals holds the max-norm history of accepted steps.
    """

    solution: object
    residual_norm: float
    iterations: int
    converged: bool
    residuals: tuple = field(default_factory=tuple)


def _jacobian(f, x, fx):
    """Central-difference Jacobian, one column per variable.

    Costs 2n evaluations of f; solve_system uses it only without `step`.
    """
    n = x.size
    jac = np.empty((fx.size, n))
    for j in range(n):
        h = max(1e-8, 1e-8 * abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (np.asarray(f(xp), dtype=float)
                     - np.asarray(f(xm), dtype=float)) / (2.0 * h)
    return jac


def solve_linear(a, b):
    """The solution of a x = b, least squares when a is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


def solve_system(f, x0, tol=1e-8, max_iter=80, step=None):
    """Damped Newton for f(x) = 0 with x0 as the starting point.

    step(x, fx), when given, returns the Newton step at x, the solution d
    of J(x) d = -fx; without it the Jacobian is taken by central
    differences (_jacobian), 2n calls of f per Newton step, and solved
    densely. With it, f is called only at the start and in the line search.

    Steps are halved until the max-norm residual strictly decreases, so the
    residual history is non-increasing; converged is False when damping
    stalls or max_iter runs out before the residual reaches tol.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = np.asarray(f(x), dtype=float)
    resid = float(np.max(np.abs(fx)))
    history = [resid]
    if resid <= tol:
        return SolveReport(x, resid, 0, True, tuple(history))

    for it in range(1, max_iter + 1):
        if step is None:
            dx = solve_linear(_jacobian(f, x, fx), -fx)
        else:
            dx = step(x, fx)
        if not np.all(np.isfinite(dx)):
            return SolveReport(x, resid, it - 1, False, tuple(history))

        t = 1.0
        accepted = False
        while t >= 2.0 ** -30:
            x_try = x + t * dx
            f_try = np.asarray(f(x_try), dtype=float)
            r_try = float(np.max(np.abs(f_try)))
            if np.isfinite(r_try) and r_try < resid:
                x, fx, resid = x_try, f_try, r_try
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return SolveReport(x, resid, it - 1, False, tuple(history))
        history.append(resid)
        if resid <= tol:
            return SolveReport(x, resid, it, True, tuple(history))
    return SolveReport(x, resid, max_iter, resid <= tol, tuple(history))
