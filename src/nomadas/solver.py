"""Scalar and small-system root finding used by the power optimizers.

solve_scalar brackets a sign change and mixes bisection with secant steps;
solve_system is a damped Newton iteration that takes the caller's Jacobian
when one is given and falls back to central differences otherwise.
Both report the residual actually achieved instead of trusting step size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NoRoot(RuntimeError):
    """Raised when no sign change can be bracketed for solve_scalar."""


@dataclass
class SolveReport:
    """Outcome of a root solve.

    solution is a float for solve_scalar and an ndarray for solve_system;
    residuals holds the max-norm history of accepted steps.
    """

    solution: object
    residual_norm: float
    iterations: int
    converged: bool
    residuals: tuple = field(default_factory=tuple)


def solve_scalar(f, bracket, tol=1e-10, max_iter=200, positive=False):
    """Find x with |f(x)| <= tol inside (an expansion of) `bracket`.

    The bracket is widened geometrically until f changes sign; NoRoot is
    raised if that fails. Secant steps are tried on even iterations and
    bisection keeps worst-case convergence. `positive=True` keeps the
    expansion on (0, inf) for functions only defined there.
    """
    lo, hi = float(min(bracket)), float(max(bracket))
    flo, fhi = float(f(lo)), float(f(hi))
    if abs(flo) <= tol:
        return SolveReport(lo, abs(flo), 0, True, (abs(flo),))
    if abs(fhi) <= tol:
        return SolveReport(hi, abs(fhi), 0, True, (abs(fhi),))

    expansions = 0
    while not (np.isfinite(flo) and np.isfinite(fhi) and flo * fhi < 0.0):
        if expansions >= 64:
            raise NoRoot("no sign change after geometric bracket expansion")
        width = hi - lo
        lo = lo / 2.0 if positive else lo - width
        hi = hi + width
        flo, fhi = float(f(lo)), float(f(hi))
        if abs(flo) <= tol:
            return SolveReport(lo, abs(flo), 0, True, (abs(flo),))
        if abs(fhi) <= tol:
            return SolveReport(hi, abs(fhi), 0, True, (abs(fhi),))
        expansions += 1

    best_x, best_f = (lo, flo) if abs(flo) < abs(fhi) else (hi, fhi)
    history = []
    it = 0
    for it in range(1, max_iter + 1):
        width = hi - lo
        x = 0.5 * (lo + hi)
        if it % 2 == 0 and fhi != flo:
            secant = hi - fhi * (hi - lo) / (fhi - flo)
            # only inside the bracket and with real progress over an endpoint
            if lo + 1e-3 * width < secant < hi - 1e-3 * width:
                x = secant
        fx = float(f(x))
        if abs(fx) < abs(best_f):
            best_x, best_f = x, fx
        history.append(abs(best_f))
        if abs(fx) <= tol:
            return SolveReport(x, abs(fx), it, True, tuple(history))
        if fx * flo < 0.0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        # bracket exhausted at float resolution; the scale must come from
        # the endpoints themselves or roots far below 1.0 stop early
        if hi - lo <= 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi)):
            break
    return SolveReport(best_x, abs(best_f), it, abs(best_f) <= tol,
                       tuple(history))


def _jacobian(f, x, fx):
    """Central-difference Jacobian, one column per variable.

    Costs 2n evaluations of f; solve_system uses it only without `jac`.
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


def solve_system(f, x0, tol=1e-8, max_iter=80, jac=None):
    """Damped Newton for f(x) = 0 with x0 as the starting point.

    jac(x), when given, returns the Jacobian of f at x; without it the
    Jacobian is taken by central differences (_jacobian), 2n calls of f per
    Newton step. With it, f is called only at the start and in the line
    search.

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
        jx = _jacobian(f, x, fx) if jac is None else jac(x)
        try:
            step = np.linalg.solve(jx, -fx)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jx, -fx, rcond=None)
        if not np.all(np.isfinite(step)):
            return SolveReport(x, resid, it - 1, False, tuple(history))

        t = 1.0
        accepted = False
        while t >= 2.0 ** -30:
            x_try = x + t * step
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
