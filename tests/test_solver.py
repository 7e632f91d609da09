"""Newton system solver: convergence reporting, damping, caller steps."""

import math

import numpy as np
import pytest

from nomadas import solve_system, solver


# -- one unknown: scalar equations as 1-element systems -----------------------------

def test_scalar_linear_root():
    report = solve_system(lambda x: x - 1.0, np.array([0.0]), tol=1e-12)
    assert report.converged
    assert report.solution[0] == pytest.approx(1.0, abs=1e-10)


def test_scalar_sqrt2():
    report = solve_system(lambda x: x * x - 2.0, np.array([1.0]))
    assert report.converged
    assert report.solution[0] == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_scalar_positive_expansion_stays_positive():
    # f undefined (nan) for x <= 0; the full first Newton step from 5 lands
    # at about -3, so the line search must reject it and stay positive
    tried = []

    def f(x):
        tried.append(float(x[0]))
        if x[0] <= 0.0:
            return np.array([np.nan])
        return np.log(x)

    report = solve_system(f, np.array([5.0]))
    assert report.converged
    assert report.solution[0] == pytest.approx(1.0, abs=1e-9)
    assert min(tried) <= 0.0
    assert np.all(np.isfinite(report.residuals))


def test_scalar_result_inside_bracket():
    lo, hi = 0.0, 2.0
    report = solve_system(lambda x: np.cos(x), np.array([1.0]))
    assert report.converged
    assert lo <= report.solution[0] <= hi
    assert report.solution[0] == pytest.approx(math.pi / 2.0, abs=1e-8)


def test_system_identity():
    b = np.array([1.0, -2.0, 3.0])
    report = solve_system(lambda x: x - b, np.zeros(3))
    assert report.converged
    np.testing.assert_allclose(report.solution, b, atol=1e-10)
    assert report.iterations <= 2


def test_system_circle_line_intersection():
    def f(z):
        x, y = z
        return np.array([x * x + y * y - 1.0, x - y])

    report = solve_system(f, np.array([1.0, 0.5]))
    assert report.converged
    np.testing.assert_allclose(report.solution,
                               [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-7)


def test_system_starts_at_root():
    report = solve_system(lambda x: x - 1.0, np.ones(2))
    assert report.converged
    assert report.iterations == 0


def test_system_residual_history_non_increasing():
    def f(z):
        x, y = z
        return np.array([np.exp(x) - 2.0, x * y - 1.0])

    report = solve_system(f, np.array([3.0, 3.0]))
    assert report.converged
    hist = np.array(report.residuals)
    assert np.all(np.diff(hist) <= 0.0)


def test_system_reports_failure_honestly():
    # no root: f(x) = x^2 + 1 elementwise
    report = solve_system(lambda x: x * x + 1.0, np.array([1.0]),
                          max_iter=10)
    assert not report.converged
    assert report.residual_norm > 0.0


# -- caller-supplied Newton step -------------------------------------------------------

def _circle_line(z):
    x, y = z
    return np.array([x * x + y * y - 1.0, x - y])


def _circle_line_jac(z):
    x, y = z
    return np.array([[2.0 * x, 2.0 * y], [1.0, -1.0]])


def _exp_system(z):
    x, y = z
    return np.array([np.exp(x) - 2.0, x * y - 1.0])


def _exp_system_jac(z):
    x, y = z
    return np.array([[np.exp(x), 0.0], [y, x]])


@pytest.mark.parametrize("f, jac, x0", [
    (_circle_line, _circle_line_jac, [1.0, 0.5]),
    (_exp_system, _exp_system_jac, [3.0, 3.0]),
])
def test_system_with_jacobian_matches_differences(f, jac, x0, monkeypatch):
    """A step from the caller's Jacobian replaces the differences: same
    root, f only in the line search."""
    fd = solve_system(f, np.array(x0))
    calls = {"f": 0}

    def counted(z):
        calls["f"] += 1
        return f(z)

    def no_differences(*args):
        raise AssertionError("central differences used despite step")

    def step(z, fz):
        return np.linalg.solve(jac(z), -fz)

    monkeypatch.setattr(solver, "_jacobian", no_differences)
    report = solve_system(counted, np.array(x0), step=step)
    assert report.converged and fd.converged
    np.testing.assert_allclose(report.solution, fd.solution, rtol=0.0,
                               atol=1e-10)
    hist = np.array(report.residuals)
    assert np.all(np.diff(hist) <= 0.0)
    # one call at x0, then at least one line-search try per Newton step
    assert report.iterations + 1 <= calls["f"] <= 1 + 31 * report.iterations


def test_singular_system_falls_back_to_least_squares():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    x = solver.solve_linear(a, np.array([2.0, 2.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(solver.solve_linear(np.eye(2), [3.0, 4.0]),
                               [3.0, 4.0])
