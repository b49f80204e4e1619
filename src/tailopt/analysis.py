"""Verifiers for the smoothness and one-step-descent inequalities.

Each check returns the slack (bound minus attained value) of an inequality
that must hold for the declared constants, so a correct setup never
produces a slack below the floating-point floor of -1e-9.  The 1e-9
tolerance balances cancellation in differences of O(1) objective values
against false positives; callers sampling much larger scales should
normalize first.

``fit_rate_exponent`` estimates the decay exponent of a metric against the
horizon by least squares in log-log coordinates; it is how measured
trajectories are compared with the scheduled guarantees.
"""

from __future__ import annotations

import numpy as np

from tailopt.spaces import NormedSpace

__all__ = [
    "descent_step_gap",
    "smoothness_gap",
    "second_order_gaps",
    "rate_fit_horizons",
    "fit_rate_exponent",
    "central_diff_gradient",
    "central_diff_hessian_vec",
]


def descent_step_gap(problem, w, g_star, lr: float, space: NormedSpace):
    """Slack of the normalized-step descent bound at (w, g_star).

    Moving to w' = w - lr * d(g_star) must satisfy

        F(w') <= F(w) - lr ||grad F(w)||_dual + 2 lr ||eps||_dual + L lr^2 / 2

    where eps = g_star - grad F(w).  Returns RHS - F(w'), batched over
    leading axes of w / g_star.
    """
    if not lr > 0.0:
        raise ValueError("learning rate must be positive")
    w = np.asarray(w, dtype=float)
    g_star = np.asarray(g_star, dtype=float)
    w_next = w - lr * space.duality_map(g_star)
    grad = problem.gradient(w)
    eps = g_star - grad
    rhs = (problem.value(w)
           - lr * np.asarray(space.dual_norm(grad))
           + 2.0 * lr * np.asarray(space.dual_norm(eps))
           + problem.lipschitz * lr ** 2 / 2.0)
    out = rhs - problem.value(w_next)
    return float(out) if np.ndim(out) == 0 else out


def smoothness_gap(problem, x, y, space: NormedSpace | None = None):
    """Slack of F(x) <= F(y) + <grad F(y), x - y> + L/2 ||x - y||_primal^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if space is None:
        space = NormedSpace.euclidean(x.shape[-1])
    diff = x - y
    rhs = (problem.value(y) + np.sum(problem.gradient(y) * diff, axis=-1)
           + problem.lipschitz / 2.0 * np.asarray(space.primal_norm(diff)) ** 2)
    out = rhs - problem.value(x)
    return float(out) if np.ndim(out) == 0 else out


def second_order_gaps(problem, x, y, space: NormedSpace | None = None):
    """Slacks of the two second-order smoothness bounds at (x, y).

    Value bound: F(x) <= F(y) + <grad F(y), x-y> + 1/2 <H(y)(x-y), x-y>
                         + rho/6 ||x-y||_primal^3.
    Gradient bound: ||grad F(y) - grad F(x) - H(x)(y-x)||_dual
                         <= rho/2 ||x-y||_primal^2.

    Returns (value_gap, gradient_gap); both must be >= -1e-9.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if space is None:
        space = NormedSpace.euclidean(x.shape[-1])
    diff = x - y
    dist = np.asarray(space.primal_norm(diff))
    rho = problem.hessian_lipschitz
    quad = 0.5 * np.sum(problem.hessian_diag(y) * diff * diff, axis=-1)
    value_rhs = (problem.value(y) + np.sum(problem.gradient(y) * diff, axis=-1)
                 + quad + rho / 6.0 * dist ** 3)
    value_gap = value_rhs - problem.value(x)
    taylor_err = problem.gradient(y) - problem.gradient(x) - problem.hessian_diag(x) * (y - x)
    grad_gap = rho / 2.0 * dist ** 2 - np.asarray(space.dual_norm(taylor_err))
    if np.ndim(value_gap) == 0:
        return float(value_gap), float(grad_gap)
    return value_gap, grad_gap


def rate_fit_horizons(horizons) -> np.ndarray:
    """``horizons`` as floats, or a ValueError if a rate fit cannot use
    them: fewer than three, one not positive, or a span under 1.5 decades."""
    horizons = np.asarray(horizons, dtype=float)
    if horizons.size < 3:
        raise ValueError("need at least three horizons")
    if np.any(horizons <= 0):
        raise ValueError("horizons must be positive")
    if np.log10(horizons.max() / horizons.min()) < 1.5:
        raise ValueError("horizons must span at least 1.5 decades")
    return horizons


def fit_rate_exponent(horizons, metrics) -> tuple[float, float]:
    """Least-squares slope of log(metric) against log(horizon).

    Requires horizons that ``rate_fit_horizons`` accepts and one strictly
    positive metric per horizon.  Returns (slope, standard error); the
    standard error is the usual OLS estimate, infinite when the fit has no
    residual degrees of freedom beyond exact collinearity.
    """
    horizons = rate_fit_horizons(horizons)
    metrics = np.asarray(metrics, dtype=float)
    if metrics.size != horizons.size or np.any(metrics <= 0):
        raise ValueError("need one positive metric per horizon")
    x = np.log(horizons)
    y = np.log(metrics)
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * xc)
    dof = x.size - 2
    sigma2 = float(np.sum(resid ** 2)) / dof if dof > 0 else 0.0
    return slope, float(np.sqrt(sigma2 / sxx))


def central_diff_gradient(f, w, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function, one axis at a time."""
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def central_diff_hessian_vec(grad_f, w, v, h: float = 1e-6) -> np.ndarray:
    """Central-difference Hessian-vector product from a gradient function."""
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    return (grad_f(w + h * v) - grad_f(w - h * v)) / (2.0 * h)
