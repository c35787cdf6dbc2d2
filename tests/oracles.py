"""Independent brute-force minimizers and closed-form metrics used as test
oracles.

Nothing here calls into the package's prox implementations or builds a metric
through the package; the point is to check those against a slow but dumb
route.
"""

import numpy as np
from scipy import optimize


def bruteforce_prox_1d_separable(penalty_1d, gamma, x, lo=-12.0, hi=12.0, n=480001):
    """Coordinate-wise argmin of gamma*penalty(y_i) + 0.5 (y_i - x_i)^2.

    Works for any separable penalty given as a vectorized 1-d function.
    Resolution is (hi - lo) / (n - 1), well under the comparison tolerance.
    """
    grid = np.linspace(lo, hi, n)
    out = np.empty_like(np.asarray(x, dtype=float))
    for i, xi in enumerate(np.asarray(x, dtype=float)):
        vals = gamma * penalty_1d(grid) + 0.5 * (grid - xi) ** 2
        out[i] = grid[np.argmin(vals)]
    return out


def bruteforce_prox_box(lo, hi, x):
    """Constrained quadratic solve via a bounded smooth optimizer."""
    x = np.asarray(x, dtype=float)
    res = optimize.minimize(
        lambda y: 0.5 * float(np.sum((y - x) ** 2)),
        x0=np.clip(x, lo, hi),
        jac=lambda y: y - x,
        bounds=list(zip(lo, hi)),
        method="L-BFGS-B",
        options={"ftol": 1e-16, "gtol": 1e-12},
    )
    return res.x


def bruteforce_prox_2d(objective, span=20.0, coarse=41):
    """Grid scan over [-span, span]^2 followed by a derivative-free refine."""
    axis = np.linspace(-span, span, coarse)
    best, best_val = None, np.inf
    for a in axis:
        for b in axis:
            v = objective(np.array([a, b]))
            if v < best_val:
                best, best_val = np.array([a, b]), v
    res = optimize.minimize(objective, best, method="Nelder-Mead",
                            options={"xatol": 1e-9, "fatol": 1e-14, "maxiter": 4000})
    return res.x


def finite_difference(fun, t, step=1e-6):
    return (fun(t + step) - fun(t - step)) / (2.0 * step)


def metric_matrix(M, t, B):
    """M(t) as a dense matrix, written from the closed form of its kind; ``B``
    is the problem's second operator as a matrix (read by a prox-friendly M)."""
    eye = np.eye(M.dim)
    if M.kind == "zero":
        return 0.0 * eye
    if M.kind == "scaled_identity":
        return M.mu.value_at(t) * eye
    if M.kind == "prox_friendly":
        return eye / M.tau.value_at(t) - M.c.value_at(t) * (B.T @ B)
    if M.kind == "constant_dense":
        return M.M.copy()
    raise ValueError(f"no closed form for metric kind {M.kind!r}")


def metric_derivative(M, t, B):
    """M'(t) as a dense matrix, from the same closed forms as metric_matrix."""
    eye = np.eye(M.dim)
    if M.kind == "scaled_identity":
        return M.mu.derivative_at(t) * eye
    if M.kind == "prox_friendly":
        tau = M.tau.value_at(t)
        return -M.tau.derivative_at(t) / (tau * tau) * eye - M.c.derivative_at(t) * (B.T @ B)
    if M.kind in ("zero", "constant_dense"):
        return 0.0 * eye
    raise ValueError(f"no closed form for metric kind {M.kind!r}")


def step_params(sched, t, B):
    """``(mu1, K, c, tau)`` for ``prox_ama_step`` at time t, read from the
    closed forms: mu1 is M1's factor, and K is M2(t), or None for a zero M2
    and for a prox-friendly one, whose step tau is given instead."""
    M1, M2 = sched.M1, sched.M2
    mu1 = M1.mu.value_at(t) if M1.kind == "scaled_identity" else 0.0
    tau = M2.tau.value_at(t) if M2.kind == "prox_friendly" else None
    K = None if M2.kind in ("zero", "prox_friendly") else metric_matrix(M2, t, B)
    return mu1, K, sched.c.value_at(t), tau
