"""Independent reference implementations used to cross-check the package.

Everything here is written from the mathematical definitions with plain
numpy, deliberately not sharing code with entot, so a bug in the package
cannot hide in its own oracle.
"""

import itertools
from typing import NamedTuple

import numpy as np


def log_sum_exp(m, axis):
    """Max-subtracted log of the sum of exp(m) along ``axis``."""
    top = np.max(m, axis=axis, keepdims=True)
    return np.squeeze(top + np.log(np.sum(np.exp(m - top), axis=axis, keepdims=True)), axis)


def midpoint_quadrature(fn, lo, hi, n):
    """Midpoint-rule integral of a callable on [lo, hi] with n cells."""
    h = (hi - lo) / n
    x = lo + (np.arange(n) + 0.5) * h
    return float(np.sum(fn(x)) * h)


def bump_mass_oracle(n=2_000_001):
    """Integral of exp(-1/(1-s^2)) over (-1, 1) by a very fine midpoint rule."""
    h = 2.0 / n
    s = -1.0 + (np.arange(n) + 0.5) * h
    inner = 1.0 - s * s
    vals = np.zeros_like(s)
    good = inner > 0
    vals[good] = np.exp(-1.0 / inner[good])
    return float(vals.sum() * h)


def pad_window(m, grid):
    """The density of ``m``, a measure on a window of ``grid`` with the same h, zero-padded onto ``grid``.

    The window's first cell is the one whose left edge is nearest to the window's lo.
    """
    first = int(round((m.grid.lo - grid.lo) / grid.h))
    out = np.zeros(grid.n)
    out[first:first + m.density.size] = m.density
    return out


def newton_lambert_w1(tol=1e-15):
    """Solve w * exp(w) = 1 by Newton iteration from w = 0.5."""
    w = 0.5
    for _ in range(100):
        f = w * np.exp(w) - 1.0
        df = (1.0 + w) * np.exp(w)
        step = f / df
        w -= step
        if abs(step) < tol:
            break
    return float(w)


def phi_log(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    big = s > 1.0
    out[big] = s[big] * np.log(s[big])
    return out


def phi_exp(s):
    s = np.asarray(s, dtype=float)
    out = np.where(s <= 1.0, s, np.exp(np.minimum(s, 700.0) - 1.0))
    return np.where(s == 0.0, 0.0, out)


def luxemburg_bisect(values, weights, phi, n_steps=300):
    """Luxemburg norm inf{t : sum(phi(|v|/t) w) <= 1} by long plain bisection."""
    v = np.abs(np.asarray(values, dtype=float))
    w = np.asarray(weights, dtype=float)
    if not np.any(v > 0):
        return 0.0

    def integral(t):
        with np.errstate(over="ignore"):
            return float(np.sum(phi(v / t) * w))

    hi = max(1.0, float(v.max()))
    while integral(hi) > 1.0:
        hi *= 2.0
        if hi > 1e300:
            raise RuntimeError("no finite bracket")
    lo = hi
    while integral(lo) <= 1.0 and lo > 1e-300:
        lo /= 2.0
    for _ in range(n_steps):
        mid = 0.5 * (lo + hi)
        if integral(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def primal_objective(plan, cost, gamma, h1, h2):
    """Discrete objective: sum (c pi + gamma pi (log pi - 1)) h1 h2, 0 log 0 = 0."""
    pi = np.asarray(plan, dtype=float)
    ent = np.zeros_like(pi)
    pos = pi > 0
    ent[pos] = pi[pos] * (np.log(pi[pos]) - 1.0)
    return float(np.sum((cost * pi + gamma * ent)) * h1 * h2)


def pgd_primal_minimize(cost, mu, nu, gamma, h1, h2, steps=40000, grad_tol=1e-13):
    """Projected gradient descent on the discrete primal over the marginal polytope.

    Operates on all-positive instances where the entropic minimizer is
    interior, so projection onto the affine marginal constraints suffices;
    positivity is kept by step-size backtracking. Returns the objective value.
    """
    n1, n2 = cost.shape
    # Affine constraints A vec(pi) = rhs: row sums * h2 = mu, col sums * h1 = nu.
    A = np.zeros((n1 + n2, n1 * n2))
    for i in range(n1):
        A[i, i * n2:(i + 1) * n2] = h2
    for j in range(n2):
        A[n1 + j, j::n2] = h1
    rhs = np.concatenate([mu, nu])
    At_pinv = np.linalg.pinv(A)

    def project(vec):
        return vec - At_pinv @ (A @ vec - rhs)

    pi = project(np.outer(mu, nu).ravel())
    assert np.all(pi > 0), "projected start left the positive orthant"

    def objective(vec):
        return primal_objective(vec.reshape(n1, n2), cost, gamma, h1, h2)

    current = objective(pi)
    eta = 1.0
    for _ in range(steps):
        grad = (cost.ravel() + gamma * np.log(pi)) * h1 * h2
        moved = False
        trial_eta = eta
        for _ in range(60):
            cand = project(pi - trial_eta * grad)
            if np.all(cand > 0):
                val = objective(cand)
                if val <= current:
                    pi, current, moved = cand, val, True
                    eta = trial_eta * 1.5
                    break
            trial_eta *= 0.5
        if not moved:
            break
        direction = project(pi - grad) - pi
        if float(np.max(np.abs(direction))) < grad_tol:
            break
    return current


def permutation_ot(points_a, points_b, cost_fn):
    """Exact OT value for two equal-count, equal-mass atom lists (n <= 8)."""
    xs = list(points_a)
    ys = list(points_b)
    assert len(xs) == len(ys) <= 8
    m = 1.0 / len(xs)
    best = np.inf
    for perm in itertools.permutations(range(len(ys))):
        total = sum(cost_fn(xs[i], ys[perm[i]]) for i in range(len(xs))) * m
        best = min(best, total)
    return float(best)


def sinkhorn_logsumexp(cost, mu, nu, gamma, h1, h2, tol, max_iter=100000):
    """Plain log-domain Sinkhorn, every pass a max-subtracted log-sum-exp.

    Starts from b = 1 and stops once the weighted L1 error of the second
    marginal after an a-pass is at most tol. Returns (plan, iterations,
    residuals), the residuals being that error after each a-pass.
    """
    log_k = -np.asarray(cost, dtype=float) / gamma
    log_b = np.zeros(len(nu))
    residuals = []
    for it in range(1, max_iter + 1):
        log_a = np.log(mu) - log_sum_exp(log_k + log_b[None, :] + np.log(h2), 1)
        col = log_sum_exp(log_k + log_a[:, None] + np.log(h1), 0)
        residuals.append(float(np.sum(np.abs(np.exp(log_b + col) - nu)) * h2))
        if residuals[-1] <= tol:
            break
        log_b = np.log(nu) - col
    return np.exp(log_a[:, None] + log_k + log_b[None, :]), it, residuals


class SandwichCheck(NamedTuple):
    """Result of the two-sided potential bound check.

    ``k_const`` is log(cbar/cunder) built from the extremes of the
    denominator sums; ``max_violation`` is how far any support cell sits
    outside [log mu - k, log mu + k] (nonpositive when the bound holds).
    """

    k_const: float
    max_violation: float
    holds: bool


def potential_sandwich_check(log_a, log_b, cost, gamma, mu, h2, tol=1e-9):
    """Check log mu - k <= alpha/gamma <= log mu + k on the support of mu.

    Here alpha/gamma = log a and k = log(cbar/cunder) with cunder, cbar the
    smallest and largest of the sums c_i = sum_j exp(-cost_ij/gamma) b_j h2
    over support cells, b = exp(log_b) on its finite cells. Expects a
    gauge-normalized state (sum_i a_i h1 = 1); the normalization pins
    cunder <= 1 <= cbar, which makes the two-sided bound valid.
    """
    smask = np.asarray(mu) > 0
    tmask = np.isfinite(log_b)
    log_k = -np.asarray(cost, dtype=float)[np.ix_(smask, tmask)] / gamma
    log_c = log_sum_exp(log_k + log_b[tmask][None, :] + np.log(h2), 1)
    k_const = float(np.max(log_c) - np.min(log_c))
    log_mu = np.log(np.asarray(mu)[smask])
    log_a = log_a[smask]
    upper = np.max(log_a - (log_mu + k_const))
    lower = np.max((log_mu - k_const) - log_a)
    max_violation = float(max(upper, lower))
    return SandwichCheck(k_const, max_violation, max_violation <= tol)


def support_check(plan, mu, nu, threshold=1e-300):
    """True iff plan entries exceed threshold exactly on supp mu x supp nu."""
    expected = np.outer(np.asarray(mu) > 0, np.asarray(nu) > 0)
    return bool(np.array_equal(np.asarray(plan) > threshold, expected))
