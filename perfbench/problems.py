"""Seeded inputs and plain-numpy references for the benchmark.

Nothing here imports entot: the references are written from the
definitions of the discrete problem, so that they can check the
program's outputs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: amplitude of the sin/cos pair, as in the README's library sketch
AMPLITUDE = 0.4
#: relative size of the seeded smooth perturbation; at 0.03 the total
#: scaling iterations of a sweep move by under 1% between seeds, so the
#: seed changes the inputs without changing the amount of work
PERTURBATION = 0.03
_MODES = np.arange(2, 6)


def smooth_pair(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell centers and the seeded sin/cos densities on n cells of [0, 1].

    Each density is 1 + 0.4 sin (or cos) of 2 pi x plus a random
    combination of the modes 2..5 with coefficients drawn from the seed,
    renormalized to unit midpoint mass.
    """
    rng = np.random.default_rng([seed, n])
    x = (np.arange(n) + 0.5) / n

    def density(base: np.ndarray) -> np.ndarray:
        coef = rng.normal(size=_MODES.size) / _MODES
        phase = rng.uniform(size=_MODES.size)
        waves = np.cos(2 * np.pi * (_MODES[:, None] * x[None, :] + phase[:, None]))
        f = base + PERTURBATION * (coef @ waves)
        if np.any(f <= 0):
            raise ValueError(f"seed {seed} gave a non-positive density")
        return f / (f.sum() / n)

    mu = density(1.0 + AMPLITUDE * np.sin(2 * np.pi * x))
    nu = density(1.0 + AMPLITUDE * np.cos(2 * np.pi * x))
    return x, mu, nu


def measure_csv(x: np.ndarray, density: np.ndarray) -> str:
    """The ``x,density`` CSV text of a grid measure, every float in full."""
    lines = ["x,density"]
    lines += [f"{float(a)!r},{float(d)!r}" for a, d in zip(x, density)]
    return "\n".join(lines) + "\n"


def sinkhorn_plan(
    x: np.ndarray, mu: np.ndarray, nu: np.ndarray, gamma: float, tol: float = 1e-12
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Plan, cost table and scaling vectors of the entropic problem by direct Sinkhorn.

    Plain alternate scaling a = mu / (K b h), b = nu / (K^T a h) with
    K = exp(-(x - y)^2 / gamma), run until the second marginal's weighted
    L1 error is at most ``tol``; the plan is pi = a_i K_ij b_j.
    """
    n = x.size
    h = 1.0 / n
    c = (x[:, None] - x[None, :]) ** 2
    k = np.exp(-c / gamma)
    b = np.ones(n)
    for _ in range(100000):
        a = mu / (k @ b * h)
        s = k.T @ a * h
        if np.abs(b * s - nu).sum() * h <= tol:
            break
        b = nu / s
    else:
        raise RuntimeError(f"reference Sinkhorn did not converge at gamma = {gamma}")
    return a[:, None] * k * b[None, :], c, a, b


def sinkhorn_reference(
    x: np.ndarray, mu: np.ndarray, nu: np.ndarray, gamma: float, tol: float = 1e-12
) -> Tuple[float, float]:
    """Primal value of the entropic problem, and the scale of its error.

    The primal value is sum c pi h^2 + gamma sum pi (log pi - 1) h^2 on
    the plan of :func:`sinkhorn_plan`. The second value is
    osc(alpha) + osc(beta), the oscillations of the potentials
    gamma log a and gamma log b. To first order a plan whose marginals
    are off by eps in weighted L1 has a primal value off by at most
    eps * (osc(alpha) + osc(beta)) / 2, which sets the tolerance the
    checks derive from the program's ``tol``.
    """
    pi, c, a, b = sinkhorn_plan(x, mu, nu, gamma, tol)
    w = 1.0 / x.size ** 2
    pos = pi > 0
    primal = float((c * pi).sum() * w + gamma * (pi[pos] * (np.log(pi[pos]) - 1.0)).sum() * w)
    scale = float(np.ptp(gamma * np.log(a)) + np.ptp(gamma * np.log(b)))
    return primal, scale


def monotone_cost(x: np.ndarray, p: np.ndarray, y: np.ndarray, q: np.ndarray) -> float:
    """Exact squared-distance transport cost between point weights on the line.

    The monotone (north-west corner) coupling of sorted points is optimal
    for a cost convex in x - y. ``p`` and ``q`` are the cell masses.
    """
    i = j = 0
    ri, rj = p[0], q[0]
    total = 0.0
    while i < p.size and j < q.size:
        t = min(ri, rj)
        total += t * (x[i] - y[j]) ** 2
        ri -= t
        rj -= t
        if ri <= 0:
            i += 1
            ri = p[i] if i < p.size else 0.0
        else:
            j += 1
            rj = q[j] if j < q.size else 0.0
    return float(total)
