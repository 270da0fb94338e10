"""Checks of the CLI outputs the benchmark produces.

Each check compares an output against a computation made apart from
entot (see problems.py) or against a property the method must have, and
returns a list of failure messages; an empty list passes. The checks
run outside the timed region.

Run this file to self-test the checks: each must pass a correct output
and reject a deliberately corrupted one.

    python3 perfbench/checks.py
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

import problems

GAP_TOL = 1e-6
RESIDUAL_TOL = 1e-8
MARGINAL_TOL = 1e-8
PRIMAL_RTOL = 1e-9
#: regularized values of the gamma-limit sweep may dip below the
#: unregularized cost by rounding only
LIMIT_FLOOR = 1.0 - 1e-9
ENTROPY_SLOPE_TOL = 0.02
#: margin on the first-order bound of problems.sinkhorn_reference
AGREEMENT_SAFETY = 10.0


# --- sweep-gamma ----------------------------------------------------------

def sweep_status(rows: Sequence[dict]) -> List[str]:
    return [f"gamma {r['gamma']}: status {r['status']!r}" for r in rows if r["status"] != "ok"]


def sweep_certificates(rows: Sequence[dict]) -> List[str]:
    """Strong duality and both marginal equations at every point."""
    out = []
    for r in rows:
        if not abs(r["gap"]) <= GAP_TOL:
            out.append(f"gamma {r['gamma']}: |gap| {abs(r['gap']):.3e} > {GAP_TOL}")
        if not max(r["r1"], r["r2"]) <= RESIDUAL_TOL:
            out.append(f"gamma {r['gamma']}: residuals {r['r1']:.3e}, {r['r2']:.3e} > {RESIDUAL_TOL}")
    return out


def sweep_agreement(rows: Sequence[dict], reference: Dict[float, tuple], tol: float) -> List[str]:
    """The primal against a plain direct Sinkhorn, within a tolerance from ``tol``.

    ``reference`` maps gamma to (primal, error scale) from
    problems.sinkhorn_reference.
    """
    out = []
    for r in rows:
        ref, scale = reference[r["gamma"]]
        bound = AGREEMENT_SAFETY * tol * max(scale, 1.0)
        if not abs(r["primal"] - ref) <= bound:
            out.append(f"gamma {r['gamma']}: primal {r['primal']!r} vs reference {ref!r}, bound {bound:.1e}")
    return out


def sweep_concavity(rows: Sequence[dict], slack: float) -> List[str]:
    """The primal is concave in gamma: a minimum of functions affine in gamma."""
    pts = sorted((r["gamma"], r["primal"]) for r in rows)
    out = []
    for (g0, p0), (g1, p1), (g2, p2) in zip(pts, pts[1:], pts[2:]):
        chord = p0 + (p2 - p0) * (g1 - g0) / (g2 - g0)
        if not p1 >= chord - slack:
            out.append(f"gamma {g1}: primal {p1!r} below the chord {chord!r}")
    return out


def sweep_lower_bound(rows: Sequence[dict], w0: float) -> List[str]:
    """primal >= W0 - gamma, since t (log t - 1) >= -1 on a unit-area square."""
    return [
        f"gamma {r['gamma']}: primal {r['primal']!r} < W0 - gamma = {w0 - r['gamma']!r}"
        for r in rows
        if not r["primal"] >= w0 - r["gamma"]
    ]


def check_sweep(rows: Sequence[dict], reference: Dict[float, tuple], w0: float, tol: float) -> List[str]:
    if sorted(r["gamma"] for r in rows) != sorted(reference):
        return [f"swept gammas {[r['gamma'] for r in rows]} differ from {sorted(reference)}"]
    return (
        sweep_status(rows)
        + sweep_certificates(rows)
        + sweep_agreement(rows, reference, tol)
        + sweep_concavity(rows, 3 * AGREEMENT_SAFETY * tol)
        + sweep_lower_bound(rows, w0)
    )


# --- gamma-limit ----------------------------------------------------------

def limit_status(rows: Sequence[dict], reference: float) -> List[str]:
    out = [f"gamma {r['gamma']}: status {r['status']!r}" for r in rows if r["status"] != "ok"]
    out += [
        f"gamma {r['gamma']}: reference {r['reference']!r} != {reference!r}"
        for r in rows
        if not abs(r["reference"] - reference) <= 1e-12
    ]
    return out


def limit_approach(rows: Sequence[dict]) -> List[str]:
    """Values stay above the unregularized cost and fall toward it with gamma."""
    pts = sorted((r["gamma"], r["regularized_value"]) for r in rows)
    out = [f"gamma {g}: value {v!r} < {LIMIT_FLOOR}" for g, v in pts if not v >= LIMIT_FLOOR]
    out += [
        f"value at gamma {g0} ({v0!r}) not below the one at gamma {g1} ({v1!r})"
        for (g0, v0), (g1, v1) in zip(pts, pts[1:])
        if not v0 < v1
    ]
    return out


def limit_entropy_slope(rows: Sequence[dict]) -> List[str]:
    """A width-delta bump has neg-entropy -log delta + const."""
    pts = sorted(rows, key=lambda r: r["delta"])
    out = []
    for key in ("entropy_mu_delta", "entropy_nu_delta"):
        for r0, r1 in zip(pts, pts[1:]):
            got = r0[key] - r1[key]
            want = math.log(r1["delta"] / r0["delta"])
            if not abs(got - want) <= ENTROPY_SLOPE_TOL:
                out.append(f"{key} step {got!r} between deltas {r0['delta']} and {r1['delta']}, want {want!r}")
    return out


def check_limit(rows: Sequence[dict], gammas: Sequence[float], reference: float) -> List[str]:
    if sorted(r["gamma"] for r in rows) != sorted(gammas):
        return [f"swept gammas {[r['gamma'] for r in rows]} differ from {sorted(gammas)}"]
    return limit_status(rows, reference) + limit_approach(rows) + limit_entropy_slope(rows)


# --- solve --plan, then check-optimality ------------------------------------

def plan_shape(table: np.ndarray, n: int) -> List[str]:
    return [] if table.shape == (n * n, 3) else [f"plan table has shape {table.shape}, want ({n * n}, 3)"]


def plan_marginals(table: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> List[str]:
    n = mu.size
    h = 1.0 / n
    pi = table[:, 2].reshape(n, n)
    r1 = float(np.abs(pi.sum(axis=1) * h - mu).sum() * h)
    r2 = float(np.abs(pi.sum(axis=0) * h - nu).sum() * h)
    if max(r1, r2) <= MARGINAL_TOL:
        return []
    return [f"plan marginals off by {r1:.3e}, {r2:.3e} > {MARGINAL_TOL}"]


def plan_primal(table: np.ndarray, gamma: float, reported: Dict[str, float]) -> List[str]:
    """The primal of the written plan, recomputed, against each reported primal.

    The tolerance is relative to |cost part| + gamma |entropy part|, the
    size of the terms the primal is the sum of.
    """
    n = math.isqrt(table.shape[0])
    h = 1.0 / n
    c = (table[:, 0] - table[:, 1]) ** 2
    pi = table[:, 2]
    pos = pi > 0
    cost = float((c * pi).sum() * h * h)
    ent = float((pi[pos] * (np.log(pi[pos]) - 1.0)).sum() * h * h)
    primal = cost + gamma * ent
    bound = PRIMAL_RTOL * (abs(cost) + gamma * abs(ent))
    return [
        f"{who} primal {value!r} vs recomputed {primal!r}, bound {bound:.1e}"
        for who, value in reported.items()
        if not abs(value - primal) <= bound
    ]


def check_plan(table: np.ndarray, mu: np.ndarray, nu: np.ndarray, gamma: float,
               reported: Dict[str, float]) -> List[str]:
    shape = plan_shape(table, mu.size)
    if shape:
        return shape
    return plan_marginals(table, mu, nu) + plan_primal(table, gamma, reported)


# --- self-test ----------------------------------------------------------------

def self_test() -> List[str]:
    """Run every check on a correct and on a corrupted output; list the misses."""
    misses: List[str] = []

    def expect(name: str, good: List[str], bad: List[str]) -> None:
        if good:
            misses.append(f"{name} rejected a correct output: {good}")
        if not bad:
            misses.append(f"{name} accepted a corrupted output")

    tol = 1e-9
    x, mu, nu = problems.smooth_pair(32, 0)
    h = 1.0 / x.size
    gammas = (0.1, 0.05, 0.02)
    reference = {g: problems.sinkhorn_reference(x, mu, nu, g) for g in gammas}
    w0 = problems.monotone_cost(x, mu * h, x, nu * h)
    rows = [dict(gamma=g, primal=reference[g][0], gap=0.0, r1=0.0, r2=0.0, status="ok") for g in gammas]

    def changed(i: int, **fields) -> List[dict]:
        return [dict(r, **fields) if k == i else r for k, r in enumerate(rows)]

    expect("sweep_status", sweep_status(rows), sweep_status(changed(0, status="failed: x")))
    expect("sweep_certificates", sweep_certificates(rows), sweep_certificates(changed(1, gap=1e-5)))
    expect("sweep_certificates", sweep_certificates(rows), sweep_certificates(changed(1, r2=1e-7)))
    expect("sweep_agreement", sweep_agreement(rows, reference, tol),
           sweep_agreement(changed(2, primal=reference[0.02][0] + 1e-6), reference, tol))
    expect("sweep_concavity", sweep_concavity(rows, 0.0),
           sweep_concavity(changed(1, primal=reference[0.05][0] - 0.01), 0.0))
    expect("sweep_lower_bound", sweep_lower_bound(rows, w0),
           sweep_lower_bound(changed(0, primal=w0 - 0.2), w0))

    deltas = [0.01 * g * g for g in (0.025, 0.05, 0.1)]
    limit = [
        dict(gamma=g, delta=d, reference=1.0, regularized_value=1.0 + g ** 4,
             entropy_mu_delta=3.0 - math.log(d), entropy_nu_delta=3.0 - math.log(d), status="ok")
        for g, d in zip((0.025, 0.05, 0.1), deltas)
    ]
    bad_ref = [dict(limit[0], reference=0.5)] + limit[1:]
    below = [dict(limit[0], regularized_value=1.0 - 1e-6)] + limit[1:]
    rising = [dict(limit[0], regularized_value=2.0)] + limit[1:]
    skewed = [dict(limit[0], entropy_mu_delta=limit[0]["entropy_mu_delta"] + 0.1)] + limit[1:]
    expect("limit_status", limit_status(limit, 1.0), limit_status(bad_ref, 1.0))
    expect("limit_approach", limit_approach(limit), limit_approach(below))
    expect("limit_approach", limit_approach(limit), limit_approach(rising))
    expect("limit_entropy_slope", limit_entropy_slope(limit), limit_entropy_slope(skewed))

    gamma = 0.1
    pi = problems.sinkhorn_plan(x, mu, nu, gamma)[0]
    table = np.column_stack([np.repeat(x, x.size), np.tile(x, x.size), pi.ravel()])
    primal = problems.sinkhorn_reference(x, mu, nu, gamma)[0]
    skew = table.copy()
    skew[0, 2] *= 1.01
    expect("plan_shape", plan_shape(table, x.size), plan_shape(table[:-1], x.size))
    expect("plan_marginals", plan_marginals(table, mu, nu), plan_marginals(skew, mu, nu))
    expect("plan_primal", plan_primal(table, gamma, {"solve": primal}),
           plan_primal(table, gamma, {"solve": primal * (1 + 1e-6)}))
    return misses


if __name__ == "__main__":
    import sys

    found = self_test()
    for line in found:
        print(line)
    print("self-test:", "FAILED" if found else "every check passed a correct output and rejected a corrupted one")
    sys.exit(1 if found else 0)
