"""Acceptance checks: one test per criterion, tolerances as stated.

The terminal summary (see conftest) prints one PASS/FAIL line per
criterion after the run.
"""

import time

import numpy as np
import pytest

from entot.measures import AtomicMeasure, Grid1D, GridMeasure
from entot.orlicz import PHI_EXP, PHI_LOG, luxemburg_norm, neg_entropy
from entot.measures import ProductDensity
from entot.solver import (
    CostField,
    DualState,
    cost_field,
    dual_value,
    gibbs_kernel,
    solve,
    solve_logdomain,
)
from entot.gamma_limit import ExtendedDomain, Mollifier, gamma_sweep, power_schedule, smooth_marginal

import oracles
from bounds import check_projection_bound


def smooth_probability(grid, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=3)
    x = grid.centers
    d = 1.0 + 0.45 * np.tanh(c[0] * np.sin(2 * np.pi * x) + c[1] * np.cos(4 * np.pi * x) + 0.5 * c[2])
    return GridMeasure(grid, d, renormalize=True)


@pytest.fixture(scope="module")
def duality_runs():
    """Ten random smooth pairs, gamma in {1, 0.1}, solved once at tol 1e-10."""
    g = Grid1D(0.0, 1.0, 128)
    c = cost_field(g, g, "sqdist")
    runs = []
    start = time.perf_counter()
    for seed in range(10):
        mu = smooth_probability(g, 2 * seed)
        nu = smooth_probability(g, 2 * seed + 1)
        for gamma in (1.0, 0.1):
            res = solve_logdomain(mu, nu, c, gamma, tol=1e-10)
            runs.append(res.report)
    elapsed = time.perf_counter() - start
    return runs, elapsed


@pytest.mark.criterion(1, "trivial fixed point solved exactly in one pass")
def test_trivial_fixed_point():
    g = Grid1D(0.0, 1.0, 64)
    mu = GridMeasure(g, np.ones(64))
    nu = GridMeasure(g, np.ones(64))
    c = CostField(g, g, np.zeros((64, 64)))
    start = time.perf_counter()
    res = solve(mu, nu, c, 0.5)
    elapsed = time.perf_counter() - start
    assert res.report.iterations <= 2
    assert np.max(np.abs(res.plan.values - 1.0)) <= 1e-12
    assert abs(res.report.primal_value - (-0.5)) <= 1e-12
    assert abs(res.report.dual_value - (-0.5)) <= 1e-12
    assert abs(res.report.gap) <= 1e-12
    assert elapsed < 0.1


@pytest.mark.criterion(2, "strong duality: |primal - dual| <= 1e-6 on 20 random solves")
def test_strong_duality(duality_runs):
    runs, elapsed = duality_runs
    assert len(runs) == 20
    for report in runs:
        assert report.converged
        assert abs(report.gap) <= 1e-6
    assert elapsed < 10.0


@pytest.mark.criterion(3, "optimality-system residuals r1, r2 <= 1e-8 on the same solves")
def test_optimality_residuals(duality_runs):
    runs, _ = duality_runs
    for report in runs:
        r1, r2 = report.optimality_residual
        assert r1 <= 1e-8
        assert r2 <= 1e-8


@pytest.mark.criterion(4, "objective matches projected-gradient minimizer within 1e-5")
def test_brute_force_equivalence():
    start = time.perf_counter()
    shapes = [(4, 4), (2, 8), (8, 2)]
    for idx, (n1, n2) in enumerate(shapes):
        rng = np.random.default_rng(100 + idx)
        g1 = Grid1D(0.0, 1.0, n1)
        g2 = Grid1D(0.0, 1.0, n2)
        mu = GridMeasure(g1, rng.random(n1) + 0.5, renormalize=True)
        nu = GridMeasure(g2, rng.random(n2) + 0.5, renormalize=True)
        c = cost_field(g1, g2, "sqdist")
        res = solve_logdomain(mu, nu, c, 1.0, tol=1e-12)
        ref = oracles.pgd_primal_minimize(
            c.values, mu.density, nu.density, 1.0, g1.h, g2.h
        )
        assert abs(res.report.primal_value - ref) <= 1e-5
    assert time.perf_counter() - start < 30.0


@pytest.mark.criterion(5, "gauge rescaling leaves plan (1e-12) and dual value (1e-10) unchanged")
def test_gauge_invariance():
    g = Grid1D(0.0, 1.0, 64)
    mu = smooth_probability(g, 31)
    nu = smooth_probability(g, 32)
    c = cost_field(g, g, "sqdist")
    gamma = 0.4
    K = gibbs_kernel(c, gamma)
    res = solve_logdomain(mu, nu, c, gamma, tol=1e-12)
    base_plan = res.plan.values
    base_dual = dual_value(res.state, K, mu, nu)
    for scale in (1e-3, 1e3):
        state = res.state
        rescaled = DualState(
            state.a / scale,
            state.b * scale,
            state.log_a - np.log(scale),
            state.log_b + np.log(scale),
        )
        plan = np.outer(rescaled.a, rescaled.b) * K.values
        assert np.max(np.abs(plan - base_plan)) <= 1e-12
        assert abs(dual_value(rescaled, K, mu, nu) - base_dual) <= 1e-10


@pytest.mark.criterion(6, "plan support is exactly supp mu x supp nu")
def test_support_structure():
    g = Grid1D(0.0, 1.0, 20)
    dmu = np.zeros(20)
    dmu[3:9] = 1.0
    dmu[14:17] = 2.0
    dnu = np.zeros(20)
    dnu[0:5] = 1.5
    dnu[11:19] = 1.0
    mu = GridMeasure(g, dmu, renormalize=True)
    nu = GridMeasure(g, dnu, renormalize=True)
    c = cost_field(g, g, "sqdist")
    res = solve_logdomain(mu, nu, c, 0.3, tol=1e-10)
    assert oracles.support_check(res.plan.values, mu.density, nu.density)
    expected = np.outer(dmu > 0, dnu > 0)
    assert np.array_equal(res.plan.values > 1e-300, expected)


@pytest.mark.criterion(7, "Orlicz closed forms, Lambert-W value, and norm inequalities")
def test_orlicz_suite():
    # closed form (phi_exp): norm of the constant 1 on measure-L domains
    for length, expected in [(0.5, 1.0 / (1.0 + np.log(2.0))), (1.0, 1.0), (2.0, 2.0)]:
        g = Grid1D(0.0, length, 200)
        got = luxemburg_norm(GridMeasure(g, np.ones(200)), PHI_EXP).value
        assert abs(got - expected) <= 1e-8

    # norm of the constant 1 under the L log L rule equals Lambert W(1)
    g = Grid1D(0.0, 1.0, 200)
    got = luxemburg_norm(GridMeasure(g, np.ones(200)), PHI_LOG).value
    w1 = oracles.newton_lambert_w1()
    assert abs(got - w1) <= 1e-8

    rng = np.random.default_rng(7)
    for trial in range(100):
        # norm-vs-modular inequality on piecewise-constant input
        n = int(rng.integers(4, 40))
        length = float(rng.uniform(0.2, 3.0))
        gu = Grid1D(0.0, length, n)
        u = rng.random(n) * 5.0 + 0.5
        norm_u = luxemburg_norm(GridMeasure(gu, u), PHI_EXP).value
        if norm_u >= 1.0:
            modular = float(np.sum(PHI_EXP(u) * gu.h))
            assert modular >= norm_u - 1e-8

        # marginal projections stay bounded by the product norm
        n1 = int(rng.integers(3, 10))
        n2 = int(rng.integers(3, 10))
        p = ProductDensity(
            Grid1D(0.0, float(rng.uniform(0.3, 2.0)), n1),
            Grid1D(0.0, float(rng.uniform(0.3, 2.0)), n2),
            rng.random((n1, n2)) * 4.0,
        )
        first, second = check_projection_bound(p)
        assert first.holds, (trial, first.lhs, first.rhs)
        assert second.holds, (trial, second.lhs, second.rhs)


@pytest.mark.criterion(8, "log-domain solves gamma = 0.005; direct/log agree at gamma = 0.5")
def test_logdomain_robustness():
    g = Grid1D(0.0, 1.0, 128)
    mu = smooth_probability(g, 41)
    nu = smooth_probability(g, 42)
    c = cost_field(g, g, "sqdist")
    start = time.perf_counter()
    res = solve_logdomain(mu, nu, c, 0.005, tol=1e-9)
    assert res.report.converged
    assert res.report.residual_history[-1] <= 1e-9
    p_direct = solve(mu, nu, c, 0.5, tol=1e-10).plan.values
    p_log = solve_logdomain(mu, nu, c, 0.5, tol=1e-10).plan.values
    assert np.max(np.abs(p_direct - p_log)) <= 1e-8
    assert time.perf_counter() - start < 20.0


@pytest.mark.criterion(9, "coupled schedule drives the transport value to the reference")
def test_gamma_limit_coupled():
    mu = AtomicMeasure([(0.0, 1.0)])
    nu = AtomicMeasure([(1.0, 1.0)])
    schedule = [(0.2, 0.2), (0.1, 0.1), (0.05, 0.05), (0.025, 0.025)]
    ext = ExtendedDomain.extend(Grid1D(0.0, 1.0, 256), 0.2)
    start = time.perf_counter()
    points = gamma_sweep(mu, nu, "sqdist", schedule, ext)
    elapsed = time.perf_counter() - start
    assert all(p.status == "ok" for p in points)
    assert all(p.unregularized_reference == pytest.approx(1.0) for p in points)
    gaps = [abs(p.regularized_value - 1.0) for p in points]
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 0.05
    assert elapsed < 60.0


@pytest.mark.criterion(10, "delta = 0.01 gamma^2 keeps the weighted entropy term growing")
def test_gamma_limit_divergent():
    mu = AtomicMeasure([(0.0, 1.0)])
    nu = AtomicMeasure([(1.0, 1.0)])
    schedule = power_schedule([0.025, 0.05, 0.1, 0.2], coeff=0.01, exponent=2.0)
    smallest = min(d for _, d in schedule)
    n = 640_000  # resolves delta = 0.01 * 0.025^2 with h <= delta/4
    assert (1.0 / n) <= smallest / 4
    ext = ExtendedDomain.extend(Grid1D(0.0, 1.0, n), max(d for _, d in schedule))
    start = time.perf_counter()
    points = gamma_sweep(mu, nu, "sqdist", schedule, ext)
    elapsed = time.perf_counter() - start
    assert all(p.status == "ok" for p in points)
    terms = [p.entropy_term for p in points]
    assert all(b > a for a, b in zip(terms, terms[1:])), terms
    assert elapsed < 60.0


@pytest.mark.criterion(11, "neg-entropy of a smoothed atom grows as delta halves")
def test_entropy_blowup_witness():
    atom = AtomicMeasure([(0.5, 1.0)])
    deltas = [0.2, 0.1, 0.05, 0.025, 0.0125]
    ext = ExtendedDomain.extend(Grid1D(0.0, 1.0, 1024), max(deltas))
    entropies = []
    for delta in deltas:
        sm = smooth_marginal(atom, delta, ext)
        assert abs(sm.mass - 1.0) <= 1e-6
        entropies.append(neg_entropy(sm))
    assert all(b > a for a, b in zip(entropies, entropies[1:])), entropies
