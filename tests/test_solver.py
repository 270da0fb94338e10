import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entot.measures import Grid1D, GridMeasure, marginals
from entot.solver import (
    ConvergenceError,
    CostField,
    DirectOverflowError,
    DivergedScalingError,
    DualState,
    ParameterError,
    cost_field,
    dual_value,
    gibbs_kernel,
    normalize_gauge,
    optimality_residual,
    potential_sandwich_check,
    potentials_from_state,
    primal_value,
    sinkhorn_step_a,
    sinkhorn_step_b,
    solve,
    solve_logdomain,
    support_check,
)

import oracles


def unit_grid(n):
    return Grid1D(0.0, 1.0, n)


def smooth_pair(n=32, seed=0):
    rng = np.random.default_rng(seed)
    g = unit_grid(n)
    x = g.centers
    c0, c1, c2 = rng.normal(size=3)
    d1 = 1.0 + 0.45 * np.tanh(c0 * np.sin(2 * np.pi * x) + c1 * np.cos(4 * np.pi * x))
    d2 = 1.0 + 0.45 * np.tanh(c1 * np.sin(2 * np.pi * x) + 0.5 * c2)
    mu = GridMeasure(g, d1, renormalize=True)
    nu = GridMeasure(g, d2, renormalize=True)
    return mu, nu, cost_field(g, g, "sqdist")


def test_cost_field_rules():
    g1 = Grid1D(0.0, 1.0, 2)
    g2 = Grid1D(0.0, 1.0, 2)
    sq = cost_field(g1, g2, "sqdist")
    ab = cost_field(g1, g2, "abs")
    assert_allclose(sq.values, [[0.0, 0.25], [0.25, 0.0]])
    assert_allclose(ab.values, [[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ParameterError):
        cost_field(g1, g2, "cubic")


def test_cost_field_validation():
    g = unit_grid(2)
    with pytest.raises(ValueError):
        CostField(g, g, np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        CostField(g, g, -np.ones((2, 2)))
    with pytest.raises(ValueError):
        CostField(g, g, np.full((2, 2), np.inf))


def test_gibbs_kernel_values():
    g = unit_grid(2)
    c = cost_field(g, g, "sqdist")
    K = gibbs_kernel(c, 0.5)
    assert_allclose(K.values, np.exp(-c.values / 0.5))
    assert_allclose(K.log_values, -c.values / 0.5)
    with pytest.raises(ParameterError):
        gibbs_kernel(c, 0.0)


def test_step_a_uniform_fixed_point():
    g = unit_grid(16)
    mu = GridMeasure(g, np.ones(16))
    K = gibbs_kernel(CostField(g, g, np.zeros((16, 16))), 0.7)
    a = sinkhorn_step_a(K, np.ones(16), mu)
    assert_allclose(a, np.ones(16), atol=1e-15)


def test_step_a_two_point_hand_value():
    # h = 1 grid so the quadrature weight drops out of the update
    g = Grid1D(0.0, 2.0, 2)
    mu = GridMeasure(g, np.array([0.5, 0.5]))
    K = gibbs_kernel(cost_field(g, g, "abs"), 1.0)
    assert_allclose(K.values, [[1.0, np.exp(-1.0)], [np.exp(-1.0), 1.0]])
    a = sinkhorn_step_a(K, np.ones(2), mu)
    expected = 0.5 / (1.0 + np.exp(-1.0))
    assert_allclose(a, [expected, expected], rtol=1e-15)
    assert expected == pytest.approx(0.365529, abs=1e-6)


def test_step_enforces_marginal_exactly():
    mu, nu, c = smooth_pair(seed=4)
    K = gibbs_kernel(c, 0.8)
    b = np.ones(32)
    a = sinkhorn_step_a(K, b, mu)
    plan_m1 = a * (K.values @ b) * mu.grid.h
    assert np.max(np.abs(plan_m1 - mu.density)) < 1e-13
    b2 = sinkhorn_step_b(K, a, nu)
    plan_m2 = b2 * (K.values.T @ a) * nu.grid.h
    assert np.max(np.abs(plan_m2 - nu.density)) < 1e-13


def test_step_zero_marginal_gives_zero_scaling():
    g = unit_grid(4)
    d = np.array([0.0, 2.0, 2.0, 0.0])
    mu = GridMeasure(g, d)
    K = gibbs_kernel(cost_field(g, g, "sqdist"), 1.0)
    a = sinkhorn_step_a(K, np.ones(4), mu)
    assert a[0] == 0.0 and a[3] == 0.0 and np.all(a[1:3] > 0)


def test_step_zero_denominator_raises():
    g = unit_grid(2)
    mu = GridMeasure(g, np.ones(2))
    K = gibbs_kernel(CostField(g, g, np.zeros((2, 2))), 1.0)
    with pytest.raises(DivergedScalingError):
        sinkhorn_step_a(K, np.zeros(2), mu)


def test_solve_trivial_fixed_point():
    g = unit_grid(64)
    mu = GridMeasure(g, np.ones(64))
    nu = GridMeasure(g, np.ones(64))
    c = CostField(g, g, np.zeros((64, 64)))
    res = solve(mu, nu, c, 0.5)
    assert res.report.iterations == 1
    assert_allclose(res.plan.values, np.ones((64, 64)), atol=1e-15)
    assert res.report.primal_value == pytest.approx(-0.5, abs=1e-14)
    assert res.report.dual_value == pytest.approx(-0.5, abs=1e-14)


def test_solve_requires_probability_and_valid_opts():
    g = unit_grid(8)
    mu = GridMeasure(g, np.full(8, 2.0))
    nu = GridMeasure(g, np.ones(8))
    c = cost_field(g, g, "sqdist")
    with pytest.raises(ParameterError):
        solve(mu, nu, c, 1.0)
    ok = GridMeasure(g, np.ones(8))
    with pytest.raises(ParameterError):
        solve(ok, nu, c, 1.0, tol=-1.0)
    with pytest.raises(ParameterError):
        solve(ok, nu, c, 1.0, max_iter=0)
    with pytest.raises(ParameterError):
        solve(ok, nu, cost_field(unit_grid(9), g, "sqdist"), 1.0)


def test_solve_matches_marginals_and_closes_gap():
    mu, nu, c = smooth_pair(seed=1)
    res = solve_logdomain(mu, nu, c, 0.3, tol=1e-11)
    m1, m2 = marginals(res.plan)
    h = mu.grid.h
    assert float(np.sum(np.abs(m1.density - mu.density)) * h) < 1e-10
    assert float(np.sum(np.abs(m2.density - nu.density)) * h) < 1e-10
    # weak duality up to float rounding, closed at the optimum
    assert res.report.gap >= -1e-9
    assert abs(res.report.gap) <= max(1e-6, 10 * 1e-11)


def test_residual_history_near_monotone():
    mu, nu, c = smooth_pair(seed=2)
    res = solve_logdomain(mu, nu, c, 0.05, tol=1e-10)
    r = np.asarray(res.report.residual_history)
    assert np.all(r[1:] <= 1.1 * r[:-1])
    assert r[-1] <= 1e-10


def holed_pair(n=32, seed=0):
    """A smooth pair with zero-density cells on both sides."""
    mu, nu, c = smooth_pair(n, seed)
    d1 = mu.density.copy()
    d2 = nu.density.copy()
    d1[: n // 4] = 0.0
    d2[n // 3 : n // 2] = 0.0
    g = mu.grid
    return GridMeasure(g, d1, renormalize=True), GridMeasure(g, d2, renormalize=True), c


def test_primal_value_against_oracle():
    for gamma, pair in itertools.product((0.7, 0.01, 0.003), (smooth_pair, holed_pair)):
        mu, nu, c = pair(seed=3)
        K = gibbs_kernel(c, gamma)
        for run in (solve, solve_logdomain):
            res = run(mu, nu, c, gamma)
            ref = oracles.primal_objective(res.plan.values, c.values, gamma, mu.grid.h, nu.grid.h)
            assert res.report.primal_value == pytest.approx(ref, rel=1e-12)
            assert primal_value(res.plan, c, gamma) == pytest.approx(ref, rel=1e-12)
            assert res.report.dual_value == pytest.approx(
                dual_value(res.state, K, mu, nu), abs=1e-13
            )
            assert res.report.optimality_residual == pytest.approx(
                optimality_residual(res.state, K, mu, nu), abs=1e-13
            )
            cost = float(np.sum(c.values * res.plan.values) * mu.grid.h * nu.grid.h)
            assert res.report.transport_cost == pytest.approx(cost, rel=1e-12)
            # the report describes the iterate the last residual measured
            assert res.report.optimality_residual[1] == res.report.residual_history[-1]
            if run is solve_logdomain and pair is smooth_pair and gamma == 0.003:
                assert res.report.absorptions >= 2  # the report is read off a rebuilt kernel


def test_rule_name_solve_matches_cost_field_solve():
    for pair in (smooth_pair, holed_pair):
        mu, nu, c = pair(seed=4)
        for run in (solve, solve_logdomain):
            by_table = run(mu, nu, c, 0.3)
            by_name = run(mu, nu, "sqdist", 0.3)
            assert by_name.report == by_table.report
            assert np.array_equal(by_name.plan.values, by_table.plan.values)
            assert np.array_equal(by_name.state.log_a, by_table.state.log_a)
    with pytest.raises(ParameterError, match="unknown cost rule"):
        solve_logdomain(mu, nu, "cubic", 0.3)


def test_gauge_rescaling_leaves_plan_and_dual_alone():
    mu, nu, c = smooth_pair(seed=5)
    K = gibbs_kernel(c, 0.4)
    res = solve_logdomain(mu, nu, c, 0.4, tol=1e-12)
    state = res.state
    base_plan = res.plan.values
    base_dual = dual_value(state, K, mu, nu)
    for scale in (1e-3, 1e3):
        with np.errstate(invalid="ignore"):
            rescaled = DualState(
                state.a / scale,
                state.b * scale,
                state.log_a - np.log(scale),
                state.log_b + np.log(scale),
            )
        plan = np.outer(rescaled.a, rescaled.b) * K.values
        assert np.max(np.abs(plan - base_plan)) <= 1e-12
        assert dual_value(rescaled, K, mu, nu) == pytest.approx(base_dual, abs=1e-10)


def test_normalize_gauge_unit_a_integral():
    mu, nu, c = smooth_pair(seed=6)
    res = solve_logdomain(mu, nu, c, 0.9)
    state = normalize_gauge(res.state, mu.grid.h)
    assert float(np.sum(state.a) * mu.grid.h) == pytest.approx(1.0, rel=1e-12)
    again = normalize_gauge(state, mu.grid.h)
    assert_allclose(again.a, state.a, rtol=1e-14)
    dead = DualState(np.zeros(4), np.ones(4), np.full(4, -np.inf), np.zeros(4))
    with pytest.raises(ParameterError):
        normalize_gauge(dead, 0.25)


def test_optimality_residual_small_after_convergence():
    mu, nu, c = smooth_pair(seed=7)
    res = solve_logdomain(mu, nu, c, 0.2, tol=1e-11)
    K = gibbs_kernel(c, 0.2)
    r1, r2 = optimality_residual(res.state, K, mu, nu)
    assert r1 <= 1e-10 and r2 <= 1e-10


def test_optimality_residual_ignores_dead_cells():
    g = unit_grid(8)
    d = np.zeros(8)
    d[:4] = 2.0
    mu = GridMeasure(g, d)
    nu = GridMeasure(g, np.ones(8))
    c = cost_field(g, g, "sqdist")
    res = solve_logdomain(mu, nu, c, 0.5, tol=1e-11)
    K = gibbs_kernel(c, 0.5)
    r1, r2 = optimality_residual(res.state, K, mu, nu)
    assert np.isfinite(r1) and np.isfinite(r2)
    assert r1 <= 1e-10 and r2 <= 1e-10


def test_support_structure_and_check():
    g = unit_grid(12)
    dmu = np.zeros(12)
    dmu[2:7] = 1.0
    dnu = np.zeros(12)
    dnu[5:11] = 1.0
    mu = GridMeasure(g, dmu, renormalize=True)
    nu = GridMeasure(g, dnu, renormalize=True)
    c = cost_field(g, g, "sqdist")
    res = solve_logdomain(mu, nu, c, 0.4, tol=1e-10)
    assert support_check(res.plan, mu, nu)
    inside = res.plan.values[2:7, 5:11]
    assert np.all(inside > 1e-300)
    outside = res.plan.values.copy()
    outside[2:7, 5:11] = 0.0
    assert np.all(outside == 0.0)


def test_potentials_recover_scalings():
    mu, nu, c = smooth_pair(seed=8)
    res = solve_logdomain(mu, nu, c, 0.6)
    pots = potentials_from_state(res.state, 0.6)
    on = mu.density > 0
    assert_allclose(pots.alpha[on], 0.6 * res.state.log_a[on], rtol=1e-14)


def test_potential_sandwich_after_gauge_fix():
    mu, nu, c = smooth_pair(seed=9)
    res = solve_logdomain(mu, nu, c, 0.25, tol=1e-11)
    K = gibbs_kernel(c, 0.25)
    state = normalize_gauge(res.state, mu.grid.h)
    check = potential_sandwich_check(state, K, mu)
    assert check.k_const >= 0.0
    assert check.holds, check.max_violation


def test_symmetry_transposes_plan():
    mu, nu, c = smooth_pair(seed=10)
    res_f = solve_logdomain(mu, nu, c, 0.3, tol=1e-13)
    c_t = CostField(nu.grid, mu.grid, c.values.T.copy())
    res_b = solve_logdomain(nu, mu, c_t, 0.3, tol=1e-13)
    assert np.max(np.abs(res_b.plan.values.T - res_f.plan.values)) < 1e-10


def test_direct_and_log_agree():
    mu, nu, c = smooth_pair(seed=12)
    p_direct = solve(mu, nu, c, 0.5, tol=1e-11).plan.values
    p_log = solve_logdomain(mu, nu, c, 0.5, tol=1e-11).plan.values
    assert np.max(np.abs(p_direct - p_log)) <= 1e-8


@pytest.mark.parametrize("gamma", [0.1, 0.01, 0.001])
def test_log_mode_matches_logsumexp_oracle(gamma):
    g = unit_grid(64)
    x = g.centers
    mu = GridMeasure(g, np.exp(-((x - 0.3) ** 2) / 0.02) + 0.1, renormalize=True)
    nu = GridMeasure(g, np.exp(-((x - 0.7) ** 2) / 0.02) + 0.1, renormalize=True)
    c = cost_field(g, g, "sqdist")
    res = solve_logdomain(mu, nu, c, gamma)
    plan, iterations = oracles.sinkhorn_logsumexp(
        c.values, mu.density, nu.density, gamma, g.h, g.h, tol=1e-9
    )
    assert res.report.iterations == iterations
    assert np.max(np.abs(res.plan.values - plan)) <= 1e-12 * plan.max()
    assert res.report.fallbacks == 0
    if gamma == 0.001:
        # the potentials drift far from the first pass's: the kernel is rebuilt
        assert res.report.absorptions >= 2


def test_log_mode_falls_back_where_the_stabilized_kernel_underflows():
    g1, g2 = unit_grid(2), unit_grid(3)
    mu = GridMeasure(g1, np.ones(2))
    nu = GridMeasure(g2, np.ones(3))
    # exp(-10 / 0.01) is 0 in double: the third column vanishes until absorbed
    c = CostField(g1, g2, [[0.0, 0.1, 10.0], [0.1, 0.0, 10.0]])
    res = solve_logdomain(mu, nu, c, 0.01)
    rep = res.report
    assert rep.fallbacks >= 1
    assert np.all(np.isfinite(res.plan.values))
    assert max(rep.optimality_residual) <= 1e-9
    plan, iterations = oracles.sinkhorn_logsumexp(
        c.values, mu.density, nu.density, 0.01, g1.h, g2.h, tol=1e-9
    )
    assert rep.iterations == iterations
    assert np.max(np.abs(res.plan.values - plan)) <= 1e-12 * plan.max()


def test_direct_mode_overflows_at_tiny_gamma():
    mu, nu, c = smooth_pair(n=64, seed=13)
    with pytest.raises((DirectOverflowError, DivergedScalingError)) as err:
        solve(mu, nu, c, 1e-4, tol=1e-10)
    if isinstance(err.value, DirectOverflowError):
        assert "log" in str(err.value)
    res = solve_logdomain(mu, nu, c, 1e-4, tol=1e-6, max_iter=200000)
    assert res.report.converged


def test_convergence_error_carries_report():
    mu, nu, c = smooth_pair(seed=14)
    with pytest.raises(ConvergenceError) as err:
        solve_logdomain(mu, nu, c, 0.05, tol=1e-12, max_iter=3)
    rep = err.value.report
    assert rep.converged is False
    assert rep.iterations == 3
    assert rep.mode == "log"
    assert len(rep.residual_history) == 3
    assert np.isfinite(rep.transport_cost)
    # the report describes the iterate the loop stopped on, not a later b-pass
    assert rep.optimality_residual[1] == rep.residual_history[-1]


def test_dual_value_minus_infinity_on_dead_support():
    g = unit_grid(4)
    mu = GridMeasure(g, np.ones(4))
    nu = GridMeasure(g, np.ones(4))
    K = gibbs_kernel(cost_field(g, g, "sqdist"), 1.0)
    a = np.ones(4)
    b = np.array([1.0, 0.0, 1.0, 1.0])
    with np.errstate(divide="ignore"):
        state = DualState(a, b, np.log(a), np.log(b))
    assert dual_value(state, K, mu, nu) == -np.inf


def test_primal_handles_zero_cells():
    g = unit_grid(4)
    vals = np.ones((4, 4))
    vals[0, :] = 0.0
    from entot.measures import ProductDensity

    plan = ProductDensity(g, g, vals)
    c = cost_field(g, g, "sqdist")
    v = primal_value(plan, c, 1.0)
    assert np.isfinite(v)
