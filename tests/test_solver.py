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
    optimality_residual,
    potentials_from_state,
    primal_value,
    solve,
    solve_logdomain,
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
    with pytest.raises(ParameterError, match=r"shape \(1, 2\) does not match grids"):
        CostField(g, g, np.array([[0.0, 1.0]]))
    with pytest.raises(ParameterError):
        CostField(g, g, np.ones(2))
    with pytest.raises(ParameterError):
        CostField(g, g, -np.ones((2, 2)))
    with pytest.raises(ParameterError):
        CostField(g, g, np.full((2, 2), np.inf))


def test_gibbs_kernel_values():
    g = unit_grid(2)
    c = cost_field(g, g, "sqdist")
    K = gibbs_kernel(c, 0.5)
    assert_allclose(K.values, np.exp(-c.values / 0.5))
    assert_allclose(K.log_values, -c.values / 0.5)
    with pytest.raises(ParameterError):
        gibbs_kernel(c, 0.0)


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
    assert oracles.support_check(res.plan.values, mu.density, nu.density)
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
    check = oracles.potential_sandwich_check(
        res.state.log_a, res.state.log_b, c.values, 0.25, mu.density, nu.grid.h
    )
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


def test_vanishing_denominator_raises_diverged_scaling():
    # one cell each, a unit apart: exp(-1/gamma) underflows to 0 in direct mode
    g = Grid1D(0.0, 2.0, 2)
    mu = GridMeasure(g, np.array([1.0, 0.0]))
    nu = GridMeasure(g, np.array([0.0, 1.0]))
    with pytest.raises(DivergedScalingError) as err:
        solve(mu, nu, "sqdist", 1e-3)
    assert (err.value.side, err.value.iteration) == ("a", 1)
    assert solve_logdomain(mu, nu, "sqdist", 1e-3).report.converged


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


# --- the two kernels --------------------------------------------------------
#
# The FFT kernel runs only on hull blocks above a speed crossover; the tests
# that compare it with the dense kernel on smaller blocks lower that constant.


def shifted_pair(n, seed, lo2=0.0, holes=False):
    """smooth_pair's densities on [0, 1] and on [lo2, lo2 + 1], both with spacing 1/n.

    With ``holes``, both supports miss cells inside their hulls, and nu's
    hull starts past the grid's first cells.
    """
    mu, nu, _ = smooth_pair(n, seed)
    d1, d2 = mu.density.copy(), nu.density.copy()
    if holes:
        d1[n // 5 : n // 4] = 0.0
        d2[: n // 8] = 0.0
        d2[n // 2 : n // 2 + n // 16] = 0.0
    g2 = Grid1D(lo2, lo2 + 1.0, n)
    assert g2.h == mu.grid.h
    return GridMeasure(mu.grid, d1, renormalize=True), GridMeasure(g2, d2, renormalize=True)


FFT_CASES = [
    (256, "sqdist", 0.0, False, solve_logdomain),
    (256, "abs", 0.25, True, solve),
    (512, "sqdist", 0.25, True, solve_logdomain),
    (512, "abs", 0.0, False, solve),
    (2048, "sqdist", 0.0, True, solve),
]


@pytest.mark.parametrize("n, rule, lo2, holes, run", FFT_CASES)
def test_fft_kernel_agrees_with_dense_kernel(monkeypatch, n, rule, lo2, holes, run):
    monkeypatch.setattr("entot.solver._FFT_MIN_CELLS", 0)
    mu, nu = shifted_pair(n, seed=n, lo2=lo2, holes=holes)
    table = cost_field(mu.grid, nu.grid, rule)
    # the kernel's dynamic range on these hulls is about exp(-1/gamma) or less:
    # the gate trips at 0.03
    for gamma in (0.5, 0.2, 0.03):
        fft = run(mu, nu, rule, gamma).report
        if gamma == 0.03:
            assert fft.kernel == "dense" and "dynamic range" in fft.kernel_reason
            assert max(fft.optimality_residual) <= 1e-9
            continue
        dense = run(mu, nu, table, gamma).report
        assert (fft.kernel, fft.kernel_reason, dense.kernel) == ("fft", "", "dense")
        for name in ("primal_value", "dual_value", "transport_cost"):
            assert getattr(fft, name) == pytest.approx(getattr(dense, name), rel=1e-12), name
        assert abs(fft.iterations - dense.iterations) <= 1
        assert max(fft.optimality_residual) <= 1e-9
        assert max(dense.optimality_residual) <= 1e-9


def test_fft_solve_builds_plan_and_state_like_the_dense_one(monkeypatch):
    monkeypatch.setattr("entot.solver._FFT_MIN_CELLS", 0)
    mu, nu = shifted_pair(128, seed=3, lo2=0.25, holes=True)
    table = cost_field(mu.grid, nu.grid, "sqdist")
    fft = solve_logdomain(mu, nu, "sqdist", 0.2)
    dense = solve_logdomain(mu, nu, table, 0.2)
    assert fft.report.kernel == "fft"
    assert np.max(np.abs(fft.plan.values - dense.plan.values)) <= 1e-12 * dense.plan.values.max()
    assert np.all(fft.plan.values[~np.outer(mu.density > 0, nu.density > 0)] == 0)
    assert_allclose(fft.state.log_a, dense.state.log_a, rtol=0, atol=1e-11)


@pytest.mark.parametrize("crossover", [0, None])
def test_report_carries_the_sandwich_bound_of_either_kernel(monkeypatch, crossover):
    if crossover is not None:
        monkeypatch.setattr("entot.solver._FFT_MIN_CELLS", crossover)
    mu, nu = shifted_pair(96, seed=4, holes=True)
    table = cost_field(mu.grid, nu.grid, "sqdist")
    for run, gamma in ((solve, 0.3), (solve_logdomain, 0.05)):
        res = run(mu, nu, "sqdist", gamma)
        rep = res.report
        assert rep.kernel == ("fft" if crossover == 0 else "dense")
        check = oracles.potential_sandwich_check(
            res.state.log_a, res.state.log_b, table.values, gamma, mu.density, nu.grid.h
        )
        assert rep.sandwich_k == pytest.approx(check.k_const, rel=1e-12, abs=1e-12)
        assert rep.sandwich_violation == pytest.approx(check.max_violation, rel=1e-12, abs=1e-12)
        assert rep.sandwich_violation <= 1e-9


def test_returned_state_is_gauge_normalized(monkeypatch):
    monkeypatch.setattr("entot.solver._FFT_MIN_CELLS", 0)
    mu, nu = shifted_pair(96, seed=8, holes=True)
    table = cost_field(mu.grid, nu.grid, "sqdist")
    for cost, kernel in ((table, "dense"), ("sqdist", "fft")):
        for run in (solve, solve_logdomain):
            res = run(mu, nu, cost, 0.3)
            assert res.report.kernel == kernel
            assert abs(float(np.sum(res.state.a) * mu.grid.h) - 1.0) <= 1e-12


def test_gate_names_the_condition_that_keeps_the_fft_kernel_off(monkeypatch):
    mu, nu = shifted_pair(64, seed=5)
    small = solve_logdomain(mu, nu, "sqdist", 0.5).report
    assert small.kernel == "dense" and "crossover" in small.kernel_reason
    monkeypatch.setattr("entot.solver._FFT_MIN_CELLS", 0)
    assert solve_logdomain(mu, nu, "sqdist", 0.5).report.kernel == "fft"
    table = solve_logdomain(mu, nu, cost_field(mu.grid, nu.grid, "sqdist"), 0.5).report
    assert table.kernel == "dense" and table.kernel_reason == "the cost is a table"
    wide = Grid1D(0.0, 2.0, 64)
    nu2 = GridMeasure(wide, nu.density, renormalize=True)
    spaced = solve_logdomain(mu, nu2, "abs", 0.5).report
    assert spaced.kernel == "dense" and "spacings" in spaced.kernel_reason
    # sqdist spans [0, 1) on the hull block: exp(-1/0.03) is below 1e-12
    ranged = solve_logdomain(mu, nu, "sqdist", 0.03).report
    assert ranged.kernel == "dense" and "dynamic range" in ranged.kernel_reason
    assert solve_logdomain(mu, nu, "sqdist", 0.04).report.kernel == "fft"


def test_failed_fft_pass_restarts_the_solve_on_the_dense_kernel(monkeypatch):
    import dataclasses

    monkeypatch.setattr("entot.solver._FFT_MIN_CELLS", 0)
    monkeypatch.setattr("entot.solver._FFT_ROUNDOFF", 0.0)
    mu, nu = shifted_pair(64, seed=6, holes=True)
    table = cost_field(mu.grid, nu.grid, "sqdist")
    for run in (solve, solve_logdomain):
        res = run(mu, nu, "sqdist", 0.2)
        ref = run(mu, nu, table, 0.2)
        assert res.report.kernel == "dense"
        assert "a-pass of iteration 1" in res.report.kernel_reason
        assert "round-off" in res.report.kernel_reason
        assert dataclasses.replace(res.report, kernel_reason="") == dataclasses.replace(
            ref.report, kernel_reason=""
        )
        assert np.array_equal(res.plan.values, ref.plan.values)


def test_fft_round_off_check_trips_on_a_wide_kernel_range(monkeypatch):
    import dataclasses

    monkeypatch.setattr("entot.solver._FFT_MIN_CELLS", 0)
    # abs on hulls 1.25 apart at gamma = 0.05: the gate admits the range
    # exp(-25), but some denominators are too small for the FFT's round-off
    mu, nu = shifted_pair(256, seed=256, lo2=0.25, holes=True)
    res = solve(mu, nu, "abs", 0.05)
    ref = solve(mu, nu, cost_field(mu.grid, nu.grid, "abs"), 0.05)
    assert res.report.kernel == "dense"
    assert "FFT kernel abandoned" in res.report.kernel_reason
    assert dataclasses.replace(res.report, kernel_reason="") == dataclasses.replace(
        ref.report, kernel_reason=""
    )


def test_dense_budget_refuses_before_allocating(monkeypatch):
    mu, nu = shifted_pair(64, seed=7)
    monkeypatch.setattr("entot.solver._DENSE_CELLS", 64 * 64 - 1)
    with pytest.raises(ParameterError, match="budget .*crossover"):
        solve_logdomain(mu, nu, "sqdist", 0.5)
    # a solve the FFT kernel takes is exempt, but not its plan on the full grids
    monkeypatch.setattr("entot.solver._FFT_MIN_CELLS", 0)
    res = solve_logdomain(mu, nu, "sqdist", 0.5)
    assert res.report.kernel == "fft"
    with pytest.raises(ParameterError, match="plan exceeds"):
        res.plan
    # ... and so is a restart on the dense kernel
    monkeypatch.setattr("entot.solver._FFT_ROUNDOFF", 0.0)
    with pytest.raises(ParameterError, match="budget .*abandoned at the a-pass"):
        solve(mu, nu, "sqdist", 0.5)
