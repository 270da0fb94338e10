"""sweep-gamma solves its points in decreasing gamma, each warm-started from the last."""

import importlib.util
import os

import numpy as np
import pytest

from entot import cli, solver
from entot.measures import Grid1D, GridMeasure, write_measure_csv

import oracles

TOL = 1e-9
HEADER = ["gamma", "iterations", "primal", "dual", "gap", "r1", "r2", "status"]


def sin_cos_pair(n=48):
    g = Grid1D(0.0, 1.0, n)
    x = g.centers
    mu = GridMeasure(g, 1.0 + 0.4 * np.sin(2 * np.pi * x), renormalize=True)
    nu = GridMeasure(g, 1.0 + 0.4 * np.cos(2 * np.pi * x), renormalize=True)
    return mu, nu


def write_pair(tmp_path, mu, nu):
    paths = str(tmp_path / "mu.csv"), str(tmp_path / "nu.csv")
    write_measure_csv(paths[0], mu)
    write_measure_csv(paths[1], nu)
    return paths


def sweep(tmp_path, paths, gammas, *extra):
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "sweep-gamma", "--mu", paths[0], "--nu", paths[1], "--gammas", gammas,
        "--tol", repr(TOL), "--out", str(out), "--quiet", *extra,
    ])
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(HEADER)
    rows = [dict(zip(HEADER, line.split(","))) for line in lines[1:]]
    return code, rows


def test_chained_sweep_agrees_with_cold_solves(tmp_path):
    mu, nu = sin_cos_pair()
    gammas = (0.1, 0.05, 0.02, 0.01, 0.005, 0.002)
    code, rows = sweep(tmp_path, write_pair(tmp_path, mu, nu), ",".join(map(repr, gammas)))
    assert code == 0
    colds = [solver.solve_logdomain(mu, nu, "sqdist", gamma, tol=TOL).report for gamma in gammas]
    for row, cold in zip(rows, colds):
        assert row["status"] == "ok"
        # A state whose marginals are within tol has primal and dual values
        # within about osc(potential) * tol of the optimum, and a potential's
        # range is at most the cost's, 1 for sqdist on [0, 1]. So two such
        # states differ by at most 2 tol, and their residuals, both at most
        # tol, by at most tol.
        assert abs(float(row["primal"]) - cold.primal_value) <= 2 * TOL
        assert abs(float(row["dual"]) - cold.dual_value) <= 2 * TOL
        assert abs(float(row["r1"]) - cold.optimality_residual[0]) <= TOL
        assert abs(float(row["r2"]) - cold.optimality_residual[1]) <= TOL
    # the first point starts cold; the chain took 328 passes against 387 cold
    assert int(rows[0]["iterations"]) == colds[0].iterations
    assert sum(int(row["iterations"]) for row in rows) < 0.9 * sum(cold.iterations for cold in colds)


def test_rows_keep_the_given_order_and_a_repeated_gamma_is_solved_once(tmp_path, monkeypatch):
    paths = write_pair(tmp_path, *sin_cos_pair())
    calls = []
    real = solver.solve_logdomain

    def recorded(mu, nu, c, gamma, *args, beta0=None, **kwargs):
        calls.append((gamma, beta0))
        return real(mu, nu, c, gamma, *args, beta0=beta0, **kwargs)

    monkeypatch.setattr(solver, "solve_logdomain", recorded)
    code, rows = sweep(tmp_path, paths, "0.05,0.2,0.1,0.2")
    assert code == 0
    assert [row["gamma"] for row in rows] == ["0.05", "0.2", "0.1", "0.2"]
    assert rows[1] == rows[3]
    # solved once each, in decreasing gamma; only the first starts cold
    assert [gamma for gamma, _ in calls] == [0.2, 0.1, 0.05]
    assert [beta0 is None for _, beta0 in calls] == [True, False, False]


def test_a_failed_point_is_redone_cold_and_the_next_point_starts_cold(tmp_path, monkeypatch):
    paths = write_pair(tmp_path, *sin_cos_pair())
    calls = []
    real = solver.solve_logdomain

    def failing(mu, nu, c, gamma, *args, beta0=None, **kwargs):
        calls.append((gamma, beta0 is None))
        if gamma == 0.2:
            raise solver.DivergedScalingError(1, "a")
        return real(mu, nu, c, gamma, *args, beta0=beta0, **kwargs)

    monkeypatch.setattr(solver, "solve_logdomain", failing)
    code, rows = sweep(tmp_path, paths, "0.1,0.2,0.5")
    assert code == 5
    assert [row["status"] for row in rows] == [
        "ok", "failed: scaling denominator vanished on the a side at iteration 1", "ok"
    ]
    # 0.2 fails warm, is redone cold and fails again; 0.1 then starts cold
    assert calls == [(0.5, True), (0.2, False), (0.2, True), (0.1, True)]


def test_a_warm_start_that_overflows_gives_the_cold_result(tmp_path, monkeypatch):
    mu, nu = sin_cos_pair()
    paths = write_pair(tmp_path, mu, nu)
    real = solver._scale

    def overflowing(kernel, p, q, tol, max_iter, log_b):
        if np.any(log_b - np.log(nu.grid.h) != 0):  # a warm start
            raise solver.DirectOverflowError(1)
        return real(kernel, p, q, tol, max_iter, log_b)

    monkeypatch.setattr(solver, "_scale", overflowing)
    code, rows = sweep(tmp_path, paths, "0.5,0.2,0.1", "--mode", "direct")
    assert code == 0
    for row in rows:
        cold = solver.solve(mu, nu, "sqdist", float(row["gamma"]), tol=TOL).report
        assert row["status"] == "ok"
        assert int(row["iterations"]) == cold.iterations
        assert float(row["primal"]) == cold.primal_value
        assert float(row["dual"]) == cold.dual_value


def test_the_carry_is_the_potential_scaled_to_the_next_gamma(tmp_path, monkeypatch):
    mu, nu = sin_cos_pair()
    paths = write_pair(tmp_path, mu, nu)
    starts = []
    real = solver._scale

    def recorded(kernel, p, q, tol, max_iter, log_b):
        starts.append(log_b - np.log(nu.grid.h))  # the loop scales cell masses: log B = log b + log h
        return real(kernel, p, q, tol, max_iter, log_b)

    monkeypatch.setattr(solver, "_scale", recorded)
    sweep(tmp_path, paths, "0.1,0.025")
    assert np.all(starts[0] == 0)
    # beta = gamma log b of the solve at 0.1, divided by the next gamma and shifted to a maximum of 0
    log_b = solver.solve_logdomain(mu, nu, "sqdist", 0.1, tol=TOL).state.log_b[nu.density > 0]
    beta = 0.1 * log_b
    np.testing.assert_allclose(starts[1], beta / 0.025 - np.max(beta / 0.025), rtol=0, atol=1e-12)
    assert np.max(starts[1]) == 0
    # not log b itself: scaled, it spans four times as wide
    assert np.ptp(starts[1]) == pytest.approx(4 * np.ptp(log_b), rel=1e-12)


def test_solve_refuses_a_warm_start_of_the_wrong_size():
    mu, nu = sin_cos_pair()
    with pytest.raises(solver.ParameterError, match="beta0"):
        solver.solve_logdomain(mu, nu, "sqdist", 0.1, beta0=np.zeros(nu.grid.n + 1))
    with pytest.raises(solver.ParameterError, match="beta0"):
        solver.solve(mu, nu, "sqdist", 0.1, beta0=np.full(nu.grid.n, np.nan))


def _perfbench_problems():
    """perfbench/problems.py on its own, without run.py's environment set-up."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "problems.py")
    spec = importlib.util.spec_from_file_location("perfbench_problems", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_log_workload_keeps_its_warm_start(tmp_path):
    # the benchmark's sweep-log inputs at seed 0: 147 iterations solved cold one
    # by one, 144 chained; with plain passes only, 763 and 541
    problems = _perfbench_problems()
    x, mu, nu = problems.smooth_pair(256, 0)
    paths = str(tmp_path / "mu.csv"), str(tmp_path / "nu.csv")
    for path, density in zip(paths, (mu, nu)):
        with open(path, "w") as f:
            f.write(problems.measure_csv(x, density))
    code, rows = sweep(tmp_path, paths, "0.1,0.05,0.02,0.01", "--mode", "log")
    assert code == 0
    assert sum(int(row["iterations"]) for row in rows) <= 560
    assert [int(row["iterations"]) for row in rows] == [20, 29, 40, 55]


CHAIN = (0.1, 0.01, 0.003, 0.001)


@pytest.fixture(scope="module")
def cold_chains():
    """Per n, the sin/cos pair and its cold log-mode solve at each gamma of CHAIN."""
    out = {}
    for n in (64, 256, 512):
        mu, nu = sin_cos_pair(n)
        out[n] = mu, nu, [solver.solve_logdomain(mu, nu, "sqdist", gamma, tol=TOL) for gamma in CHAIN]
    return out


@pytest.mark.parametrize("mode", ["log", "direct"])
@pytest.mark.parametrize("n", [64, 256, 512])
def test_relaxed_warm_solves_agree_with_cold_plain_solves(cold_chains, n, mode):
    mu, nu, colds = cold_chains[n]
    run = solver.solve_logdomain if mode == "log" else solver.solve
    beta = colds[0].potentials.beta[nu.density > 0]
    warm_passes = 0
    for gamma, cold in zip(CHAIN[1:], colds[1:]):
        warm = run(mu, nu, "sqdist", gamma, tol=TOL, beta0=beta)
        rep = warm.report
        assert rep.relaxation > 1.0
        assert max(rep.optimality_residual) <= TOL
        # within 2 tol, as test_chained_sweep_agrees_with_cold_solves argues
        assert abs(rep.primal_value - cold.report.primal_value) <= 2 * TOL
        assert abs(rep.dual_value - cold.report.dual_value) <= 2 * TOL
        warm_passes += rep.iterations
        beta = warm.potentials.beta[nu.density > 0]
    # the cold solves are over-relaxed too: 326 warm passes against 380 cold
    # at n = 64, 297 against 386 at n = 256 and 512
    assert warm_passes < 0.9 * sum(cold.report.iterations for cold in colds[1:])


def test_a_cold_small_gamma_solve_takes_a_few_hundred_passes():
    mu, nu = sin_cos_pair(64)
    h = mu.grid.h
    cost = solver.cost_field(mu.grid, nu.grid, "sqdist").values
    plan, iterations, _ = oracles.sinkhorn_logsumexp(cost, mu.density, nu.density, 0.001, h, h, tol=TOL)
    primal = oracles.primal_objective(plan, cost, 0.001, h, h)
    assert iterations == 4249  # plain passes, about twenty times the relaxed solve's
    for run in (solver.solve_logdomain, solver.solve):
        rep = run(mu, nu, "sqdist", 0.001, tol=TOL).report
        assert rep.iterations == 216
        assert rep.relaxation > 1.0
        assert abs(rep.primal_value - primal) <= 2 * TOL


def test_a_relaxed_report_describes_the_returned_iterate(cold_chains):
    mu, nu, colds = cold_chains[64]
    gamma, h1, h2 = 0.01, mu.grid.h, nu.grid.h
    res = solver.solve_logdomain(
        mu, nu, "sqdist", gamma, tol=TOL, beta0=colds[0].potentials.beta[nu.density > 0]
    )
    rep = res.report
    assert rep.relaxation > 1.0
    cost = solver.cost_field(mu.grid, nu.grid, "sqdist").values
    log_a, log_b = res.state.log_a, res.state.log_b
    # a relaxed a-pass leaves the rows off by about tol, not by rounding
    rows = np.exp(log_a + oracles.log_sum_exp(-cost / gamma + log_b + np.log(h2), 1))
    r1 = np.abs(rows - mu.density).sum() * h1
    assert 1e-12 < r1 <= TOL
    assert rep.optimality_residual[0] == pytest.approx(r1, rel=0, abs=1e-12)
    check = oracles.potential_sandwich_check(log_a, log_b, cost, gamma, mu.density, h2)
    assert rep.sandwich_k == pytest.approx(check.k_const, rel=1e-12, abs=1e-12)
    assert rep.sandwich_violation == pytest.approx(check.max_violation, rel=1e-12, abs=1e-12)


def test_an_over_large_omega_falls_back_and_the_point_still_solves(cold_chains, monkeypatch):
    mu, nu, colds = cold_chains[64]
    set_from = []

    def diverging(theta):  # above 2, where relaxed scaling diverges
        set_from.append(theta)
        return 2.5

    monkeypatch.setattr(solver, "_omega", diverging)
    res = solver.solve_logdomain(
        mu, nu, "sqdist", 0.01, tol=TOL, beta0=colds[0].potentials.beta[nu.density > 0]
    )
    rep = res.report
    assert set_from and rep.relaxation == 1.0
    # the relaxed passes raised the residual far above where omega was set
    assert max(rep.residual_history[1:]) > 100 * min(rep.residual_history[:4])
    assert max(rep.optimality_residual) <= TOL
    assert abs(rep.primal_value - colds[1].report.primal_value) <= 2 * TOL


def test_a_rise_restarts_the_relaxation_below_the_omega_that_rose():
    relaxation, residuals = solver._Relaxation(), []

    def feed(*values):
        for value in values:
            residuals.append(value)
            relaxation.update(residuals)

    feed(1.0, 0.9, 0.81, 0.729)  # plain rate 0.9
    risen = relaxation.omega
    assert risen == solver._omega(0.9) > 1.0
    feed(100.0)  # more than 100 times the residual at which omega was set
    assert relaxation.omega == 1.0
    feed(90.0, 81.0, 72.9, 65.61)  # measured afresh: rate 0.9 again, but not below the omega that rose
    assert relaxation.omega == 1.0
    feed(52.488, 41.9904, 33.59232)  # rate 0.8: a smaller omega is taken
    assert relaxation.omega == solver._omega(0.8) < risen


def gaussian_pair(width, n=64):
    g = Grid1D(0.0, 1.0, n)
    x = g.centers
    mu = GridMeasure(g, np.exp(-((x - 0.3) ** 2) / width) + 0.1, renormalize=True)
    nu = GridMeasure(g, np.exp(-((x - 0.7) ** 2) / width) + 0.1, renormalize=True)
    return mu, nu


@pytest.mark.parametrize("width", [0.02, 0.005])
def test_an_overshooting_omega_restarts_instead_of_ending_the_relaxation(width):
    # an early omega raises the residual 100-fold; plain passes from there
    # on would take 1419 and 1464 passes
    mu, nu = gaussian_pair(width)
    h = mu.grid.h
    cost = solver.cost_field(mu.grid, nu.grid, "sqdist").values
    plan, _, _ = oracles.sinkhorn_logsumexp(cost, mu.density, nu.density, 0.001, h, h, tol=1e-12)
    primal = oracles.primal_objective(plan, cost, 0.001, h, h)
    for run in (solver.solve_logdomain, solver.solve):
        rep = run(mu, nu, "sqdist", 0.001, tol=TOL).report
        history = rep.residual_history
        assert max(history[1:]) > 100 * min(history[:4])
        assert rep.iterations <= 200  # 113 and 118 measured
        assert rep.relaxation > 1.0
        assert abs(rep.primal_value - primal) <= 2 * TOL


def test_the_abs_cost_at_small_gamma_restarts_and_converges():
    # an early omega rises here too; plain passes from there on would take 14 792
    mu, nu = sin_cos_pair(64)
    primals = []
    for run in (solver.solve_logdomain, solver.solve):
        rep = run(mu, nu, "abs", 0.003, tol=TOL).report
        assert rep.iterations == 1094
        assert max(rep.optimality_residual) <= TOL
        primals.append(rep.primal_value)
    assert abs(primals[0] - primals[1]) <= 2 * TOL
