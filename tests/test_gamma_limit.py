import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entot.measures import AtomicMeasure, Grid1D, GridMeasure
from entot import gamma_limit, solver
from entot.orlicz import neg_entropy
from entot.solver import ParameterError, cost_field, solve_logdomain
from entot.gamma_limit import (
    ExtendedDomain,
    Mollifier,
    coupled_schedule,
    gamma_sweep,
    power_schedule,
    smooth_marginal,
    unregularized_ot_1d,
)

import oracles


def extended(n=256, margin=0.25, lo=0.0, hi=1.0):
    return ExtendedDomain.extend(Grid1D(lo, hi, n), margin)


# ---------------------------------------------------------------- mollifier


def test_mollifier_profile_constant_matches_fine_quadrature():
    m = Mollifier(0.1)
    assert m.z == pytest.approx(oracles.bump_mass_oracle(), abs=1e-9)


def test_mollifier_pointwise_values():
    m = Mollifier(0.5)
    assert m(0.0) == pytest.approx(np.exp(-1.0) / m.z / 0.5, rel=1e-12)
    assert m(0.5) == 0.0
    assert m(-0.7) == 0.0
    assert m(0.49) > 0.0


def test_mollifier_continuous_unit_mass():
    m = Mollifier(0.2)
    integral = oracles.midpoint_quadrature(
        lambda x: np.array([m(v) for v in x]), -0.2, 0.2, 200_001
    )
    assert integral == pytest.approx(1.0, abs=1e-9)


def test_mollifier_rejects_bad_delta():
    with pytest.raises(ParameterError):
        Mollifier(0.0)
    with pytest.raises(ParameterError):
        Mollifier(-1.0)


# ---------------------------------------------------------- extended domain


def test_extend_keeps_spacing_and_contains_original():
    base = Grid1D(0.0, 1.0, 128)
    ext = ExtendedDomain.extend(base, 0.3)
    assert ext.extended.h == base.h
    assert ext.margin >= 0.3
    assert ext.cells == int(np.ceil(0.3 / base.h - 1e-12))
    inner = ext.extended.centers[ext.cells:ext.cells + base.n]
    assert_allclose(inner, base.centers, atol=1e-12)


def test_extend_margin_is_whole_cells():
    base = Grid1D(0.0, 1.0, 100)
    ext = ExtendedDomain.extend(base, 0.123)
    assert ext.margin == pytest.approx(ext.cells * base.h)
    assert ext.margin + 1e-12 >= 0.123


def test_extend_refuses_a_grid_over_the_budget_before_allocating():
    budget = gamma_limit._EXTENDED_CELLS
    assert ExtendedDomain.extend(Grid1D(0.0, 1.0, budget), 0.0).extended.n == budget
    with pytest.raises(ParameterError, match=rf"asks for {budget + 2} cells, above the budget of {budget}"):
        ExtendedDomain.extend(Grid1D(0.0, 1.0, budget), 1.0 / budget)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=rf"asks for 1200000000000 cells, above the budget of {budget}"):
            ExtendedDomain.extend(Grid1D(0.0, 1.0, 10**12), 0.1)
        # a margin so many cells wide that the cell count overflows a float
        with pytest.raises(ParameterError, match="asks for inf cells"):
            ExtendedDomain.extend(Grid1D(0.0, 1e-300, 10), 1e10)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------- smoothing


def test_smooth_atom_mass_and_location():
    ext = extended()
    atom = AtomicMeasure([(0.5, 1.0)])
    sm = smooth_marginal(atom, 0.1, ext)
    assert sm.mass == pytest.approx(1.0, abs=1e-6)
    grid = ext.extended
    peak = grid.centers[np.argmax(sm.density)]
    assert abs(peak - 0.5) <= grid.h
    # compact support: nothing beyond delta from the atom
    far = np.abs(grid.centers - 0.5) > 0.1 + grid.h
    assert np.all(sm.density[far] == 0.0)


def test_smooth_two_atoms_partial_masses():
    ext = extended()
    atoms = AtomicMeasure([(0.25, 0.3), (0.75, 0.7)])
    sm = smooth_marginal(atoms, 0.05, ext)
    grid = ext.extended
    left = grid.centers < 0.5
    left_mass = float(sm.density[left].sum() * grid.h)
    assert left_mass == pytest.approx(0.3, abs=1e-9)
    assert sm.mass == pytest.approx(1.0, abs=1e-9)


def test_smoothed_atoms_match_full_grid_kernel():
    ext = extended()
    grid = ext.extended
    delta = 0.05
    kernel = Mollifier(delta, grid.h)
    # the two atoms' windows overlap
    for atoms in ([(0.5, 1.0)], [(0.25, 0.3), (0.31, 0.7)]):
        sm = smooth_marginal(AtomicMeasure(atoms), delta, ext)
        expected = np.zeros(grid.n)
        for loc, mass in atoms:
            vals = kernel(grid.centers - loc)
            expected += mass * vals / (vals.sum() * grid.h)
        assert np.max(np.abs(sm.density - expected)) <= 1e-15 * np.max(expected)


def test_smooth_grid_measure_preserves_mass():
    ext = extended()
    base = Grid1D(0.0, 1.0, 256)
    rng = np.random.default_rng(3)
    m = GridMeasure(base, rng.random(256) + 0.3, renormalize=True)
    sm = smooth_marginal(m, 0.1, ext)
    assert sm.mass == pytest.approx(1.0, abs=1e-6)


def test_smooth_grid_measure_l1_converges_as_delta_shrinks():
    ext = extended(n=1024)
    base = Grid1D(0.0, 1.0, 1024)
    m = GridMeasure(base, np.ones(1024))
    grid = ext.extended
    pad = np.zeros(grid.n)
    pad[ext.cells:ext.cells + base.n] = 1.0
    errs = []
    for delta in (0.2, 0.1, 0.05, 0.025):
        sm = smooth_marginal(m, delta, ext)
        errs.append(float(np.abs(sm.density - pad).sum() * grid.h))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.05


def test_smooth_rejects_unresolved_delta():
    ext = extended(n=64)  # h ~ 1/64
    atom = AtomicMeasure([(0.5, 1.0)])
    with pytest.raises(ParameterError):
        smooth_marginal(atom, 0.01, ext)  # needs h <= delta/4
    with pytest.raises(ParameterError):
        smooth_marginal(atom, 0.5, ext)  # exceeds the margin
    with pytest.raises(ParameterError):
        smooth_marginal(atom, -0.1, ext)


def test_smooth_marginal_refuses_an_atom_outside_the_domain():
    ext = extended(n=64)  # [0, 1], extended by 0.25 on both sides
    # 1.1 lies in the extension, 25 beyond it: neither is in the grid's domain
    for loc in (-0.01, 1.1, 25.0):
        atoms = AtomicMeasure([(0.5, 0.5), (loc, 0.5)], lo=-1.0, hi=30.0)
        with pytest.raises(ParameterError, match=rf"atom at {loc!r} lies outside the domain \[0.0, 1.0\]"):
            smooth_marginal(atoms, 0.1, ext)
    ends = smooth_marginal(AtomicMeasure([(0.0, 0.5), (1.0, 0.5)]), 0.1, ext)
    assert ends.mass == pytest.approx(1.0, abs=1e-12)


def test_smooth_grid_measure_refuses_a_grid_outside_the_extended_grid():
    ext = extended(n=64)  # [0, 1], extended by 0.25 on both sides
    for lo in (-0.5, 0.5, 5.0):
        m = GridMeasure(Grid1D(lo, lo + 1.0, 64), np.ones(64))
        match = rf"grid measure on \[{lo!r}, {lo + 1.0!r}\] does not lie within the extended grid \[-0.25, 1.25\]"
        with pytest.raises(ParameterError, match=match):
            smooth_marginal(m, 0.1, ext)


# ------------------------------------------------------------ 1d transport


def test_unregularized_single_atoms():
    mu = AtomicMeasure([(0.0, 1.0)])
    nu = AtomicMeasure([(1.0, 1.0)])
    assert unregularized_ot_1d(mu, nu, "sqdist") == pytest.approx(1.0)
    assert unregularized_ot_1d(mu, nu, "abs") == pytest.approx(1.0)


def test_unregularized_unequal_masses_hand_value():
    mu = AtomicMeasure([(0.0, 0.3), (1.0, 0.7)])
    nu = AtomicMeasure([(0.5, 1.0)])
    assert unregularized_ot_1d(mu, nu, "sqdist") == pytest.approx(0.25)
    assert unregularized_ot_1d(mu, nu, "abs") == pytest.approx(0.5)


def test_unregularized_matches_permutation_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        k = int(rng.integers(2, 7))
        xs = np.sort(rng.random(k))
        ys = np.sort(rng.random(k))
        mu = AtomicMeasure([(float(x), 1.0 / k) for x in xs])
        nu = AtomicMeasure([(float(y), 1.0 / k) for y in ys])
        got = unregularized_ot_1d(mu, nu, "sqdist")
        ref = oracles.permutation_ot(xs, ys, lambda a, b: (a - b) ** 2)
        assert got == pytest.approx(ref, abs=1e-12)


def test_unregularized_refuses_nonconvex_cost():
    mu = AtomicMeasure([(0.0, 1.0)])
    nu = AtomicMeasure([(1.0, 1.0)])
    with pytest.raises(ParameterError):
        unregularized_ot_1d(mu, nu, "concave")
    with pytest.raises(ParameterError):
        unregularized_ot_1d(mu, nu, lambda x, y: np.sqrt(np.abs(x - y)))


def test_brute_force_agrees_and_guards():
    mu = AtomicMeasure([(0.1, 0.5), (0.9, 0.5)])
    nu = AtomicMeasure([(0.2, 0.5), (0.6, 0.5)])
    brute = oracles.permutation_ot([0.1, 0.9], [0.2, 0.6], lambda a, b: (a - b) ** 2)
    assert brute == pytest.approx(unregularized_ot_1d(mu, nu, "sqdist"))


# ------------------------------------------------------------------ sweeps


def test_schedule_constructors():
    assert coupled_schedule([0.2, 0.1]) == [(0.2, 0.2), (0.1, 0.1)]
    assert coupled_schedule([0.2], c=2.0) == [(0.2, 0.4)]
    assert power_schedule([0.1]) == [(0.1, pytest.approx(0.01 * 0.01))]
    got = power_schedule([0.5], coeff=0.2, exponent=1.0)
    assert got == [(0.5, pytest.approx(0.1))]


def simple_sweep(schedule, n=256, **kw):
    mu = AtomicMeasure([(0.0, 1.0)], lo=-1.0, hi=2.0)
    nu = AtomicMeasure([(1.0, 1.0)], lo=-1.0, hi=2.0)
    ext = ExtendedDomain.extend(Grid1D(0.0, 1.0, n), max(d for _, d in schedule))
    return gamma_sweep(mu, nu, "sqdist", schedule, ext, **kw)


def test_sweep_returns_points_in_schedule_order():
    points = simple_sweep([(0.2, 0.2), (0.1, 0.1)])
    assert [p.gamma for p in points] == [0.2, 0.1]
    for p in points:
        assert p.status == "ok"
        assert p.unregularized_reference == pytest.approx(1.0)
        assert np.isfinite(p.regularized_value)
        assert p.iterations > 0
        # decomposition: primal = transport part + entropy term
        assert p.primal_value == pytest.approx(
            p.regularized_value + p.entropy_term, rel=1e-10
        )
        assert all(np.isfinite(e) for e in p.entropy_of_smoothed_marginals)


def test_sweep_point_matches_solve_on_smoothed_marginals():
    mu = AtomicMeasure([(0.0, 1.0)], lo=-1.0, hi=2.0)
    nu = AtomicMeasure([(1.0, 1.0)], lo=-1.0, hi=2.0)
    ext = ExtendedDomain.extend(Grid1D(0.0, 1.0, 128), 0.2)
    point = gamma_sweep(mu, nu, "sqdist", [(0.1, 0.2)], ext)[0]
    grid = ext.extended
    c = cost_field(grid, grid, "sqdist")
    res = solve_logdomain(smooth_marginal(mu, 0.2, ext), smooth_marginal(nu, 0.2, ext), c, 0.1)
    assert point.iterations == res.report.iterations
    assert point.primal_value == pytest.approx(res.report.primal_value, rel=1e-12)
    cost_part = float(np.sum(c.values * res.plan.values) * grid.h * grid.h)
    assert point.regularized_value == pytest.approx(cost_part, rel=1e-12)


def test_sweep_entropies_match_neg_entropy_of_smoothed_marginals():
    schedule = [(0.2, 0.2)]
    mu = AtomicMeasure([(0.0, 1.0)], lo=-1.0, hi=2.0)
    nu = AtomicMeasure([(1.0, 1.0)], lo=-1.0, hi=2.0)
    ext = ExtendedDomain.extend(Grid1D(0.0, 1.0, 256), 0.2)
    point = gamma_sweep(mu, nu, "sqdist", schedule, ext)[0]
    e_mu = neg_entropy(smooth_marginal(mu, 0.2, ext))
    e_nu = neg_entropy(smooth_marginal(nu, 0.2, ext))
    assert point.entropy_of_smoothed_marginals[0] == pytest.approx(e_mu, rel=1e-12)
    assert point.entropy_of_smoothed_marginals[1] == pytest.approx(e_nu, rel=1e-12)


def test_sweep_marks_failures_and_continues():
    points = simple_sweep([(0.2, 0.2), (0.1, 0.1)], max_iter=1)
    assert len(points) == 2
    assert all(p.status.startswith("failed") for p in points)
    for p in points:
        assert p.status.startswith("failed: no convergence in 1 iterations")
        assert np.isfinite(p.regularized_value)
    ok = simple_sweep([(0.2, 0.2)], max_iter=1000)
    assert ok[0].status == "ok"
    # exp(-1/0.001) underflows in direct arithmetic: a NaN point, and the sweep goes on
    failed, ok = simple_sweep([(0.001, 0.1), (0.2, 0.1)], mode="direct")
    assert failed.status == "failed: scaling denominator vanished on the a side at iteration 1"
    assert np.isnan([failed.regularized_value, *failed.entropy_of_smoothed_marginals]).all()
    assert failed.iterations == 0
    assert ok.status == "ok"


def test_sweep_solves_through_the_public_solves(monkeypatch):
    calls = {"solve": 0, "solve_logdomain": 0}
    for name in calls:

        def counted(*args, _name=name, _run=getattr(solver, name), **kwargs):
            calls[_name] += 1
            return _run(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    simple_sweep([(0.2, 0.2), (0.1, 0.1)])
    assert calls == {"solve": 0, "solve_logdomain": 2}
    simple_sweep([(0.2, 0.2)], mode="direct")
    assert calls == {"solve": 1, "solve_logdomain": 2}


def test_sweep_validates_grid_resolution():
    sched = [(0.001, 0.001)]
    with pytest.raises(ParameterError):
        simple_sweep(sched, n=64)


def test_extend_and_sweep_refuse_non_finite_delta():
    base = Grid1D(0.0, 1.0, 64)
    for margin in (float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            ExtendedDomain.extend(base, margin)
    ext = ExtendedDomain.extend(base, 0.25)
    mu = AtomicMeasure([(0.0, 1.0)])
    nu = AtomicMeasure([(1.0, 1.0)])
    nan, inf = float("nan"), float("inf")
    for pair in ((0.2, nan), (nan, 0.2), (inf, 0.2)):
        with pytest.raises(ParameterError, match="finite"):
            gamma_sweep(mu, nu, "sqdist", [pair], ext)
    with pytest.raises(ParameterError, match="finite"):
        smooth_marginal(mu, nan, ext)


def test_sweep_requires_named_cost():
    mu = AtomicMeasure([(0.0, 1.0)])
    nu = AtomicMeasure([(1.0, 1.0)])
    ext = ExtendedDomain.extend(Grid1D(0.0, 1.0, 256), 0.2)
    with pytest.raises(ParameterError):
        gamma_sweep(mu, nu, lambda x, y: (x - y) ** 2, [(0.2, 0.2)], ext)
