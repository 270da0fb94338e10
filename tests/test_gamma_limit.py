import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entot.measures import AtomicMeasure, Grid1D, GridMeasure
from entot import gamma_limit, solver
from entot.orlicz import neg_entropy
from entot.solver import COST_RULES, ParameterError, cost_field, solve_logdomain
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


def test_extend_prints_a_huge_cell_count_short():
    with pytest.raises(ParameterError, match=r"asks for 5\.12e\+301 cells, above the budget") as err:
        ExtendedDomain.extend(Grid1D(0.0, 1e-300, 256), 0.1)
    assert len(str(err.value)) < 120


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


def test_the_delta_an_extension_was_made_for_passes_its_check_at_every_scale():
    for k in range(-300, 301):
        s = 10.0 ** k
        d = 0.1 * s
        gamma_limit._check_delta(d, ExtendedDomain.extend(Grid1D(0.0, s, 100), d))
    # whole cells of 1e98 round this margin down to 1e99, one ulp below delta
    d = 1.0000000000000001e99
    ext = ExtendedDomain.extend(Grid1D(0.0, 1e100, 100), d)
    assert ext.margin < d
    gamma_limit._check_delta(d, ext)


# ---------------------------------------------------------------- smoothing


def test_smooth_atom_mass_and_location():
    ext = extended()
    atom = AtomicMeasure([(0.5, 1.0)])
    sm = smooth_marginal(atom, 0.1, ext)
    assert sm.mass == pytest.approx(1.0, abs=1e-6)
    grid = ext.extended
    density = oracles.pad_window(sm, grid)
    peak = grid.centers[np.argmax(density)]
    assert abs(peak - 0.5) <= grid.h
    # compact support: nothing beyond delta from the atom
    far = np.abs(grid.centers - 0.5) > 0.1 + grid.h
    assert np.all(density[far] == 0.0)


def test_smooth_two_atoms_partial_masses():
    ext = extended()
    atoms = AtomicMeasure([(0.25, 0.3), (0.75, 0.7)])
    sm = smooth_marginal(atoms, 0.05, ext)
    grid = ext.extended
    left = grid.centers < 0.5
    left_mass = float(oracles.pad_window(sm, grid)[left].sum() * grid.h)
    assert left_mass == pytest.approx(0.3, abs=1e-9)
    assert sm.mass == pytest.approx(1.0, abs=1e-9)


def test_smoothed_atoms_match_full_grid_kernel():
    ext = extended()
    grid = ext.extended
    delta = 0.05
    kernel = Mollifier(delta)
    # the two atoms' windows overlap
    for atoms in ([(0.5, 1.0)], [(0.25, 0.3), (0.31, 0.7)]):
        sm = smooth_marginal(AtomicMeasure(atoms), delta, ext)
        expected = np.zeros(grid.n)
        for loc, mass in atoms:
            vals = kernel(grid.centers - loc)
            expected += mass * vals / (vals.sum() * grid.h)
        assert np.max(np.abs(oracles.pad_window(sm, grid) - expected)) <= 1e-15 * np.max(expected)


def fine_domain(delta=4e-4):
    """The extended grid of the benchmark's finest gamma-limit case: 640 000 cells on [0, 1]."""
    return ExtendedDomain.extend(Grid1D(0.0, 1.0, 640_000), delta)


def test_an_atomic_marginal_lives_on_a_window_with_the_extended_grids_h():
    ext = fine_domain()
    grid = ext.extended
    for atoms in ([(0.0, 1.0)], [(1.0, 1.0)], [(0.25, 0.3), (0.2501, 0.7)]):
        for delta in (6.25e-6, 4e-4):
            window = smooth_marginal(AtomicMeasure(atoms), delta, ext).grid
            assert window.h == grid.h
            spread = max(loc for loc, _ in atoms) - min(loc for loc, _ in atoms)
            assert window.n <= (spread + 2 * delta) / grid.h + 3
    # a grid built from the window's ends would not keep h bit for bit
    window = smooth_marginal(AtomicMeasure([(1.0, 1.0)]), 4e-4, ext).grid
    assert Grid1D(window.lo, window.hi, window.n).h != grid.h


def test_window_centers_are_the_extended_grids_within_a_few_ulps():
    for lo, hi in ((0.0, 1.0), (-3.0, 7.0), (1e6, 1e6 + 1.0)):
        ext = ExtendedDomain.extend(Grid1D(lo, hi, 640_000), 4e-4 * (hi - lo))
        grid = ext.extended
        ulp = np.spacing(max(abs(grid.lo), abs(grid.hi)))
        for loc in (lo, 0.3 * lo + 0.7 * hi, hi):
            sm = smooth_marginal(AtomicMeasure([(loc, 1.0)]), 4e-4 * (hi - lo), ext)
            first = int(round((sm.grid.lo - grid.lo) / grid.h))
            assert np.max(np.abs(sm.grid.centers - grid.centers[first:first + sm.grid.n])) <= 4 * ulp


def test_the_window_holds_every_nonzero_cell():
    ext = extended(n=4096)
    grid = ext.extended
    delta = 0.01
    kernel = Mollifier(delta)
    for atoms in ([(0.0, 1.0)], [(1.0, 1.0)], [(0.25, 0.3), (0.75, 0.7)], [(0.5, 0.5), (0.5 + 1e-9, 0.5)]):
        sm = smooth_marginal(AtomicMeasure(atoms), delta, ext)
        full = sum(mass * kernel(grid.centers - loc) for loc, mass in atoms)
        assert np.array_equal(oracles.pad_window(sm, grid) > 0, full > 0)


def test_smoothing_the_finest_benchmark_marginals_allocates_no_grid_sized_array():
    ext = fine_domain()
    mu, nu = AtomicMeasure([(0.0, 1.0)]), AtomicMeasure([(1.0, 1.0)])
    tracemalloc.start()
    try:
        smoothed = [smooth_marginal(m, 4e-4, ext) for m in (mu, nu)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one array of the extended grid's 640 512 cells would take 5 MiB
    assert peak < 1 << 20
    assert [m.mass for m in smoothed] == [pytest.approx(1.0, rel=1e-12)] * 2


def test_windows_above_the_fft_crossover_solve_on_the_fft_kernel_as_the_full_grid_does():
    ext = extended(n=4096)
    grid = ext.extended
    mu = smooth_marginal(AtomicMeasure([(0.3, 1.0)]), 0.1, ext)
    nu = smooth_marginal(AtomicMeasure([(0.7, 1.0)]), 0.1, ext)
    assert mu.grid.n * nu.grid.n > solver._FFT_MIN_CELLS
    window = solve_logdomain(mu, nu, "sqdist", 0.1).report
    full = solve_logdomain(
        GridMeasure(grid, oracles.pad_window(mu, grid)), GridMeasure(grid, oracles.pad_window(nu, grid)),
        "sqdist", 0.1,
    ).report
    assert window.kernel == full.kernel == "fft"
    assert window.iterations == full.iterations
    assert window.primal_value == pytest.approx(full.primal_value, rel=1e-12)
    assert window.transport_cost == pytest.approx(full.transport_cost, rel=1e-12)


def test_a_kernel_whose_entries_would_be_subnormal_solves_on_the_fft_as_on_the_dense_kernel(monkeypatch):
    # atoms 1 apart on 640 000 cells: exp(-c/gamma) is subnormal or 0 on the whole hull block,
    # so the FFT kernel convolves it scaled to a largest entry of 1
    mu, nu = AtomicMeasure([(0.0, 1.0)]), AtomicMeasure([(1.0, 1.0)])
    schedule = [(0.00138, 4e-4), (0.00136, 4e-4)]
    kernels = []
    point = solver.sweep_point

    def recorded(*args, **kwargs):
        report, status, beta = point(*args, **kwargs)
        kernels.append(report.kernel)
        return report, status, beta

    monkeypatch.setattr(solver, "sweep_point", recorded)
    fft = gamma_sweep(mu, nu, "sqdist", schedule, fine_domain())
    monkeypatch.setattr(solver, "_FFT_MIN_CELLS", 1 << 62)
    dense = gamma_sweep(mu, nu, "sqdist", schedule, fine_domain())
    assert kernels == ["fft", "fft", "dense", "dense"]
    for f, d in zip(fft, dense):
        assert f.status == d.status == "ok"
        assert f.iterations == d.iterations
        assert f.regularized_value == pytest.approx(d.regularized_value, rel=1e-12)
        assert f.primal_value == pytest.approx(d.primal_value, rel=1e-12)


def test_smooth_rejects_unresolved_delta():
    ext = extended(n=64)  # h ~ 1/64
    atom = AtomicMeasure([(0.5, 1.0)])
    with pytest.raises(ParameterError):
        smooth_marginal(atom, 0.01, ext)  # needs h <= delta/4
    with pytest.raises(ParameterError):
        smooth_marginal(atom, 0.5, ext)  # exceeds the margin
    with pytest.raises(ParameterError):
        smooth_marginal(atom, -0.1, ext)
    # a grid measure has finite entropy already: only atoms are smoothed
    with pytest.raises(TypeError, match="cannot smooth a GridMeasure"):
        smooth_marginal(GridMeasure(Grid1D(0.0, 1.0, 64), np.ones(64)), 0.1, ext)


def test_smooth_marginal_refuses_an_atom_outside_the_domain():
    ext = extended(n=64)  # [0, 1], extended by 0.25 on both sides
    # 1.1 lies in the extension, 25 beyond it: neither is in the grid's domain
    for loc in (-0.01, 1.1, 25.0):
        atoms = AtomicMeasure([(0.5, 0.5), (loc, 0.5)])
        with pytest.raises(ParameterError, match=rf"atom at {loc!r} lies outside the domain \[0.0, 1.0\]"):
            smooth_marginal(atoms, 0.1, ext)
    ends = smooth_marginal(AtomicMeasure([(0.0, 0.5), (1.0, 0.5)]), 0.1, ext)
    assert ends.mass == pytest.approx(1.0, abs=1e-12)


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


def test_unregularized_matches_permutation_oracle_on_unequal_masses():
    # an atom of mass j/k is j atoms of mass 1/k at one place, which the oracle can take
    rng = np.random.default_rng(23)

    def atoms(k):
        size = int(rng.integers(1, k + 1))
        cuts = np.sort(rng.choice(np.arange(1, k), size=size - 1, replace=False))
        counts = np.diff(np.concatenate(([0], cuts, [k])))
        locs = rng.random(size)
        return AtomicMeasure([(float(x), j / k) for x, j in zip(locs, counts)]), np.repeat(locs, counts)

    for _ in range(40):
        k = int(rng.integers(2, 7))
        (mu, xs), (nu, ys) = atoms(k), atoms(k)
        for rule in ("sqdist", "abs"):
            ref = oracles.permutation_ot(xs, ys, lambda a, b: float(COST_RULES[rule](a, b)))
            assert unregularized_ot_1d(mu, nu, rule) == pytest.approx(ref, rel=1e-13, abs=1e-15)


def test_an_unregularized_reference_beyond_the_double_range_is_a_parameter_error():
    mu = AtomicMeasure([(0.0, 1.0)])
    nu = AtomicMeasure([(1e300, 1.0)])
    assert unregularized_ot_1d(mu, nu, "abs") == 1e300
    with pytest.raises(ParameterError, match="the unregularized reference is inf"):
        unregularized_ot_1d(mu, nu, "sqdist")


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


def test_a_zero_coefficient_or_an_empty_schedule_is_refused():
    with pytest.raises(ParameterError, match="schedule coefficient must be positive, got 0"):
        power_schedule([0.1], coeff=0)
    mu, nu = AtomicMeasure([(0.0, 1.0)]), AtomicMeasure([(1.0, 1.0)])
    with pytest.raises(ParameterError, match="at least one"):
        gamma_sweep(mu, nu, "sqdist", [], extended(n=64))


def simple_sweep(schedule, n=256, **kw):
    mu = AtomicMeasure([(0.0, 1.0)])
    nu = AtomicMeasure([(1.0, 1.0)])
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
    mu = AtomicMeasure([(0.0, 1.0)])
    nu = AtomicMeasure([(1.0, 1.0)])
    ext = ExtendedDomain.extend(Grid1D(0.0, 1.0, 128), 0.2)
    point = gamma_sweep(mu, nu, "sqdist", [(0.1, 0.2)], ext)[0]
    grid = ext.extended
    c = cost_field(grid, grid, "sqdist")
    # the sweep solves on the smoothed marginals' windows; this solve, on the whole extended grid
    mu_d, nu_d = (GridMeasure(grid, oracles.pad_window(smooth_marginal(m, 0.2, ext), grid)) for m in (mu, nu))
    res = solve_logdomain(mu_d, nu_d, c, 0.1)
    assert point.iterations == res.report.iterations
    assert point.primal_value == pytest.approx(res.report.primal_value, rel=1e-12)
    cost_part = float(np.sum(c.values * res.plan.values) * grid.h * grid.h)
    assert point.regularized_value == pytest.approx(cost_part, rel=1e-12)


def test_two_atoms_each_solve_within_twenty_thousand_passes():
    # each smoothed atom is one run of support cells, and mass moves between
    # runs slowly: plain passes stopped at 20 000 with residual 2.324e-5
    mu = AtomicMeasure([(0.0, 0.5), (0.3, 0.5)])
    nu = AtomicMeasure([(0.6, 0.5), (1.0, 0.5)])
    (point,) = gamma_sweep(mu, nu, "sqdist", [(0.01, 0.02)], extended(n=1000, margin=0.02), max_iter=20000)
    assert point.status == "ok"
    assert point.iterations == 10204
    assert point.regularized_value == pytest.approx(0.4251258399, abs=1e-9)
    assert point.unregularized_reference == pytest.approx(0.425, rel=1e-12)


def test_sweep_entropies_match_neg_entropy_of_smoothed_marginals():
    schedule = [(0.2, 0.2)]
    mu = AtomicMeasure([(0.0, 1.0)])
    nu = AtomicMeasure([(1.0, 1.0)])
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


def test_a_solve_at_a_fixed_point_stops_and_says_so():
    # at gamma = 1e-300 log b repeats bit for bit from the fourth pass on
    ext = extended(n=64, margin=0.1)
    mu = smooth_marginal(AtomicMeasure([(0.0, 1.0)]), 0.1, ext)
    nu = smooth_marginal(AtomicMeasure([(1.0, 1.0)]), 0.1, ext)
    with pytest.raises(solver.ConvergenceError) as err:
        solve_logdomain(mu, nu, "sqdist", 1e-300)
    assert err.value.stalled
    assert err.value.report.iterations == 4
    assert str(err.value).startswith("no convergence: the iterate stopped changing at iteration 4 (")
    with pytest.raises(solver.ConvergenceError) as err:
        solve_logdomain(mu, nu, "sqdist", 1e-300, max_iter=3)
    assert not err.value.stalled
    assert str(err.value).startswith("no convergence in 3 iterations (")


def test_sweep_refuses_an_unknown_mode_before_any_solve(monkeypatch):
    monkeypatch.setattr(solver, "_solve", lambda *args: pytest.fail("a point was solved"))
    with pytest.raises(ParameterError, match="unknown mode 'nonsense', expected 'direct' or 'log'"):
        simple_sweep([(0.2, 0.2)], mode="nonsense")


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


@pytest.mark.parametrize("cost", ["euclid", "table"])
def test_a_cost_that_is_not_a_rule_name_is_an_unknown_cost_rule(cost):
    mu = AtomicMeasure([(0.2, 1.0)])
    nu = AtomicMeasure([(0.8, 1.0)])
    ext = extended(n=64)
    if cost == "table":
        cost = cost_field(ext.extended, ext.extended, "sqdist")
    with pytest.raises(ParameterError, match="unknown cost rule"):
        unregularized_ot_1d(mu, nu, cost)
    with pytest.raises(ParameterError, match="unknown cost rule"):
        gamma_sweep(mu, nu, cost, [(0.2, 0.1)], ext)
