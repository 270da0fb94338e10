import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entot.measures import Grid1D, GridFunction, GridMeasure, ProductDensity
from entot.orlicz import PHI_EXP, PHI_LOG, luxemburg_norm, neg_entropy

import oracles
from bounds import check_oplus_bound, check_projection_bound, oplus


def test_phi_log_pointwise():
    got = PHI_LOG(np.array([0.0, 0.5, 1.0, 2.0]))
    assert got[:3].tolist() == [0.0, 0.0, 0.0]
    assert got[3] == pytest.approx(2 * np.log(2), abs=1e-15)


def test_phi_exp_pointwise():
    got = PHI_EXP(np.array([0.0, 0.5, 1.0, 3.0]))
    assert got[:3].tolist() == [0.0, 0.5, 1.0]
    assert got[3] == pytest.approx(np.exp(2.0), rel=1e-15)


def test_neg_entropy_uniform_is_zero():
    g = Grid1D(0.0, 1.0, 128)
    assert neg_entropy(GridMeasure(g, np.ones(128))) == 0.0


def test_neg_entropy_hand_value():
    # density 2 on [0, 1/2]: integral of 2 log 2 over half the interval
    g = Grid1D(0.0, 1.0, 64)
    d = np.where(g.centers < 0.5, 2.0, 0.0)
    m = GridMeasure(g, d)
    assert neg_entropy(m) == pytest.approx(np.log(2.0), abs=1e-13)


def test_neg_entropy_rejects_signed_input():
    g = Grid1D(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        neg_entropy(GridFunction(g, np.array([1.0, -1.0, 1.0, 1.0])))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.1, max_value=3.0))
def test_neg_entropy_lower_bound(seed, length):
    """Pointwise s log s >= -1/e integrates to E(f) >= -L/e on any domain."""
    rng = np.random.default_rng(seed)
    g = Grid1D(0.0, length, 32)
    f = GridMeasure(g, rng.random(32) * 2.0)
    assert neg_entropy(f) >= -length / np.e - 1e-12


def test_neg_entropy_of_product_density():
    g = Grid1D(0.0, 1.0, 16)
    p = ProductDensity(g, g, np.full((16, 16), 3.0))
    assert neg_entropy(p) == pytest.approx(3 * np.log(3), abs=1e-12)


def test_luxemburg_zero_function():
    g = Grid1D(0.0, 1.0, 8)
    res = luxemburg_norm(GridMeasure(g, np.zeros(8)), PHI_LOG)
    assert res.value == 0.0


@pytest.mark.parametrize(
    "length,expected",
    [(0.5, 1.0 / (1.0 + np.log(2.0))), (1.0, 1.0), (2.0, 2.0)],
)
def test_luxemburg_constant_one_closed_form(length, expected):
    g = Grid1D(0.0, length, 256)
    res = luxemburg_norm(GridMeasure(g, np.ones(256)), PHI_EXP)
    assert res.value == pytest.approx(expected, abs=1e-9)


def test_luxemburg_result_invariants():
    g = Grid1D(0.0, 1.0, 64)
    f = GridMeasure(g, np.random.default_rng(5).random(64) + 0.1)
    res = luxemburg_norm(f, PHI_LOG, tol=1e-10)
    lo, hi = res.bracket
    assert lo <= res.value <= hi
    assert hi - lo <= 1e-10 * max(1.0, res.value)
    assert res.iterations > 0


def test_luxemburg_matches_independent_bisection():
    rng = np.random.default_rng(11)
    g = Grid1D(0.0, 2.0, 100)
    vals = rng.random(100) * 4.0
    f = GridFunction(g, vals)
    for phi, ref_phi in [(PHI_LOG, oracles.phi_log), (PHI_EXP, oracles.phi_exp)]:
        got = luxemburg_norm(f, phi).value
        ref = oracles.luxemburg_bisect(vals, np.full(100, g.h), ref_phi)
        assert got == pytest.approx(ref, rel=1e-8)


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=20.0),
)
def test_luxemburg_homogeneity(seed, scale):
    rng = np.random.default_rng(seed)
    g = Grid1D(0.0, 1.0, 32)
    vals = rng.random(32) + 0.05
    base = luxemburg_norm(GridFunction(g, vals), PHI_EXP, tol=1e-12).value
    scaled = luxemburg_norm(GridFunction(g, scale * vals), PHI_EXP, tol=1e-12).value
    assert scaled == pytest.approx(scale * base, rel=1e-7)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_luxemburg_monotone_in_pointwise_domination(seed):
    rng = np.random.default_rng(seed)
    g = Grid1D(0.0, 1.0, 32)
    small = rng.random(32)
    large = small + rng.random(32)
    n_small = luxemburg_norm(GridFunction(g, small), PHI_LOG).value
    n_large = luxemburg_norm(GridFunction(g, large), PHI_LOG).value
    assert n_small <= n_large + 1e-9


def test_luxemburg_rejects_non_young_phi_and_bad_tol():
    g = Grid1D(0.0, 1.0, 8)
    f = GridMeasure(g, np.ones(8))
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            luxemburg_norm(f, PHI_LOG, tol=tol)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_modular_dominates_norm_above_one(seed):
    """When the norm is at least 1, the modular integral dominates it."""
    rng = np.random.default_rng(seed)
    g = Grid1D(0.0, 1.0, 24)
    vals = rng.random(24) * 6.0 + 1.0
    f = GridFunction(g, vals)
    norm = luxemburg_norm(f, PHI_EXP).value
    if norm >= 1.0:
        modular = float(np.sum(PHI_EXP(vals) * g.h))
        assert modular >= norm - 1e-9


def test_projection_bound_uniform_product():
    g = Grid1D(0.0, 1.0, 16)
    p = ProductDensity(g, g, np.ones((16, 16)))
    first, second = check_projection_bound(p)
    assert first.holds and second.holds


def test_projection_bound_random_grids():
    rng = np.random.default_rng(7)
    g1 = Grid1D(0.0, 1.5, 8)
    g2 = Grid1D(0.0, 0.75, 8)
    for _ in range(20):
        p = ProductDensity(g1, g2, rng.random((8, 8)) * 3.0)
        first, second = check_projection_bound(p)
        assert first.holds, (first.lhs, first.rhs)
        assert second.holds, (second.lhs, second.rhs)


def test_oplus_bound_zero_case():
    g = Grid1D(0.0, 1.0, 8)
    zero = GridFunction(g, np.zeros(8))
    check = check_oplus_bound(zero, zero)
    assert check.lhs == 0.0 and check.rhs == 0.0 and check.holds


def test_oplus_bound_constant_case():
    g = Grid1D(0.0, 1.0, 64)
    alpha = GridFunction(g, np.ones(64))
    beta = GridFunction(g, np.zeros(64))
    check = check_oplus_bound(alpha, beta)
    assert check.holds


def test_oplus_bound_random_inputs():
    rng = np.random.default_rng(13)
    g1 = Grid1D(0.0, 2.0, 12)
    g2 = Grid1D(0.0, 1.0, 9)
    for _ in range(20):
        alpha = GridFunction(g1, rng.normal(size=12))
        beta = GridFunction(g2, rng.normal(size=9))
        check = check_oplus_bound(alpha, beta)
        assert check.holds, (check.lhs, check.rhs)


def test_oplus_values():
    g1 = Grid1D(0.0, 1.0, 2)
    g2 = Grid1D(0.0, 1.0, 3)
    alpha = GridFunction(g1, np.array([1.0, 2.0]))
    beta = GridFunction(g2, np.array([10.0, 20.0, 30.0]))
    table = oplus(alpha, beta)
    assert_allclose(table.values, [[11.0, 21.0, 31.0], [12.0, 22.0, 32.0]])


@pytest.mark.parametrize("scale", [1e-12, 1e-300])
def test_luxemburg_norm_is_homogeneous_below_one(scale):
    # the bisection's tolerance is relative, so a norm far below 1 keeps its digits
    g = Grid1D(0.0, 1.0, 64)
    vals = np.random.default_rng(3).random(64) + 0.1
    for phi in (PHI_LOG, PHI_EXP):
        base = luxemburg_norm(GridFunction(g, vals), phi)
        scaled = luxemburg_norm(GridFunction(g, scale * vals), phi)
        assert scaled.value == pytest.approx(scale * base.value, rel=1e-9, abs=0)
        assert scaled.iterations <= 40


@pytest.mark.parametrize("value", [1e-320, 5e-324])
def test_luxemburg_norm_of_a_subnormal_function_stops_at_adjacent_doubles(value):
    # pytest makes a RuntimeWarning an error, so no division by a zero midpoint leaks
    g = Grid1D(0.0, 1.0, 64)
    res = luxemburg_norm(GridFunction(g, np.full(64, value)), PHI_EXP)
    lo, hi = res.bracket
    assert lo <= value <= hi == np.nextafter(lo, 1.0)
    assert res.iterations <= 40
