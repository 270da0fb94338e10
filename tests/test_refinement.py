"""The paper's existence theorem under grid refinement.

The entropically regularized problem has a minimizer if and only if both
marginals have finite entropy. On the grid every marginal has finite
entropy, so the theorem shows as h -> 0: for a marginal of finite entropy
the grid optimum converges, and for one of infinite entropy it rises with
the entropy of the sampled marginal, while the optimum less gamma times that
entropy converges. mu_h has the exact cell masses F(x_{i+1}) - F(x_i) of a
CDF F on [0, 1], so the inputs carry no quadrature error; nu is uniform.

The dual half: the predual in continuous functions may have no minimizer,
while the dual in the Orlicz space does, and the scaling a is in L log L
exactly when mu is. So under refinement the L log L norm and the entropy of
the gauged a_h settle for a marginal of finite entropy and grow for one of
infinite entropy, while in both max |alpha_h| grows without bound and the
exp-Orlicz norm of alpha_h stays put.
"""

import numpy as np
import pytest

from entot import (
    PHI_EXP, PHI_LOG, Grid1D, GridFunction, GridMeasure, luxemburg_norm, neg_entropy, solve_logdomain,
)

GAMMA = 0.1
SIZES = (64, 256, 1024, 4096, 16384)  # 4x refinement steps; the FFT kernel runs from 1024


def sqrt_cdf(x):
    # density 1 / (2 sqrt x): unbounded, with finite entropy
    return np.sqrt(x)


def log_cdf(x):
    # density 1 / (x (1 - log x)^2), with infinite entropy; F(0) = 0
    with np.errstate(divide="ignore"):
        return 1.0 / (1.0 - np.log(x))


def refine(cdf):
    """Rows over the sizes: the primal value, H(mu_h) and the L log L norm of mu_h;
    then the L log L norm and H of the gauged a_h, max |alpha_h|, the PHI_EXP norm
    of alpha_h, and the report's sandwich_k and sandwich_violation."""
    rows = []
    for n in SIZES:
        g = Grid1D(0.0, 1.0, n)
        mu = GridMeasure(g, np.diff(cdf(np.linspace(0.0, 1.0, n + 1))) / g.h)
        nu = GridMeasure(g, np.ones(n))
        res = solve_logdomain(mu, nu, "sqdist", GAMMA, tol=1e-10)
        a, alpha = GridFunction(g, res.state.a), GridFunction(g, res.potentials.alpha)
        rows.append((
            res.report.primal_value, neg_entropy(mu), luxemburg_norm(mu, PHI_LOG).value,
            luxemburg_norm(a, PHI_LOG).value, neg_entropy(a), np.abs(alpha.values).max(),
            luxemburg_norm(alpha, PHI_EXP).value, res.report.sandwich_k, res.report.sandwich_violation,
        ))
    return np.array(rows).T


@pytest.fixture(scope="module")
def finite():
    return refine(sqrt_cdf)


@pytest.fixture(scope="module")
def infinite():
    return refine(log_cdf)


def test_a_marginal_of_finite_entropy_has_a_converging_optimum(finite):
    primal, _, norm = finite[:3]
    # the successive differences 2.110e-3, 9.906e-4, 4.872e-4, 2.426e-4 halve at each step
    steps = np.diff(primal)
    assert steps[0] == pytest.approx(2.110e-3, rel=1e-3)
    assert np.all(steps > 0)
    assert np.all((0.45 < steps[1:] / steps[:-1]) & (steps[1:] / steps[:-1] < 0.55))
    # the L log L norm settles: 0.697, 0.705 and 0.706 at n = 256, 4096 and 16384
    assert norm[[1, 3, 4]] == pytest.approx([0.697, 0.705, 0.706], abs=1e-3)
    assert np.all(np.diff(norm)[1:] / np.diff(norm)[:-1] < 0.6)


def test_a_marginal_of_infinite_entropy_has_a_rising_optimum_less_its_entropy_term(infinite):
    primal, entropy, norm = infinite[:3]
    # the primal rises from 0.0315 to 0.0753 and H(mu_h) from 0.346 to 0.779, at each step
    assert primal[[0, -1]] == pytest.approx([0.0315, 0.0753], abs=1e-4)
    assert entropy[[0, -1]] == pytest.approx([0.346, 0.779], abs=1e-3)
    assert np.all(np.diff(primal) > 0.009) and np.all(np.diff(entropy) > 0.09)
    # primal - gamma H(mu_h) converges: each step moves it a fifth or less of the one before
    reduced = primal - GAMMA * entropy
    expected = [-0.0031075, -0.0027141, -0.0026325, -0.0026152, -0.0026114]
    assert reduced == pytest.approx(expected, abs=1e-7)
    steps = np.abs(np.diff(reduced))
    assert np.all(steps[1:] < 0.25 * steps[:-1])
    # the L log L norm keeps growing: 0.766, 0.898 and 0.964 at n = 256, 4096 and 16384
    assert norm[[1, 3, 4]] == pytest.approx([0.766, 0.898, 0.964], abs=1e-3)
    assert np.all(np.diff(norm)[1:] > 0.06)


def test_a_marginal_of_finite_entropy_has_a_scaling_that_settles_in_l_log_l(finite):
    norm, entropy = finite[3:5]
    # 1.2831, 1.2902, 1.2938 and H(a_h) 1.2694, 1.2808, 1.2864 at n = 1024, 4096 and 16384
    assert norm[2:] == pytest.approx([1.2831, 1.2902, 1.2938], abs=1e-4)
    assert entropy[2:] == pytest.approx([1.2694, 1.2808, 1.2864], abs=1e-4)
    # each step is 0.45 to 0.49 of the one before
    for steps in (np.diff(norm), np.diff(entropy)):
        assert np.all(steps > 0)
        assert np.all((0.4 < steps[1:] / steps[:-1]) & (steps[1:] / steps[:-1] < 0.55))


def test_a_marginal_of_infinite_entropy_has_a_scaling_that_leaves_l_log_l(infinite):
    norm, entropy = infinite[3:5]
    # 1.6653, 1.8298, 1.9826 and H(a_h) 1.6731, 1.8881, 2.0828 at n = 1024, 4096 and 16384
    assert norm[2:] == pytest.approx([1.6653, 1.8298, 1.9826], abs=1e-4)
    assert entropy[2:] == pytest.approx([1.6731, 1.8881, 2.0828], abs=1e-4)
    # steps of 0.15 to 0.20 and 0.19 to 0.28 that shrink by under a seventh, not by half
    for steps, least in ((np.diff(norm), 0.15), (np.diff(entropy), 0.19)):
        assert np.all(steps > least)
        assert np.all(steps[1:] / steps[:-1] > 0.85)


def test_no_bounded_continuous_potential_is_the_limit(finite, infinite):
    # max |alpha_h| grows at every step: by gamma log(4) / 2 for sqrt x, whose
    # density ~ x^(-1/2) puts a ~ h^(-1/2) on the first cell, and by 0.117 to
    # 0.125, rising, for the marginal of infinite entropy
    assert np.diff(finite[5]) == pytest.approx(GAMMA * np.log(4) / 2, abs=3e-3)
    steps = np.diff(infinite[5])
    assert np.all(steps > 0.11) and np.all(np.diff(steps) > 0)


@pytest.mark.parametrize(
    "which, exp_norm, k",
    [
        ("finite", [0.16258, 0.16257, 0.16256], [2.6804, 2.6822, 2.6827]),
        ("infinite", [0.09952, 0.09957, 0.09960], [1.7070, 1.7089, 1.7094]),
    ],
)
def test_the_dual_potential_stays_in_the_exp_orlicz_space_and_its_sandwich(which, exp_norm, k, request):
    alpha_max, alpha_exp, sandwich_k, violation = request.getfixturevalue(which)[5:]
    # the PHI_EXP norm of alpha_h moves by 2.4e-4 (sqrt x) and 1.2e-3 over all
    # sizes, while max |alpha_h| grows by 0.28 and 0.48
    assert alpha_exp[2:] == pytest.approx(exp_norm, abs=1e-5)
    assert np.ptp(alpha_exp) < 1.5e-3 and alpha_max[-1] - alpha_max[0] > 0.25
    # sandwich_k converges, each step under 0.3 of the one before, and log a stays inside
    assert sandwich_k[2:] == pytest.approx(k, abs=1e-4)
    steps = np.diff(sandwich_k)
    assert np.all(steps > 0) and np.all(steps[1:] < 0.3 * steps[:-1])
    assert np.all(violation < -0.7)
