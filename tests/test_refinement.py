"""The paper's existence theorem under grid refinement.

The entropically regularized problem has a minimizer if and only if both
marginals have finite entropy. On the grid every marginal has finite
entropy, so the theorem shows as h -> 0: for a marginal of finite entropy
the grid optimum converges, and for one of infinite entropy it rises with
the entropy of the sampled marginal, while the optimum less gamma times that
entropy converges. mu_h has the exact cell masses F(x_{i+1}) - F(x_i) of a
CDF F on [0, 1], so the inputs carry no quadrature error; nu is uniform.
"""

import numpy as np
import pytest

from entot import PHI_LOG, Grid1D, GridMeasure, luxemburg_norm, neg_entropy, solve_logdomain

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
    """The primal value, H(mu_h) and the L log L norm of mu_h at each size."""
    rows = []
    for n in SIZES:
        g = Grid1D(0.0, 1.0, n)
        mu = GridMeasure(g, np.diff(cdf(np.linspace(0.0, 1.0, n + 1))) / g.h)
        nu = GridMeasure(g, np.ones(n))
        primal = solve_logdomain(mu, nu, "sqdist", GAMMA, tol=1e-10).report.primal_value
        rows.append((primal, neg_entropy(mu), luxemburg_norm(mu, PHI_LOG).value))
    return np.array(rows).T


@pytest.fixture(scope="module")
def finite():
    return refine(sqrt_cdf)


@pytest.fixture(scope="module")
def infinite():
    return refine(log_cdf)


def test_a_marginal_of_finite_entropy_has_a_converging_optimum(finite):
    primal, _, norm = finite
    # the successive differences 2.110e-3, 9.906e-4, 4.872e-4, 2.426e-4 halve at each step
    steps = np.diff(primal)
    assert steps[0] == pytest.approx(2.110e-3, rel=1e-3)
    assert np.all(steps > 0)
    assert np.all((0.45 < steps[1:] / steps[:-1]) & (steps[1:] / steps[:-1] < 0.55))
    # the L log L norm settles: 0.697, 0.705 and 0.706 at n = 256, 4096 and 16384
    assert norm[[1, 3, 4]] == pytest.approx([0.697, 0.705, 0.706], abs=1e-3)
    assert np.all(np.diff(norm)[1:] / np.diff(norm)[:-1] < 0.6)


def test_a_marginal_of_infinite_entropy_has_a_rising_optimum_less_its_entropy_term(infinite):
    primal, entropy, norm = infinite
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
