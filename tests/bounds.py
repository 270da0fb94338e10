"""The paper's projection and separable-sum norm inequalities, checked with entot's norm."""

from typing import NamedTuple, Tuple

from entot.measures import GridFunction, ProductDensity, ProductFunction, marginals
from entot.orlicz import PHI_EXP, PHI_LOG, luxemburg_norm


class BoundCheck(NamedTuple):
    """One side-by-side inequality check, asserting lhs <= rhs + tol."""

    lhs: float
    rhs: float
    holds: bool


def check_projection_bound(p: ProductDensity, tol=1e-8, norm_tol=1e-10) -> Tuple[BoundCheck, BoundCheck]:
    """Each marginal's L log L norm against max(1, length of the other factor) times the product's."""
    norm_p = luxemburg_norm(p, PHI_LOG, norm_tol).value
    checks = []
    for marg, partner in zip(marginals(p), (p.grid2, p.grid1)):
        lhs = luxemburg_norm(marg, PHI_LOG, norm_tol).value
        rhs = max(1.0, partner.length) * norm_p
        checks.append(BoundCheck(lhs, rhs, lhs <= rhs + tol))
    return checks[0], checks[1]


def oplus(alpha: GridFunction, beta: GridFunction) -> ProductFunction:
    """The separable sum (alpha + beta)_ij = alpha_i + beta_j on the product grid."""
    return ProductFunction(alpha.grid, beta.grid, alpha.values[:, None] + beta.values[None, :])


def check_oplus_bound(alpha: GridFunction, beta: GridFunction, tol=1e-8, norm_tol=1e-10) -> BoundCheck:
    """min(1, L1) * ||beta + mean(alpha)||_PhiExp is at most ||alpha (+) beta||_PhiExp.

    mean(alpha) is the integral average of alpha over its interval of length L1.
    """
    shifted = GridFunction(beta.grid, beta.values + alpha.mean())
    lhs = min(1.0, alpha.grid.length) * luxemburg_norm(shifted, PHI_EXP, norm_tol).value
    rhs = luxemburg_norm(oplus(alpha, beta), PHI_EXP, norm_tol).value
    return BoundCheck(lhs, rhs, lhs <= rhs + tol)
