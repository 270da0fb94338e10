"""Young functions, Luxemburg norms by bisection, and the neg-entropy functional.

Three scalar rules are provided:

* ``PHI_LOG``:   s * log+(s), the Young function of the L log L space.
* ``PHI_EXP``:   s on [0, 1], exp(s - 1) for s > 1, the exponential class.
* ``PHI_SOLVER`` / ``PSI_SOLVER``: the extended-value pair used by the
  scaling solver. Phi is +inf on s < 0, equals s on [0, 1] and exp(s - 1)
  above; Psi = log(Phi) is -inf on s <= 0, log(s) on (0, 1), s - 1 above.

The Luxemburg norm of f is inf{g > 0 : integral Phi(|f| / g) <= 1}. On a
grid the integral is the midpoint sum, which is monotone nonincreasing in
g, so bisection on g is sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .measures import (
    GridFunction,
    GridMeasure,
    ProductDensity,
    ProductFunction,
)

__all__ = [
    "YoungFunction",
    "PHI_LOG",
    "PHI_EXP",
    "PHI_SOLVER",
    "PSI_SOLVER",
    "NormResult",
    "BoundCheck",
    "young_eval",
    "neg_entropy",
    "luxemburg_norm",
    "check_projection_bound",
    "check_oplus_bound",
    "oplus",
]


@dataclass(frozen=True)
class YoungFunction:
    """A scalar evaluation rule with an optional inverse.

    ``requires_nonneg`` marks rules defined only for s >= 0; passing
    negative arguments to those is a caller error. ``is_young`` marks the
    convex nondecreasing rules admissible inside a Luxemburg norm.
    """

    name: str
    _eval: Callable[[np.ndarray], np.ndarray]
    _inverse: Optional[Callable[[np.ndarray], np.ndarray]]
    requires_nonneg: bool
    is_young: bool

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.requires_nonneg and np.any(s < 0):
            raise ValueError(f"{self.name} is defined for nonnegative arguments only")
        scalar = s.ndim == 0
        out = self._eval(np.atleast_1d(s))
        return out[0] if scalar else out

    def inverse(self, t) -> np.ndarray:
        if self._inverse is None:
            raise ValueError(f"{self.name} has no single-valued inverse")
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        out = self._inverse(np.atleast_1d(t))
        return out[0] if scalar else out


def _phi_log_eval(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    above = s > 1.0
    out[above] = s[above] * np.log(s[above])
    return out


def _exp_branch(s: np.ndarray) -> np.ndarray:
    # shared by PHI_EXP and PHI_SOLVER on s >= 0: s below 1, exp(s-1) above
    out = s.copy()
    above = s > 1.0
    with np.errstate(over="ignore"):
        out[above] = np.exp(s[above] - 1.0)
    return out


def _phi_solver_eval(s: np.ndarray) -> np.ndarray:
    out = np.where(s < 0.0, np.inf, 0.0)
    nonneg = s >= 0.0
    out[nonneg] = _exp_branch(s[nonneg])
    return out


def _phi_solver_inverse(t: np.ndarray) -> np.ndarray:
    if np.any(t < 0):
        raise ValueError("inverse arguments must be nonnegative")
    out = t.copy()
    above = t > 1.0
    out[above] = 1.0 + np.log(t[above])
    return out


def _psi_solver_eval(s: np.ndarray) -> np.ndarray:
    out = np.full_like(s, -np.inf)
    mid = (s > 0.0) & (s < 1.0)
    out[mid] = np.log(s[mid])
    high = s >= 1.0
    out[high] = s[high] - 1.0
    return out


def _psi_solver_inverse(t: np.ndarray) -> np.ndarray:
    out = np.where(t < 0.0, np.exp(t), t + 1.0)
    return out


PHI_LOG = YoungFunction("PhiLog", _phi_log_eval, None, True, True)
PHI_EXP = YoungFunction("PhiExp", _exp_branch, _phi_solver_inverse, True, True)
PHI_SOLVER = YoungFunction("PhiSolver", _phi_solver_eval, _phi_solver_inverse, False, True)
PSI_SOLVER = YoungFunction("PsiSolver", _psi_solver_eval, _psi_solver_inverse, False, False)


def young_eval(phi: YoungFunction, s: float) -> float:
    """Evaluate a scalar rule at a point; may return +-inf on the extended rules."""
    return float(phi(s))


GridLike = Union[GridMeasure, GridFunction, ProductFunction]


def _values_and_weight(f: GridLike) -> Tuple[np.ndarray, float]:
    if isinstance(f, GridMeasure):
        return f.density, f.grid.h
    if isinstance(f, GridFunction):
        return f.values, f.grid.h
    if isinstance(f, ProductFunction):
        return f.values, f.weight
    raise TypeError(f"unsupported input type {type(f).__name__}")


def neg_entropy(m: Union[GridMeasure, ProductDensity]) -> float:
    """Integral of f log f with the 0 log 0 = 0 convention.

    Always at least -L/e where L is the measure of the domain, since
    t log t >= -1/e pointwise.
    """
    vals, w = _values_and_weight(m)
    if np.any(vals < 0):
        raise ValueError("neg-entropy is defined for nonnegative densities")
    pos = vals > 0.0
    return float(np.sum(vals[pos] * np.log(vals[pos])) * w)


@dataclass(frozen=True)
class NormResult:
    """Luxemburg norm estimate with its final bisection bracket."""

    value: float
    bracket: Tuple[float, float]
    iterations: int


_BRACKET_CAP = 2000


def luxemburg_norm(f: GridLike, phi: YoungFunction, tol: float = 1e-10) -> NormResult:
    """Luxemburg norm inf{g > 0 : sum phi(|f_i| / g) * w <= 1} by bisection.

    The defining integral is nonincreasing in g; the bracket starts at
    (1e-300, 1), doubles the upper end until the integral drops to 1 or
    below, then bisects until the bracket width falls under
    ``tol * max(1, value)``. The zero function short-circuits to 0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not phi.is_young:
        raise ValueError(f"{phi.name} is not admissible inside a Luxemburg norm")
    vals, w = _values_and_weight(f)
    absvals = np.abs(np.asarray(vals, dtype=float)).ravel()
    if not np.any(absvals > 0):
        return NormResult(0.0, (0.0, 0.0), 0)

    def integral(g: float) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(phi(absvals / g)) * w)

    lo, hi = 1e-300, 1.0
    for _ in range(_BRACKET_CAP):
        if integral(hi) <= 1.0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the Luxemburg norm from above")
    for _ in range(_BRACKET_CAP):
        if lo == 0.0 or integral(lo) > 1.0:
            break
        hi = lo
        lo /= 2.0
    else:
        raise RuntimeError("failed to bracket the Luxemburg norm from below")

    iterations = 0
    while hi - lo > tol * max(1.0, 0.5 * (lo + hi)) and iterations < 200:
        mid = 0.5 * (lo + hi)
        if integral(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        iterations += 1
    return NormResult(0.5 * (lo + hi), (lo, hi), iterations)


@dataclass(frozen=True)
class BoundCheck:
    """One side-by-side inequality check, asserting lhs <= rhs + tol."""

    lhs: float
    rhs: float
    holds: bool


def check_projection_bound(
    p: ProductDensity, tol: float = 1e-8, norm_tol: float = 1e-10
) -> Tuple[BoundCheck, BoundCheck]:
    """Marginal L log L norms against the product norm.

    For each factor i, the norm of the i-th marginal is bounded by
    max(1, L_partner) times the norm of the product density, where
    L_partner is the length of the other factor's interval. Returns one
    check per marginal.
    """
    from .measures import marginals

    m1, m2 = marginals(p)
    norm_p = luxemburg_norm(p, PHI_LOG, norm_tol).value
    checks = []
    for marg, partner in ((m1, p.grid2), (m2, p.grid1)):
        lhs = luxemburg_norm(marg, PHI_LOG, norm_tol).value
        rhs = max(1.0, partner.length) * norm_p
        checks.append(BoundCheck(lhs, rhs, lhs <= rhs + tol))
    return checks[0], checks[1]


def oplus(alpha: GridFunction, beta: GridFunction) -> ProductFunction:
    """The separable sum (alpha + beta)_ij = alpha_i + beta_j on the product grid."""
    return ProductFunction(
        alpha.grid, beta.grid, alpha.values[:, None] + beta.values[None, :]
    )


def check_oplus_bound(
    alpha: GridFunction, beta: GridFunction, tol: float = 1e-8, norm_tol: float = 1e-10
) -> BoundCheck:
    """Exponential-class norm of a separable sum against its reduced form.

    min(1, L1) * ||beta + mean(alpha)||_PhiExp is bounded by
    ||alpha (+) beta||_PhiExp, with mean(alpha) the integral average of
    alpha over its interval of length L1.
    """
    shifted = GridFunction(beta.grid, beta.values + alpha.mean())
    lhs = min(1.0, alpha.grid.length) * luxemburg_norm(shifted, PHI_EXP, norm_tol).value
    rhs = luxemburg_norm(oplus(alpha, beta), PHI_EXP, norm_tol).value
    return BoundCheck(lhs, rhs, lhs <= rhs + tol)
