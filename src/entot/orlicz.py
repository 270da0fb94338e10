"""Young functions, Luxemburg norms by bisection, and the neg-entropy functional.

Two Young functions are provided, each a plain function of a nonnegative
array:

* ``PHI_LOG``:   s * log+(s), the Young function of the L log L space.
* ``PHI_EXP``:   s on [0, 1], exp(s - 1) for s > 1, the exponential class.

The CLI's ``--young solver`` is an alias of ``PHI_EXP``: the solver's
extended rule is +inf below 0 and the exp rule above, and a norm only
evaluates its rule on |f|.

The Luxemburg norm of f is inf{g > 0 : integral Phi(|f| / g) <= 1}. On a
grid the integral is the midpoint sum, which is monotone nonincreasing in
g, so bisection on g is sound. It stays within the doubles from 5e-324 to
the largest one, so a nonzero f never has norm 0, and only a norm beyond
the largest double is inf.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from .measures import GridFunction, ProductFunction

__all__ = [
    "PHI_LOG",
    "PHI_EXP",
    "NormResult",
    "neg_entropy",
    "luxemburg_norm",
]


def PHI_LOG(s: np.ndarray) -> np.ndarray:
    """s log s above 1 and 0 on [0, 1], for a nonnegative array s."""
    out = np.zeros_like(s)
    above = s > 1.0
    out[above] = s[above] * np.log(s[above])
    return out


def PHI_EXP(s: np.ndarray) -> np.ndarray:
    """s on [0, 1] and exp(s - 1) above, for a nonnegative array s."""
    out = s.copy()
    above = s > 1.0
    with np.errstate(over="ignore"):
        out[above] = np.exp(s[above] - 1.0)
    return out


def neg_entropy(m: Union[GridFunction, ProductFunction]) -> float:
    """Integral of f log f with the 0 log 0 = 0 convention.

    Sums each cell's mass f * w times log f, so a density whose f log f
    overflows, such as 1e306 on a cell of width 1e-307, still has a finite
    integral. Always at least -L/e
    where L is the measure of the domain, since t log t >= -1/e pointwise.
    An integral beyond the float range raises OverflowError.
    """
    vals, w = m.values, m.weight
    if np.any(vals < 0):
        raise ValueError("neg-entropy is defined for nonnegative densities")
    pos = vals[vals > 0.0]
    with np.errstate(over="ignore"):
        value = float(np.sum(pos * w * np.log(pos)))
    if not math.isfinite(value):
        raise OverflowError(f"the neg-entropy integral of f log f overflows to {value!r}")
    return value


@dataclass(frozen=True)
class NormResult:
    """Luxemburg norm estimate with its final bisection bracket."""

    value: float
    bracket: Tuple[float, float]
    iterations: int


def luxemburg_norm(
    f: Union[GridFunction, ProductFunction], phi: Callable[[np.ndarray], np.ndarray], tol: float = 1e-10
) -> NormResult:
    """Luxemburg norm inf{g > 0 : sum phi(|f_i| / g) * w <= 1} by bisection.

    The defining integral is nonincreasing in g. The bracket starts at
    (0.5, 1); its ends double, up to the largest double, while the integral
    at the upper end is above 1, or halve while the integral at the lower
    end is at most 1, which leaves a factor-2 bracket around the norm.
    Bisection then stops once the bracket is narrower than ``tol`` times
    its midpoint, a relative tolerance at every scale, and the norm is the
    midpoint; or once its ends are adjacent doubles, and the norm is the
    upper end, the least upper bound. The zero function short-circuits to
    0, and a norm beyond the largest double is inf.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    vals, w = f.values, f.weight
    absvals = np.abs(np.asarray(vals, dtype=float)).ravel()
    if not np.any(absvals > 0):
        return NormResult(0.0, (0.0, 0.0), 0)

    def integral(g: float) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(phi(absvals / g)) * w)

    lo, hi = 0.5, 1.0
    while integral(hi) > 1.0:
        if hi == sys.float_info.max:
            return NormResult(math.inf, (hi, math.inf), 0)
        lo, hi = hi, min(2.0 * hi, sys.float_info.max)
    while lo > 0.0 and integral(lo) <= 1.0:
        lo, hi = lo / 2.0, lo

    iterations = 0
    # halves before the sum, which keeps the midpoint of huge ends finite and
    # is the same double as 0.5 * (lo + hi) in the normal range
    mid = 0.5 * lo + 0.5 * hi
    while hi - lo > tol * mid and lo < mid < hi:
        if integral(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        iterations += 1
        mid = 0.5 * lo + 0.5 * hi
    return NormResult(mid if lo < mid < hi else hi, (lo, hi), iterations)
