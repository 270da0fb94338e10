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
g, so bisection on g is sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from .measures import (
    GridFunction,
    GridMeasure,
    ProductDensity,
    ProductFunction,
)

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

    Sums each cell's mass f * w times log f, so a density whose f log f
    overflows, such as 1e306 on a cell of width 1e-307, still has a finite
    integral. Always at least -L/e
    where L is the measure of the domain, since t log t >= -1/e pointwise.
    An integral beyond the float range raises OverflowError.
    """
    vals, w = _values_and_weight(m)
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


_BRACKET_CAP = 2000


def luxemburg_norm(f: GridLike, phi: Callable[[np.ndarray], np.ndarray], tol: float = 1e-10) -> NormResult:
    """Luxemburg norm inf{g > 0 : sum phi(|f_i| / g) * w <= 1} by bisection.

    The defining integral is nonincreasing in g; the bracket starts at
    (1e-300, 1), doubles the upper end until the integral drops to 1 or
    below, then bisects until the bracket width falls under
    ``tol * max(1, value)``. The zero function short-circuits to 0.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
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
