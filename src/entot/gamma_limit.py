"""Mollified marginals and coupled (gamma, delta) sweeps toward the unregularized limit.

Singular marginals (sums of point masses) are smoothed by convolution with
a compactly supported bump kernel of width delta on a slightly extended
grid, the entropic problem is solved for each scheduled (gamma, delta)
pair, and the transport cost of the converged plan is compared against an
exact unregularized reference: the monotone (sorted north-west corner)
coupling of the atoms, optimal in one dimension for costs that are convex
in the difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .measures import AtomicMeasure, Grid1D, GridMeasure
from .orlicz import neg_entropy
from . import solver
from .solver import COST_RULES, ParameterError

__all__ = [
    "Mollifier",
    "ExtendedDomain",
    "SweepPoint",
    "smooth_marginal",
    "unregularized_ot_1d",
    "gamma_sweep",
    "coupled_schedule",
    "power_schedule",
]

#: cost rules that are convex functions of x - y, eligible for monotone coupling
CONVEX_RULES = ("sqdist", "abs")

#: required resolution: the kernel width must span at least this many cells
MIN_CELLS_PER_DELTA = 4

#: cells an extended grid may have: 32 MiB per array, 6.5 times the 640 000
#: cells of the finest benchmark case; since delta is at most the margin, it
#: also bounds the mollifier's normalization grid, about 8 delta / h points
_EXTENDED_CELLS = 1 << 22


def _bump_profile(s: np.ndarray) -> np.ndarray:
    """The standard bump exp(-1/(1-s^2)) on (-1, 1), zero outside."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    # boolean temporaries only, which keeps smoothing's peak memory down on fine grids
    inside = (s > -1.0) & (s < 1.0)
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


@dataclass(frozen=True)
class Mollifier:
    """Bump kernel B_delta(x) = profile(x/delta) / (Z * delta) of width delta.

    Z normalizes the profile to unit integral; it is computed by a
    midpoint sum at four times the working resolution (spacing
    ``working_h / 4``). The samples that smoothing takes on a grid are
    additionally renormalized there, so that it preserves mass to rounding
    accuracy even at coarse delta/h ratios.
    """

    delta: float
    z: float
    working_h: float

    def __init__(self, delta: float, working_h: Optional[float] = None):
        if not np.isfinite(delta) or delta <= 0:
            raise ParameterError(f"mollifier width must be positive, got {delta}")
        if working_h is None:
            working_h = delta / 256.0
        if working_h <= 0:
            raise ParameterError("working cell width must be positive")
        fine = working_h / 4.0
        m = max(int(math.ceil(delta / fine)), 8)
        s = (np.arange(-m, m) + 0.5) / m  # midpoints at spacing 1/m in profile units
        z = float(_bump_profile(s).sum() / m)
        object.__setattr__(self, "delta", float(delta))
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "working_h", float(working_h))

    def __call__(self, x) -> np.ndarray:
        """Pointwise kernel values (1/delta) * profile(x/delta) / Z."""
        x = np.asarray(x, dtype=float)
        return _bump_profile(x / self.delta) / (self.z * self.delta)

    def _window(self, grid: Grid1D, center: float) -> Tuple[int, np.ndarray]:
        """First cell and values of the kernel around ``center`` on the cells within
        delta of it, sampled at their centers and rescaled to unit discrete mass."""
        first = min(max(math.floor((center - self.delta - grid.lo) / grid.h), 0), grid.n)
        stop = min(max(math.ceil((center + self.delta - grid.lo) / grid.h) + 1, first), grid.n)
        # the expression of Grid1D.centers, so that the samples match full-grid ones
        vals = self(grid.lo + (np.arange(first, stop) + 0.5) * grid.h - center)
        vals /= vals.sum() * grid.h
        return first, vals


@dataclass(frozen=True)
class ExtendedDomain:
    """An original grid together with its extension by whole cells on both sides.

    The extension keeps the cell width, so original centers reappear among
    the extended centers; the margin must cover the widest kernel used. An
    extended grid above :data:`_EXTENDED_CELLS` cells is refused.
    """

    original: Grid1D
    extended: Grid1D
    cells: int

    @classmethod
    def extend(cls, original: Grid1D, margin: float) -> "ExtendedDomain":
        if not 0 <= margin < math.inf:
            raise ParameterError(f"extension margin must be finite and nonnegative, got {margin}")
        h = original.h
        k = margin / h - 1e-12
        k = math.ceil(k) if k < math.inf else k  # a tiny h can overflow the ratio
        if original.n + 2 * k > _EXTENDED_CELLS:
            raise ParameterError(
                f"extending {original.n} cells by {margin!r} on each side asks for "
                f"{original.n + 2 * k} cells, above the budget of {_EXTENDED_CELLS}"
            )
        extended = Grid1D(original.lo - k * h, original.hi + k * h, original.n + 2 * k)
        return cls(original, extended, k)

    @property
    def margin(self) -> float:
        return self.cells * self.original.h


def _check_delta(delta: float, ext: ExtendedDomain) -> None:
    """Raise ParameterError unless delta is positive, finite, within the margin and resolved."""
    if not 0 < delta < math.inf:
        raise ParameterError(f"delta must be positive and finite, got {delta}")
    if delta > ext.margin + 1e-12:
        raise ParameterError(f"delta = {delta} exceeds the extension margin {ext.margin}")
    h = ext.extended.h
    if h > delta / MIN_CELLS_PER_DELTA + 1e-12:
        raise ParameterError(
            f"grid with h = {h} does not resolve delta = {delta}; "
            f"need h <= delta/{MIN_CELLS_PER_DELTA}"
        )


def _check_atoms(m: AtomicMeasure, ext: ExtendedDomain) -> None:
    """Raise ParameterError if an atom of ``m`` lies outside the original domain."""
    lo, hi = ext.original.lo, ext.original.hi
    for loc in m.locations.tolist():
        if not lo <= loc <= hi:
            raise ParameterError(f"atom at {loc!r} lies outside the domain [{lo!r}, {hi!r}]")


def smooth_marginal(
    m: Union[AtomicMeasure, GridMeasure], delta: float, ext: ExtendedDomain
) -> GridMeasure:
    """Convolve a measure with the width-delta bump on the extended grid.

    Atoms contribute ``mass * kernel(center - location)``; grid densities
    are zero-extended and convolved discretely. Total mass is preserved to
    rounding accuracy. Atoms must lie in the original domain, the extension
    margin must cover delta and the grid must resolve the kernel
    (h <= delta / 4).
    """
    _check_delta(delta, ext)
    grid = ext.extended
    kernel = Mollifier(delta, grid.h)
    out = np.zeros(grid.n)
    if isinstance(m, AtomicMeasure):
        _check_atoms(m, ext)
        for loc, mass in m.atoms:
            first, vals = kernel._window(grid, loc)
            vals *= mass
            out[first : first + vals.size] += vals
    elif isinstance(m, GridMeasure):
        if abs(m.grid.h - grid.h) > 1e-12 * grid.h:
            raise ParameterError("grid measure and extended grid have different cell widths")
        half = int(math.floor(delta / grid.h + 1e-12))
        offsets = np.arange(-half, half + 1) * grid.h
        w = kernel(offsets)
        w = w / (w.sum() * grid.h)
        padded = np.zeros(grid.n)
        lo_idx = int(round((m.grid.lo - grid.lo) / grid.h))
        if lo_idx < 0 or lo_idx + m.grid.n > grid.n:
            raise ParameterError(
                f"grid measure on [{m.grid.lo!r}, {m.grid.hi!r}] does not lie within the "
                f"extended grid [{grid.lo!r}, {grid.hi!r}]"
            )
        padded[lo_idx : lo_idx + m.grid.n] = m.density
        out = np.convolve(padded, w, mode="same") * grid.h
    else:
        raise TypeError(f"cannot smooth a {type(m).__name__}")
    return GridMeasure(grid, out)


def _resolve_cost(cost: str) -> Callable:
    """The rule of a cost name in :data:`CONVEX_RULES`, which monotone coupling needs."""
    if not isinstance(cost, str) or cost not in CONVEX_RULES:
        raise ParameterError(
            f"monotone coupling needs a cost rule convex in the difference, one of "
            f"{CONVEX_RULES}; got {cost!r}"
        )
    return COST_RULES[cost]


def unregularized_ot_1d(
    mu: AtomicMeasure, nu: AtomicMeasure, cost: str = "sqdist"
) -> float:
    """Exact unregularized transport cost between atomic measures on the line.

    Valid for costs of the form c(x, y) = f(x - y) with f convex, for
    which the monotone coupling of the sorted atoms is optimal. The
    coupling is built by the north-west-corner rule on sorted atoms.
    """
    fn = _resolve_cost(cost)
    xs = sorted(mu.atoms)
    ys = sorted(nu.atoms)
    i = j = 0
    ri, rj = xs[0][1], ys[0][1]
    total = 0.0
    while True:
        t = min(ri, rj)
        total += t * float(fn(xs[i][0], ys[j][0]))
        ri -= t
        rj -= t
        if ri <= 1e-15:
            i += 1
            if i == len(xs):
                break
            ri = xs[i][1]
        if rj <= 1e-15:
            j += 1
            if j == len(ys):
                break
            rj = ys[j][1]
    return total


@dataclass(frozen=True)
class SweepPoint:
    """Diagnostics of one (gamma, delta) solve in a sweep.

    ``regularized_value`` is the transport-cost part of the converged
    plan, the quantity that approaches the unregularized reference along
    a coupled schedule; the full objective (cost plus gamma-weighted
    entropy) and the entropy term itself are kept separately.
    ``entropy_of_smoothed_marginals`` holds the neg-entropy of each
    smoothed marginal, finite for every delta > 0. A failed point has NaN
    values, zero iterations and the reason in ``status``.
    """

    gamma: float
    delta: float
    regularized_value: float
    unregularized_reference: float
    entropy_of_smoothed_marginals: Tuple[float, float]
    primal_value: float
    entropy_term: float
    iterations: int
    status: str


def coupled_schedule(gammas: Sequence[float], c: float = 1.0) -> List[Tuple[float, float]]:
    """Schedule delta = c * gamma for the listed gamma values."""
    if c <= 0:
        raise ParameterError(f"coupling constant must be positive, got {c}")
    return [(float(g), c * float(g)) for g in gammas]


def power_schedule(
    gammas: Sequence[float], coeff: float = 0.01, exponent: float = 2.0
) -> List[Tuple[float, float]]:
    """Schedule delta = coeff * gamma**exponent for the listed gamma values."""
    if coeff <= 0:
        raise ParameterError(f"schedule coefficient must be positive, got {coeff}")
    return [(float(g), coeff * float(g) ** exponent) for g in gammas]


def gamma_sweep(
    mu: AtomicMeasure,
    nu: AtomicMeasure,
    cost: str,
    schedule: Sequence[Tuple[float, float]],
    ext: ExtendedDomain,
    tol: float = 1e-9,
    max_iter: int = 100000,
    mode: str = "log",
) -> List[SweepPoint]:
    """Smooth, solve, and record one :class:`SweepPoint` per scheduled pair.

    The cost must be a named closed-form rule so it extends to the
    enlarged domain by evaluation; tabulated costs are rejected, and so is
    an atom outside the original domain, before any point. The points are
    solved in schedule order. A failed point is marked in ``status`` by the
    policy of :func:`solver.sweep_point`, and the sweep continues; a
    ``ParameterError`` at any point ends it.
    """
    if not schedule:
        raise ParameterError("schedule must list at least one (gamma, delta) pair")
    _resolve_cost(cost)
    _check_atoms(mu, ext)
    _check_atoms(nu, ext)
    for g, d in schedule:
        if not 0 < g < math.inf:
            raise ParameterError(f"gamma must be positive and finite, got {g}")
        _check_delta(d, ext)
    reference = unregularized_ot_1d(mu, nu, cost)
    nan = float("nan")
    points = []
    for g, d in schedule:
        gamma, delta = float(g), float(d)
        mu_d = smooth_marginal(mu, delta, ext)
        nu_d = smooth_marginal(nu, delta, ext)
        # the rule is evaluated on the supports only: fine extended grids
        # are far too large to tabulate a cost on their product
        report, status = solver.sweep_point(mu_d, nu_d, cost, gamma, tol, max_iter, mode)
        if report is None:
            points.append(SweepPoint(gamma, delta, nan, reference, (nan, nan), nan, nan, 0, status))
        else:
            value, primal = report.transport_cost, report.primal_value
            ent = (neg_entropy(mu_d), neg_entropy(nu_d))
            points.append(SweepPoint(
                gamma, delta, value, reference, ent, primal, primal - value, report.iterations, status
            ))
        del mu_d, nu_d  # else fine grids hold two points' marginals while smoothing
    return points
