"""Mollified marginals and coupled (gamma, delta) sweeps toward the unregularized limit.

Singular marginals (sums of point masses) are smoothed by convolution with
a compactly supported bump kernel of width delta on a slightly extended
grid, the entropic problem is solved for each scheduled (gamma, delta)
pair, and the transport cost of the converged plan is compared against an
exact unregularized reference computed by monotone coupling of the atoms.

Two small exact oracles are included: the monotone (sorted north-west
corner) coupling, optimal in one dimension for costs that are convex in
the difference, and an exhaustive permutation minimum for tiny equal-mass
instances, which also covers non-convex costs.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .measures import AtomicMeasure, Grid1D, GridMeasure
from .orlicz import neg_entropy
from . import solver
from .solver import COST_RULES, ConvergenceError, ParameterError, SolverError

__all__ = [
    "Mollifier",
    "ExtendedDomain",
    "SweepPoint",
    "smooth_marginal",
    "unregularized_ot_1d",
    "brute_force_ot",
    "gamma_sweep",
    "coupled_schedule",
    "power_schedule",
]

#: cost rules that are convex functions of x - y, eligible for monotone coupling
CONVEX_RULES = ("sqdist", "abs")

#: required resolution: the kernel width must span at least this many cells
MIN_CELLS_PER_DELTA = 4


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
    ``working_h / 4``). Discrete kernels produced by :meth:`grid_values`
    are additionally renormalized on their own grid so that smoothing
    preserves mass to rounding accuracy even at coarse delta/h ratios.
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

    def grid_values(self, grid: Grid1D, center: float = 0.0) -> np.ndarray:
        """Kernel sampled at the grid centers around ``center``, unit discrete mass.

        The midpoint samples are rescaled so that their weighted sum is
        exactly 1, making discrete convolution mass-preserving.
        """
        first, window = self._window(grid, center)
        vals = np.zeros(grid.n)
        vals[first : first + window.size] = window
        return vals

    def _window(self, grid: Grid1D, center: float) -> Tuple[int, np.ndarray]:
        """First cell and values of :meth:`grid_values` on the cells within delta of ``center``."""
        first = min(max(math.floor((center - self.delta - grid.lo) / grid.h), 0), grid.n)
        stop = min(max(math.ceil((center + self.delta - grid.lo) / grid.h) + 1, first), grid.n)
        # the expression of Grid1D.centers, so that the samples match full-grid ones
        vals = self(grid.lo + (np.arange(first, stop) + 0.5) * grid.h - center)
        total = vals.sum() * grid.h
        if total <= 0:
            raise ParameterError(
                f"kernel of width {self.delta} has no support on the grid "
                f"(h = {grid.h}); refine the grid"
            )
        vals /= total
        return first, vals


@dataclass(frozen=True)
class ExtendedDomain:
    """An original grid together with its extension by whole cells on both sides.

    The extension keeps the cell width, so original centers reappear among
    the extended centers; the margin must cover the widest kernel used.
    """

    original: Grid1D
    extended: Grid1D
    cells: int

    @classmethod
    def extend(cls, original: Grid1D, margin: float) -> "ExtendedDomain":
        if not 0 <= margin < math.inf:
            raise ParameterError(f"extension margin must be finite and nonnegative, got {margin}")
        h = original.h
        k = int(math.ceil(margin / h - 1e-12))
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


def smooth_marginal(
    m: Union[AtomicMeasure, GridMeasure], delta: float, ext: ExtendedDomain
) -> GridMeasure:
    """Convolve a measure with the width-delta bump on the extended grid.

    Atoms contribute ``mass * kernel(center - location)``; grid densities
    are zero-extended and convolved discretely. Total mass is preserved to
    rounding accuracy. The extension margin must cover delta and the grid
    must resolve the kernel (h <= delta / 4).
    """
    _check_delta(delta, ext)
    grid = ext.extended
    kernel = Mollifier(delta, grid.h)
    out = np.zeros(grid.n)
    if isinstance(m, AtomicMeasure):
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
        total = w.sum() * grid.h
        if total <= 0:
            raise ParameterError("kernel has no support at this resolution")
        w = w / total
        padded = np.zeros(grid.n)
        lo_idx = int(round((m.grid.lo - grid.lo) / grid.h))
        padded[lo_idx : lo_idx + m.grid.n] = m.density
        out = np.convolve(padded, w, mode="same") * grid.h
    else:
        raise TypeError(f"cannot smooth a {type(m).__name__}")
    return GridMeasure(grid, out)


def _resolve_cost(cost: Union[str, Callable], convex_only: bool) -> Callable:
    if callable(cost):
        if convex_only:
            raise ParameterError(
                "monotone coupling is only valid for the named convex rules "
                f"{CONVEX_RULES}; use brute_force_ot for arbitrary costs"
            )
        return cost
    if cost not in COST_RULES:
        raise ParameterError(f"unknown cost rule {cost!r}")
    if convex_only and cost not in CONVEX_RULES:
        raise ParameterError(
            f"cost rule {cost!r} is not convex in the difference; use brute_force_ot"
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
    fn = _resolve_cost(cost, convex_only=True)
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


def brute_force_ot(
    mu: AtomicMeasure, nu: AtomicMeasure, cost: Union[str, Callable] = "sqdist"
) -> float:
    """Exact minimum over all permutation couplings of tiny equal-mass instances.

    Requires the two measures to have the same number (at most 8) of atoms
    of equal mass; arbitrary cost callables are accepted.
    """
    fn = _resolve_cost(cost, convex_only=False)
    xs = mu.locations
    ms = mu.masses
    ys = nu.locations
    mt = nu.masses
    if xs.size != ys.size:
        raise ParameterError("permutation search needs equally many atoms on both sides")
    if xs.size > 8:
        raise ParameterError("permutation search is limited to 8 atoms")
    m0 = ms[0]
    if np.any(np.abs(ms - m0) > 1e-12) or np.any(np.abs(mt - m0) > 1e-12):
        raise ParameterError("permutation search needs equal-mass atoms")
    best = math.inf
    for perm in itertools.permutations(range(xs.size)):
        val = sum(float(fn(xs[i], ys[p])) for i, p in enumerate(perm))
        best = min(best, val)
    return m0 * best


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


def _sweep_one(
    mu: AtomicMeasure,
    nu: AtomicMeasure,
    cost: str,
    reference: float,
    gamma: float,
    delta: float,
    ext: ExtendedDomain,
    tol: float,
    max_iter: int,
    mode: str,
) -> SweepPoint:
    nan = float("nan")
    run = solver.solve if mode == "direct" else solver.solve_logdomain
    try:
        mu_d = smooth_marginal(mu, delta, ext)
        nu_d = smooth_marginal(nu, delta, ext)
        ent = (neg_entropy(mu_d), neg_entropy(nu_d))
        # the rule is evaluated on the supports only: fine extended grids
        # are far too large to tabulate a cost on their product
        report = run(mu_d, nu_d, cost, gamma, tol=tol, max_iter=max_iter).report
        status = "ok"
    except ConvergenceError as exc:
        report = exc.report
        status = (
            f"failed: no convergence in {max_iter} iterations "
            f"(residual {report.residual_history[-1]:.3e})"
        )
    except (SolverError, ValueError) as exc:
        return SweepPoint(gamma, delta, nan, reference, (nan, nan), nan, nan, 0, f"failed: {exc}")
    return SweepPoint(
        gamma=gamma,
        delta=delta,
        regularized_value=report.transport_cost,
        unregularized_reference=reference,
        entropy_of_smoothed_marginals=ent,
        primal_value=report.primal_value,
        entropy_term=report.primal_value - report.transport_cost,
        iterations=report.iterations,
        status=status,
    )


def gamma_sweep(
    mu: AtomicMeasure,
    nu: AtomicMeasure,
    cost: str,
    schedule: Sequence[Tuple[float, float]],
    ext: ExtendedDomain,
    tol: float = 1e-9,
    max_iter: int = 100000,
    mode: str = "log",
    threads: int = 1,
) -> List[SweepPoint]:
    """Smooth, solve, and record one :class:`SweepPoint` per scheduled pair.

    The cost must be a named closed-form rule so it extends to the
    enlarged domain by evaluation; tabulated costs are rejected. Points
    whose solve fails are marked in ``status`` and the sweep continues.
    Points are independent; with ``threads > 1`` they are evaluated
    concurrently and returned in schedule order regardless of completion
    order.
    """
    if not schedule:
        raise ParameterError("schedule must list at least one (gamma, delta) pair")
    if not isinstance(cost, str):
        raise ParameterError("sweeps need a named cost rule, not a tabulated cost")
    _resolve_cost(cost, convex_only=True)
    for g, d in schedule:
        if not 0 < g < math.inf:
            raise ParameterError(f"gamma must be positive and finite, got {g}")
        _check_delta(d, ext)
    reference = unregularized_ot_1d(mu, nu, cost)
    args = [
        (mu, nu, cost, reference, float(g), float(d), ext, tol, max_iter, mode)
        for g, d in schedule
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda a: _sweep_one(*a), args))
    return [_sweep_one(*a) for a in args]
