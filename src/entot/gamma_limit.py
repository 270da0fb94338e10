"""Mollified marginals and coupled (gamma, delta) sweeps toward the unregularized limit.

Singular marginals (sums of point masses) are smoothed by convolution with
a compactly supported bump kernel of width delta onto the window of a
slightly extended grid that spans their atoms, the entropic problem is
solved for each scheduled (gamma, delta) pair, and the transport cost of
the converged plan is compared against an exact unregularized reference:
the monotone (sorted north-west corner) coupling of the atoms, optimal in
one dimension for costs that are convex in the difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, List, Sequence, Tuple

import numpy as np

from .measures import AtomicMeasure, Grid1D, GridMeasure
from .orlicz import neg_entropy
from . import solver
from .solver import ParameterError

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

#: required resolution: the kernel width must span at least this many cells
MIN_CELLS_PER_DELTA = 4

#: cells an extended grid may have, 6.5 times the 640 000 cells of the finest
#: benchmark case. It bounds the arrays of a smoothed marginal at 32 MiB: its
#: window spans the extended grid when its atoms lie at both ends of the domain
_EXTENDED_CELLS = 1 << 22

#: Z, the integral of exp(-1/(1-s^2)) over (-1, 1); a midpoint sum on
#: 4 000 000 cells gives the same bits
_BUMP_MASS = 0.4439938161680794


def _bump_profile(s: np.ndarray) -> np.ndarray:
    """The standard bump exp(-1/(1-s^2)) on (-1, 1), zero outside."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > -1.0) & (s < 1.0)
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


def _unit_bump(offsets: np.ndarray, delta: float, h: float) -> np.ndarray:
    """The width-delta bump sampled at ``offsets``, scaled to unit discrete mass on cells of width h.

    The scaling replaces 1 / (Z delta), so smoothing preserves mass to
    rounding accuracy even at coarse delta/h ratios.
    """
    vals = _bump_profile(offsets / delta)
    vals /= vals.sum() * h
    return vals


@dataclass(frozen=True)
class Mollifier:
    """Bump kernel B_delta(x) = profile(x/delta) / (Z * delta) of width delta.

    Z normalizes the profile to unit integral; it is the constant
    :data:`_BUMP_MASS` for every delta.
    """

    delta: float
    z: ClassVar[float] = _BUMP_MASS

    def __init__(self, delta: float):
        if not np.isfinite(delta) or delta <= 0:
            raise ParameterError(f"mollifier width must be positive, got {delta}")
        object.__setattr__(self, "delta", float(delta))

    def __call__(self, x) -> np.ndarray:
        """Pointwise kernel values (1/delta) * profile(x/delta) / Z."""
        x = np.asarray(x, dtype=float)
        return _bump_profile(x / self.delta) / (self.z * self.delta)


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
        cells = original.n + 2 * k
        if cells > _EXTENDED_CELLS:
            # exact below 2**53; a float beyond, since a tiny h gives hundreds of digits
            shown = cells if cells < 1 << 53 else original.n + 2.0 * k
            raise ParameterError(
                f"extending {original.n} cells by {margin!r} on each side asks for "
                f"{shown} cells, above the budget of {_EXTENDED_CELLS}"
            )
        try:
            extended = Grid1D(original.lo - k * h, original.hi + k * h, cells)
        except ValueError:
            raise ParameterError(
                f"extending [{original.lo!r}, {original.hi!r}] by {margin!r} on each side "
                "overflows the floating-point range"
            ) from None
        return cls(original, extended, k)

    @property
    def margin(self) -> float:
        return self.cells * self.original.h


def _check_delta(delta: float, ext: ExtendedDomain) -> None:
    """Raise ParameterError unless delta is positive, finite, within the margin and resolved."""
    if not 0 < delta < math.inf:
        raise ParameterError(f"delta must be positive and finite, got {delta}")
    # both slacks are relative: 1e-12 of the compared value, at any scale
    if delta > ext.margin * (1 + 1e-12):
        raise ParameterError(f"delta = {delta} exceeds the extension margin {ext.margin}")
    h = ext.extended.h
    if h > delta / MIN_CELLS_PER_DELTA * (1 + 1e-12):
        raise ParameterError(
            f"grid with h = {h} does not resolve delta = {delta}; "
            f"need h <= delta/{MIN_CELLS_PER_DELTA}"
        )


def _check_atoms(m: AtomicMeasure, ext: ExtendedDomain) -> None:
    """Raise ParameterError if an atom of ``m`` lies outside the original domain."""
    for loc in m.locations.tolist():
        if not ext.original.contains(loc):
            lo, hi = ext.original.lo, ext.original.hi
            raise ParameterError(f"atom at {loc!r} lies outside the domain [{lo!r}, {hi!r}]")


def smooth_marginal(m: AtomicMeasure, delta: float, ext: ExtendedDomain) -> GridMeasure:
    """Convolve an atomic measure with the width-delta bump on the extended grid.

    Each atom contributes ``mass`` times the bump at ``center - location``,
    sampled on the cells within delta of it and scaled to unit discrete
    mass; the result lives on the window of the extended grid from the
    lowest atom's first such cell to the highest atom's last, a grid with
    the extended grid's ``h`` (:meth:`Grid1D.window`), and no array of the
    extended grid's size is built. Total mass is preserved to rounding
    accuracy. Atoms must lie in the original domain, the extension margin
    must cover delta and the grid must resolve the kernel (h <= delta / 4).
    Anything but an :class:`AtomicMeasure` is a TypeError: a grid measure
    already has the finite entropy that smoothing supplies.
    """
    if not isinstance(m, AtomicMeasure):
        raise TypeError(f"cannot smooth a {type(m).__name__}")
    _check_delta(delta, ext)
    _check_atoms(m, ext)
    grid = ext.extended
    h = grid.h
    spans = []  # each atom's cells within delta, first to stop - 1
    for loc, _ in m.atoms:
        first = min(max(math.floor((loc - delta - grid.lo) / h), 0), grid.n)
        stop = min(max(math.ceil((loc + delta - grid.lo) / h) + 1, first), grid.n)
        spans.append((first, stop))
    w0 = min(first for first, _ in spans)
    out = np.zeros(max(stop for _, stop in spans) - w0)
    for (loc, mass), (first, stop) in zip(m.atoms, spans):
        vals = _unit_bump(grid.cell_centers(np.arange(first, stop)) - loc, delta, h)
        vals *= mass
        out[first - w0 : stop - w0] += vals
    return GridMeasure(grid.window(w0, w0 + out.size), out)


def unregularized_ot_1d(
    mu: AtomicMeasure, nu: AtomicMeasure, cost: str = "sqdist"
) -> float:
    """Exact unregularized transport cost between atomic measures on the line.

    Valid for costs of the form c(x, y) = f(x - y) with f convex, as every
    rule of :data:`solver.COST_RULES` is, for which the monotone coupling of
    the sorted atoms is optimal. It couples the two cumulative masses: each
    piece between consecutive breakpoints of either carries its mass from
    the atom of mu to the atom of nu whose cumulative ranges hold it. A
    reference beyond the floating-point range is a ParameterError.
    """
    fn = solver._rule(cost)
    (x, p), (y, q) = (np.array(sorted(m.atoms)).T for m in (mu, nu))
    F, G = np.cumsum(p), np.cumsum(q)
    # the distinct breakpoints from 0; both totals are 1 to rounding, and the
    # coupling ends with the smaller (np.union1d would import numpy.ma, about 20 ms)
    breaks = np.sort(np.concatenate(([0.0], F, G)))
    breaks = breaks[(np.diff(breaks, prepend=-1.0) > 0) & (breaks <= min(F[-1], G[-1]))]
    mid = (breaks[:-1] + breaks[1:]) / 2
    total = float(np.diff(breaks) @ fn(x[np.searchsorted(F, mid)], y[np.searchsorted(G, mid)]))
    if not math.isfinite(total):
        raise ParameterError(
            f"the unregularized reference is {total!r}: the {cost} cost of the atoms "
            "leaves the floating-point range"
        )
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
    try:
        return [(float(g), coeff * float(g) ** exponent) for g in gammas]
    except OverflowError:
        raise ParameterError(f"delta = {coeff!r} * gamma**{exponent!r} overflows") from None


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
    solved in schedule order in ``mode``, ``"log"`` or ``"direct"``;
    :func:`solver.sweep_point` refuses any other mode before the first
    solve. A failed point is marked in ``status`` by the
    policy of :func:`solver.sweep_point`, and the sweep continues; a
    ``ParameterError`` at any point ends it.
    """
    if not schedule:
        raise ParameterError("schedule must list at least one (gamma, delta) pair")
    solver._rule(cost)
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
        report, status, _ = solver.sweep_point(mu_d, nu_d, cost, gamma, tol, max_iter, mode)
        if report is None:
            points.append(SweepPoint(gamma, delta, nan, reference, (nan, nan), nan, nan, 0, status))
        else:
            value, primal = report.transport_cost, report.primal_value
            ent = (neg_entropy(mu_d), neg_entropy(nu_d))
            points.append(SweepPoint(
                gamma, delta, value, reference, ent, primal, primal - value, report.iterations, status
            ))
    return points
