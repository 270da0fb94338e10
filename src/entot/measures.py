"""Uniform-grid discretization of compact intervals and discrete measures on them.

Densities are sampled at cell centers and integrated by the midpoint rule,
so every integral in this package is a weighted sum with scalar cell weight
``h`` (or ``h1*h2`` on product grids). The midpoint rule is exact on
piecewise-constant data, which keeps the norm and entropy tests exact.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "MASS_TOL",
    "Grid1D",
    "GridMeasure",
    "GridFunction",
    "ProductDensity",
    "ProductFunction",
    "AtomicMeasure",
    "marginals",
    "product_measure",
    "read_measure_csv",
    "write_measure_csv",
    "read_product_csv",
    "write_product_csv",
]

#: relative tolerance used when a measure claims to be a probability measure
MASS_TOL = 1e-10


def _off_unit_mass(mass: float) -> bool:
    """Whether ``mass`` is not finite or misses 1 by more than :data:`MASS_TOL` times max(1, |mass|)."""
    # an infinite mass passes the relative test, since inf > inf is false
    return not math.isfinite(mass) or abs(mass - 1.0) > MASS_TOL * max(1.0, abs(mass))


def _frozen_array(values, dtype=float, ndim=1) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of ``n`` cells on the interval ``[lo, hi]``.

    Cell ``i`` has center ``lo + (i + 1/2) * h`` with ``h = (hi - lo) / n``,
    except on a :meth:`window`, which keeps the ``h`` of its grid.
    Integrals against functions sampled at the centers are midpoint sums.
    """

    lo: float
    hi: float
    n: int
    #: cell width, also the quadrature weight
    h: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not np.isfinite(self.lo) or not np.isfinite(self.hi):
            raise ValueError("grid endpoints must be finite")
        if self.hi <= self.lo:
            raise ValueError(f"grid needs hi > lo, got [{self.lo}, {self.hi}]")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"cell count must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "h", (self.hi - self.lo) / self.n)

    def window(self, first: int, stop: int) -> "Grid1D":
        """Cells ``first`` to ``stop - 1`` as a grid of their own, with this grid's ``h`` bit for bit.

        Its centers are within a few ulps of this grid's centers of the same cells.
        """
        if not 0 <= first < stop <= self.n:
            raise ValueError(f"window [{first}, {stop}) is not within the grid's {self.n} cells")
        # its cells are this grid's, so it needs no checks; cells narrower
        # than the float spacing at lo would fail hi > lo
        sub = object.__new__(Grid1D)
        lo, hi = self.lo + first * self.h, self.lo + stop * self.h
        for name, value in (("lo", lo), ("hi", hi), ("n", stop - first), ("h", self.h)):
            object.__setattr__(sub, name, value)
        return sub

    @property
    def length(self) -> float:
        """Lebesgue measure of the underlying interval."""
        return self.hi - self.lo

    @property
    def centers(self) -> np.ndarray:
        return self.cell_centers(np.arange(self.n))

    def cell_centers(self, cells: np.ndarray) -> np.ndarray:
        """The centers of the cells indexed by ``cells``: ``centers[cells]``, bit for bit."""
        return self.lo + (cells + 0.5) * self.h

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Finite, possibly signed function sampled on a :class:`Grid1D`, with cell weight ``h``.

    Used where a grid-sampled function is not a measure, e.g. dual
    potentials or inputs to Orlicz norms.
    """

    grid: Grid1D
    values: np.ndarray

    #: the name of the values in a refusal
    _what = "values"

    def __init__(self, grid: Grid1D, values) -> None:
        vals = _frozen_array(values)
        if vals.shape[0] != grid.n:
            raise ValueError(
                f"{self._what} has {vals.shape[0]} entries but the grid has {grid.n} cells"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{self._what} contains non-finite entries")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)

    @property
    def weight(self) -> float:
        return self.grid.h

    def mean(self) -> float:
        """Integral average over the interval."""
        return float(self.values.sum() * self.grid.h / self.grid.length)


class GridMeasure(GridFunction):
    """Nonnegative density sampled at the cell centers of a :class:`Grid1D`.

    Total mass is ``sum(density) * h``. ``renormalize=True`` rescales the
    density to mass 1 and checks the result within :data:`MASS_TOL`.
    """

    _what = "density"

    def __init__(self, grid: Grid1D, density, renormalize: bool = False) -> None:
        super().__init__(grid, density)
        if np.any(self.values < 0):
            raise ValueError("density values must be nonnegative")
        if renormalize:
            mass = self.mass
            if mass <= 0:
                raise ValueError("cannot renormalize a measure with zero mass")
            dens = self.values / mass
            # a subnormal mass can overflow the division
            mass = float(dens.sum() * grid.h)
            if _off_unit_mass(mass):
                raise ValueError(
                    f"probability measure has mass {mass!r}, off by more than {MASS_TOL}"
                )
            dens.setflags(write=False)
            object.__setattr__(self, "values", dens)

    @property
    def density(self) -> np.ndarray:
        """The sampled density: ``values``, under a measure's name."""
        return self.values

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.grid.h)

    def support_mask(self) -> np.ndarray:
        return self.values > 0.0


@dataclass(frozen=True, eq=False)
class ProductFunction:
    """Signed function on the product of two grids, e.g. ``alpha_i + beta_j``; cell weight ``h1*h2``."""

    grid1: Grid1D
    grid2: Grid1D
    values: np.ndarray

    def __init__(self, grid1: Grid1D, grid2: Grid1D, values) -> None:
        vals = _frozen_array(values, ndim=2)
        if vals.shape != (grid1.n, grid2.n):
            raise ValueError(
                f"values shape {vals.shape} does not match grids ({grid1.n}, {grid2.n})"
            )
        object.__setattr__(self, "grid1", grid1)
        object.__setattr__(self, "grid2", grid2)
        object.__setattr__(self, "values", vals)

    @property
    def weight(self) -> float:
        return self.grid1.h * self.grid2.h


class ProductDensity(ProductFunction):
    """Nonnegative density on the product of two grids."""

    def __init__(self, grid1: Grid1D, grid2: Grid1D, values) -> None:
        super().__init__(grid1, grid2, values)
        if np.any(self.values < 0):
            raise ValueError("product density values must be nonnegative")

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.weight)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite sum of point masses on the real line.

    ``atoms`` is a sequence of ``(location, mass)`` pairs with finite
    locations and finite positive masses summing to 1 within
    :data:`MASS_TOL`. The measure has no domain of its own;
    ``gamma_limit.smooth_marginal`` refuses an atom outside the original domain.
    """

    atoms: Tuple[Tuple[float, float], ...]

    def __init__(self, atoms: Iterable[Tuple[float, float]]) -> None:
        pairs = tuple((float(x), float(m)) for x, m in atoms)
        if not pairs:
            raise ValueError("an atomic measure needs at least one atom")
        for x, m in pairs:
            if not (np.isfinite(x) and np.isfinite(m)):
                raise ValueError(f"atom at {x} with mass {m} is not finite")
            if m <= 0:
                raise ValueError(f"atom at {x} has non-positive mass {m}")
        total = sum(m for _, m in pairs)
        if _off_unit_mass(total):
            raise ValueError(f"atom masses sum to {total!r}, expected 1")
        object.__setattr__(self, "atoms", pairs)

    @property
    def locations(self) -> np.ndarray:
        return np.array([x for x, _ in self.atoms])

    @property
    def masses(self) -> np.ndarray:
        return np.array([m for _, m in self.atoms])

    def sorted(self) -> "AtomicMeasure":
        return AtomicMeasure(sorted(self.atoms))


def marginals(p: ProductDensity) -> Tuple[GridMeasure, GridMeasure]:
    """Pushforwards of a product density under the two coordinate projections.

    The first marginal integrates out the second factor,
    ``marg1_i = sum_j values_ij * h2``, and symmetrically for the second.
    Both marginals carry the same total mass as ``p``.
    """
    m1 = p.values.sum(axis=1) * p.grid2.h
    m2 = p.values.sum(axis=0) * p.grid1.h
    return GridMeasure(p.grid1, m1), GridMeasure(p.grid2, m2)


def product_measure(m1: GridMeasure, m2: GridMeasure) -> ProductDensity:
    """Outer product density ``values_ij = m1_i * m2_j``."""
    return ProductDensity(m1.grid, m2.grid, np.outer(m1.density, m2.density))


def _grid_from_centers(x: np.ndarray, what: str) -> Grid1D:
    if x.size == 0:
        raise ValueError(f"{what}: no rows")
    if x.size == 1:
        raise ValueError(f"{what}: cannot infer cell width from a single center")
    steps = np.diff(x)
    h = steps[0]
    if h <= 0 or not np.allclose(steps, h, rtol=1e-8, atol=1e-12):
        raise ValueError(f"{what}: cell centers are not uniformly spaced")
    return Grid1D(float(x[0] - h / 2), float(x[-1] + h / 2), x.size)


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV text with LF line ends; floats are written by ``repr``, which reads back exactly."""
    lines = [",".join(header)]
    lines.extend(",".join(repr(c) if isinstance(c, float) else str(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _product_csv_text(p: ProductDensity) -> str:
    """The ``x,y,density`` CSV text of a product density, row-major."""
    ys = p.grid2.centers.tolist()
    rows = (
        (x, y, v)
        for x, row in zip(p.grid1.centers.tolist(), p.values.tolist())
        for y, v in zip(ys, row)
    )
    return _csv_text(["x", "y", "density"], rows)


def write_measure_csv(path, m: GridMeasure) -> None:
    """Write a measure as CSV with header ``x,density``, one row per cell."""
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text(["x", "density"], zip(m.grid.centers.tolist(), m.density.tolist())))


def _read_table(path, names: Sequence[str]) -> np.ndarray:
    """The rows of a CSV with header ``names`` as a (rows, len(names)) float array.

    Blank lines are skipped, and columns past ``names`` ignored.
    """
    k = len(names)
    values = array("d")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [c.strip() for c in header[:k]] != list(names):
                raise ValueError(f"{path}: expected header '{','.join(names)}'")
            try:
                for row in filter(None, reader):
                    values.extend(map(float, row if len(row) == k else row[:k]))
                    if len(row) < k:
                        raise ValueError("too few values")
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except csv.Error as exc:  # such as a field longer than the csv module allows
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return np.frombuffer(values).reshape(-1, k)


def read_measure_csv(path) -> GridMeasure:
    """Read a ``x,density`` CSV written by :func:`write_measure_csv`.

    The grid is reconstructed from the (uniformly spaced) centers.
    """
    table = _read_table(path, ("x", "density"))
    return GridMeasure(_grid_from_centers(table[:, 0], str(path)), table[:, 1])


def write_product_csv(path, p: ProductDensity) -> None:
    """Write a product density as CSV with header ``x,y,density``, row-major."""
    with open(path, "w", newline="") as fh:
        fh.write(_product_csv_text(p))


def read_product_csv(path) -> ProductDensity:
    """Read a row-major ``x,y,density`` CSV written by :func:`write_product_csv`."""
    table = _read_table(path, ("x", "y", "density"))
    if not table.size:
        raise ValueError(f"{path}: no rows")
    xs_all, ys_all = table[:, 0], table[:, 1]
    # the distinct y values, as np.unique gives them, from one sorted copy of the column
    ys = np.sort(ys_all)
    ys = ys[np.append(True, ys[1:] != ys[:-1])]
    n2 = ys.size
    if xs_all.size % n2 != 0:
        raise ValueError(f"{path}: row count {xs_all.size} is not a multiple of {n2} distinct y values")
    n1 = xs_all.size // n2
    xs = xs_all[::n2]
    # one row of the plan at a time, so that the check allocates no full-size array
    for x, row_xs, row_ys in zip(xs, xs_all.reshape(n1, n2), ys_all.reshape(n1, n2)):
        if not np.allclose(ys, row_ys, rtol=1e-12, atol=0) or not np.allclose(
            x, row_xs, rtol=1e-12, atol=0
        ):
            raise ValueError(f"{path}: rows are not in row-major x,y order")
    grid1 = _grid_from_centers(xs, str(path))
    grid2 = _grid_from_centers(ys, str(path))
    return ProductDensity(grid1, grid2, table[:, 2].reshape(n1, n2))
