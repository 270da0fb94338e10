import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entot import measures
from entot.measures import (
    AtomicMeasure,
    Grid1D,
    GridFunction,
    GridMeasure,
    ProductDensity,
    marginals,
    product_measure,
    read_measure_csv,
    read_product_csv,
    write_measure_csv,
    write_product_csv,
)

import oracles


def test_grid_centers_are_cell_midpoints():
    g = Grid1D(0.0, 1.0, 4)
    assert g.h == 0.25
    assert_allclose(g.centers, [0.125, 0.375, 0.625, 0.875])
    assert g.length == 1.0


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        Grid1D(1.0, 1.0, 8)
    with pytest.raises(ValueError):
        Grid1D(2.0, 1.0, 8)


def test_a_window_keeps_its_grids_cells_and_h():
    g = Grid1D(-0.3, 1.7, 10)
    w = g.window(2, 7)
    assert (w.n, w.h) == (5, g.h)
    assert_allclose(w.centers, g.centers[2:7], rtol=0, atol=4 * np.spacing(1.7))
    assert g.window(0, 10).h == g.h
    for first, stop in ((-1, 3), (3, 3), (4, 11)):
        with pytest.raises(ValueError, match=rf"window \[{first}, {stop}\) is not within the grid's 10 cells"):
            g.window(first, stop)
    # cells narrower than the float spacing at lo: the window's ends coincide, and it keeps h
    tiny = Grid1D(1.0, 1.0 + 1e-15, 1000)
    assert tiny.window(10, 20).h == tiny.h


def test_grid_contains():
    g = Grid1D(-1.0, 3.0, 8)
    assert g.contains(0.0) and g.contains(-1.0) and g.contains(3.0)
    assert not g.contains(3.0001)


def test_measure_mass_matches_quadrature_oracle():
    g = Grid1D(0.0, 2.0, 512)
    fn = lambda x: 1.0 + 0.3 * np.sin(x)
    m = GridMeasure(g, fn(g.centers))
    assert abs(m.mass - oracles.midpoint_quadrature(fn, 0.0, 2.0, 512)) < 1e-14


def test_measure_rejects_negative_density():
    g = Grid1D(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        GridMeasure(g, np.array([1.0, -0.1, 1.0, 1.0]))


def test_measure_probability_tolerance():
    AtomicMeasure([(0.25, 0.5), (0.75, 0.5 + 5e-11)])
    with pytest.raises(ValueError):
        AtomicMeasure([(0.25, 0.5), (0.75, 0.51)])


def test_an_infinite_mass_is_not_a_probability_measure():
    # each mass is finite, but their sum overflows
    with pytest.raises(ValueError, match="sum to inf"):
        AtomicMeasure([(0.25, 1e308), (0.75, 1e308)])
    # a subnormal mass overflows renormalize's division
    with pytest.raises(ValueError, match="has mass inf"), np.errstate(over="ignore"):
        GridMeasure(Grid1D(0.0, 4e-320, 4), np.array([1e10, 1.0, 1.0, 1.0]), renormalize=True)


def test_renormalize_gives_unit_mass():
    g = Grid1D(0.0, 1.0, 32)
    m = GridMeasure(g, np.random.default_rng(0).random(32) + 0.5, renormalize=True)
    assert abs(m.mass - 1.0) < 1e-14


def test_density_array_is_immutable():
    g = Grid1D(0.0, 1.0, 4)
    m = GridMeasure(g, np.ones(4))
    with pytest.raises(ValueError):
        m.density[0] = 2.0


def test_a_read_only_array_is_copied_so_an_earlier_view_cannot_change_the_table():
    g = Grid1D(0.0, 1.0, 4)
    arr = np.ones(4)
    view = arr[:]
    arr.setflags(write=False)
    m = GridMeasure(g, arr)
    table = np.ones((4, 4))
    table_view = table[:]
    table.setflags(write=False)
    p = ProductDensity(g, g, table)
    view[0] = table_view[0, 0] = np.nan
    assert m.mass == 1.0
    assert p.mass == 1.0


def test_grid_function_mean():
    g = Grid1D(0.0, 2.0, 64)
    f = GridFunction(g, np.full(64, -1.5))
    assert abs(f.mean() + 1.5) < 1e-14


def test_product_density_mass_and_marginals():
    g1 = Grid1D(0.0, 1.0, 8)
    g2 = Grid1D(0.0, 2.0, 16)
    rng = np.random.default_rng(1)
    mu = GridMeasure(g1, rng.random(8) + 0.2, renormalize=True)
    nu = GridMeasure(g2, rng.random(16) + 0.2, renormalize=True)
    p = product_measure(mu, nu)
    assert abs(p.mass - 1.0) < 1e-12
    m1, m2 = marginals(p)
    assert_allclose(m1.density, mu.density, atol=1e-14)
    assert_allclose(m2.density, nu.density, atol=1e-14)


def test_product_density_validation():
    g1 = Grid1D(0.0, 1.0, 4)
    g2 = Grid1D(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        ProductDensity(g1, g2, np.ones((3, 4)))
    with pytest.raises(ValueError):
        ProductDensity(g1, g2, -np.ones((4, 3)))


def test_atomic_measure_sorted_and_validated():
    AtomicMeasure([(0.8, 0.25), (0.1, 0.75)])
    with pytest.raises(ValueError):
        AtomicMeasure([(0.5, 0.5)])  # masses must sum to 1
    with pytest.raises(ValueError):
        AtomicMeasure([(0.5, 1.5), (0.6, -0.5)])
    # NaN compares False both ways, so it must be refused by name
    for atoms in ([(0.5, float("nan"))], [(float("nan"), 1.0)], [(float("inf"), 1.0)]):
        with pytest.raises(ValueError, match="not finite"):
            AtomicMeasure(atoms)


def test_measure_csv_roundtrip(tmp_path):
    g = Grid1D(-1.0, 1.0, 37)
    m = GridMeasure(g, np.random.default_rng(2).random(37))
    path = tmp_path / "m.csv"
    write_measure_csv(path, m)
    back = read_measure_csv(path)
    assert back.grid.n == 37
    assert back.grid.lo == pytest.approx(-1.0, abs=1e-12)
    assert_allclose(back.density, m.density, rtol=0, atol=0)
    # files written with CRLF line ends read the same
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert_allclose(read_measure_csv(path).density, m.density, rtol=0, atol=0)


@pytest.mark.parametrize("lo", [1e4, 3e5, 1e6, 1e7])
@pytest.mark.parametrize("n", [10, 100, 1000])
def test_a_narrow_grid_far_from_the_origin_reads_back(tmp_path, lo, n):
    # the centers' rounding, a few spacings of lo, exceeds a fixed 1e-12
    g = Grid1D(lo, lo + 1.0, n)
    path = tmp_path / "m.csv"
    write_measure_csv(path, GridMeasure(g, np.ones(n)))
    assert read_measure_csv(path).grid.matches(g)


def test_product_csv_roundtrip_row_major(tmp_path):
    g1 = Grid1D(0.0, 1.0, 3)
    g2 = Grid1D(0.0, 2.0, 5)
    vals = np.arange(15, dtype=float).reshape(3, 5)
    p = ProductDensity(g1, g2, vals)
    path = tmp_path / "p.csv"
    write_product_csv(path, p)
    text = path.read_text().splitlines()
    assert text[0] == "x,y,density"
    # row-major: the first grid's coordinate varies slowest
    assert text[1].split(",")[0] == text[2].split(",")[0]
    back = read_product_csv(path)
    assert_allclose(back.values, vals, rtol=0, atol=0)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert_allclose(read_product_csv(path).values, vals, rtol=0, atol=0)


def test_csv_readers_name_file_and_line_of_a_short_row(tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("x,density\n0.25,1.0\n0.75\n")
    with pytest.raises(ValueError, match=r"m\.csv: line 3: too few values"):
        read_measure_csv(m)
    p = tmp_path / "p.csv"
    p.write_text("x,y,density\n0.25,0.25,1.0\n0.25,0.75\n")
    with pytest.raises(ValueError, match=r"p\.csv: line 3: too few values"):
        read_product_csv(p)


def test_product_csv_rejects_scrambled_rows(tmp_path):
    g1 = Grid1D(0.0, 1.0, 2)
    g2 = Grid1D(0.0, 1.0, 2)
    p = ProductDensity(g1, g2, np.ones((2, 2)))
    path = tmp_path / "p.csv"
    write_product_csv(path, p)
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_product_csv(path)


def _csv(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda tmp: Grid1D(0.0, np.inf, 4), "grid endpoints must be finite"),
        (lambda tmp: Grid1D(-1.7e308, 1.7e308, 4), "cell width inf of 4 cells"),
        (lambda tmp: Grid1D(0.0, 5e-324, 2), "cell width 0.0 of 2 cells"),
        (lambda tmp: GridMeasure(Grid1D(0.0, 1.0, 4), np.zeros(4), renormalize=True),
         "cannot renormalize a measure with zero mass"),
        (lambda tmp: AtomicMeasure([]), "needs at least one atom"),
        (lambda tmp: read_measure_csv(_csv(tmp, "x,density\n0.5,1.0\n")),
         "cannot infer cell width from a single center"),
        (lambda tmp: read_measure_csv(_csv(tmp, "x,density\n0.1,1\n0.2,1\n0.5,1\n")),
         "cell centers are not uniformly spaced"),
        # steps of 1e-13 and 4e-13, both below a fixed 1e-12
        (lambda tmp: read_measure_csv(_csv(tmp, "x,density\n0,1\n1e-13,1\n5e-13,1\n6e-13,1\n")),
         "cell centers are not uniformly spaced"),
        (lambda tmp: read_product_csv(_csv(tmp, "x,y,density\n")), r"t\.csv: no rows"),
        (lambda tmp: read_product_csv(_csv(tmp, "x,y,density\n0.25,0.25,1\n0.25,0.75,1\n0.75,0.25,1\n")),
         "row count 3 is not a multiple of 2 distinct y values"),
    ],
    ids=["grid-end", "wide-cell", "zero-cell", "zero-mass", "no-atom", "one-center", "uneven-centers",
         "tiny-uneven-centers", "no-product-rows", "ragged-rows"],
)
def test_every_refusal_of_a_grid_measure_or_table_says_why(tmp_path, make, match):
    with pytest.raises(ValueError, match=match):
        make(tmp_path)


def test_product_csv_read_peaks_under_ten_times_its_array(tmp_path):
    g = Grid1D(0.0, 1.0, 256)
    path = tmp_path / "plan.csv"
    write_product_csv(path, ProductDensity(g, g, np.random.default_rng(0).random((256, 256))))
    tracemalloc.start()
    try:
        back = read_product_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * back.values.nbytes


def test_product_csv_read_peaks_under_five_times_its_array(tmp_path):
    # the row-order check goes row by row, and the distinct y values come
    # from one sorted copy of the column
    g = Grid1D(0.0, 1.0, 256)
    path = tmp_path / "plan.csv"
    write_product_csv(path, ProductDensity(g, g, np.random.default_rng(1).random((256, 256))))
    tracemalloc.start()
    try:
        back = read_product_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * back.values.nbytes
