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
    total_mass,
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
    g = Grid1D(0.0, 1.0, 4)
    GridMeasure(g, np.ones(4) * (1.0 + 5e-11), probability=True)
    with pytest.raises(ValueError):
        GridMeasure(g, np.ones(4) * 1.01, probability=True)


def test_renormalize_gives_unit_mass():
    g = Grid1D(0.0, 1.0, 32)
    m = GridMeasure(g, np.random.default_rng(0).random(32) + 0.5, renormalize=True)
    assert abs(m.mass - 1.0) < 1e-14
    assert total_mass(m) == m.mass


def test_density_array_is_immutable():
    g = Grid1D(0.0, 1.0, 4)
    m = GridMeasure(g, np.ones(4))
    with pytest.raises(ValueError):
        m.density[0] = 2.0


def test_support_mask():
    g = Grid1D(0.0, 1.0, 4)
    m = GridMeasure(g, np.array([0.0, 1.0, 0.0, 3.0]))
    assert m.support_mask().tolist() == [False, True, False, True]


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
    m = AtomicMeasure([(0.8, 0.25), (0.1, 0.75)])
    s = m.sorted()
    assert s.locations.tolist() == [0.1, 0.8]
    assert s.masses.tolist() == [0.75, 0.25]
    with pytest.raises(ValueError):
        AtomicMeasure([(0.5, 0.5)])  # masses must sum to 1
    with pytest.raises(ValueError):
        AtomicMeasure([(0.5, 1.5), (0.6, -0.5)])
    # NaN compares False both ways, so it must be refused by name
    for atoms in ([(0.5, float("nan"))], [(float("nan"), 1.0)], [(float("inf"), 1.0)]):
        with pytest.raises(ValueError, match="not finite"):
            AtomicMeasure(atoms, 0.0, float("inf"))
    with pytest.raises(ValueError):
        AtomicMeasure([(2.0, 1.0)], lo=0.0, hi=1.0)


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
