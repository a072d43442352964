import numpy as np
import pytest

from fracheat import DomainSpec, EmptyGrid, assemble_operator, boundary_distance, build_grid, orbit_table
from fracheat.geometry import Grid, stabilizers
from fracheat.errors import DomainError


def test_interval_cell_centers():
    g = build_grid(DomainSpec.interval(1.0), 0.5)
    assert g.n == 4
    np.testing.assert_array_equal(g.points[:, 0], [-0.75, -0.25, 0.25, 0.75])


def test_disk_spacing_above_extent_is_empty():
    with pytest.raises(EmptyGrid):
        build_grid(DomainSpec.disk(1.0), 2.5)


def test_rectangle_node_count():
    g = build_grid(DomainSpec.rectangle(1.0, 1.0), 0.25)
    assert g.n == 64


def test_points_strictly_inside_and_distinct():
    for dom, h in [
        (DomainSpec.interval(1.0), 2.0 / 3.0),
        (DomainSpec.disk(1.0), 0.3),
        (DomainSpec.rectangle(1.0, 2.0), 0.3),
    ]:
        g = build_grid(dom, h)
        assert np.all(dom.contains(g.points))
        assert len(np.unique(g.points, axis=0)) == g.n
        assert g.cell_volume == h ** dom.dimension


def test_lexicographic_ordering():
    g = build_grid(DomainSpec.rectangle(1.0, 1.0), 0.5)
    pts = [tuple(p) for p in g.points]
    assert pts == sorted(pts)


def test_boundary_distance_values():
    # center of the interval
    g = build_grid(DomainSpec.interval(1.0), 2.0 / 3.0)
    i0 = np.argmin(np.abs(g.points[:, 0]))
    assert g.points[i0, 0] == 0.0
    assert boundary_distance(g)[i0] == pytest.approx(1.0, abs=1e-15)
    # radial distance in the disk, nearest-face distance in the rectangle
    disk = DomainSpec.disk(1.0)
    assert disk.distance_to_complement(np.array([[0.6, 0.0]]))[0] == pytest.approx(0.4)
    rect = DomainSpec.rectangle(1.0, 2.0)
    assert rect.distance_to_complement(np.array([[0.5, 0.0]]))[0] == pytest.approx(0.5)


def test_boundary_distance_bounds():
    for dom, h in [(DomainSpec.interval(1.0), 0.11), (DomainSpec.disk(1.0), 0.22)]:
        g = build_grid(dom, h)
        delta = boundary_distance(g)
        assert np.all(delta > 0)
        assert np.all(delta <= dom.inradius + 1e-15)


def test_grid_generation_is_deterministic():
    a = build_grid(DomainSpec.disk(1.0), 0.17)
    b = build_grid(DomainSpec.disk(1.0), 0.17)
    assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize(
    "dom", [DomainSpec.interval(1.0), DomainSpec.rectangle(1.0, 1.0), DomainSpec.disk(1.0)]
)
def test_refined_grid_covers_coarse_cells(dom):
    h = 1.0 / 8.0
    coarse = build_grid(dom, h)
    fine = build_grid(dom, h / 2.0)
    fine_set = {tuple(np.round(p, 12)) for p in fine.points}
    for p in coarse.points:
        children = [
            tuple(np.round(p + np.array(offs) * h / 4.0, 12))
            for offs in np.ndindex(*(2,) * dom.dimension)
            for offs in [tuple(2 * np.array(offs) - 1)]
        ]
        assert any(c in fine_set for c in children)


def test_invalid_domains():
    with pytest.raises(DomainError):
        DomainSpec.interval(-1.0)
    with pytest.raises(DomainError):
        DomainSpec.rectangle(1.0, 0.0)
    with pytest.raises(DomainError):
        DomainSpec("triangle", (1.0,))
    with pytest.raises(ValueError):
        build_grid(DomainSpec.interval(1.0), -0.5)


@pytest.mark.parametrize(
    "dom", [DomainSpec.interval(1.0), DomainSpec.rectangle(1.0, 0.5), DomainSpec.disk(1.0)]
)
@pytest.mark.parametrize("h", [1.0 / 12.0, 1.0 / 16.0, 1.0 / 24.0])
def test_snapped_grids_mirror_exactly(dom, h):
    # the axis mirrors, then the diagonal one on the disk's square box
    g = build_grid(dom, h)
    assert len(g.mirrors) == dom.dimension + (dom.kind == "disk")
    for a, image in enumerate(g.mirrors):
        if a < dom.dimension:
            mirrored = g.points.copy()
            mirrored[:, a] = -mirrored[:, a]
        else:
            mirrored = g.points[:, ::-1]
        assert np.array_equal(g.points[image], mirrored)
        assert np.array_equal(image[image], np.arange(g.n))
    # snapping moves a center by rounding only
    for a, half in enumerate(dom.half_widths):
        j = np.rint((g.points[:, a] + half) / h - 0.5)
        assert np.max(np.abs(g.points[:, a] - (-half + (j + 0.5) * h))) <= 2 * np.spacing(half)


def test_power_of_two_grids_are_not_moved():
    g = build_grid(DomainSpec.interval(1.0), 1.0 / 64.0)
    np.testing.assert_array_equal(g.points[:, 0], -1.0 + (np.arange(128) + 0.5) / 64.0)


def test_mirrors_need_a_symmetric_lattice_without_fixed_nodes():
    assert build_grid(DomainSpec.interval(1.0), 0.03).mirrors == ()  # 2 / h is not whole
    assert build_grid(DomainSpec.interval(1.0), 2.0 / 3.0).mirrors == ()  # a node at 0
    # 15 centers per axis: the axis mirrors fix the nodes on the axes, and
    # only the diagonal mirror, which may fix nodes, is left
    odd = build_grid(DomainSpec.disk(1.0), 2.0 / 15.0)
    assert len(odd.mirrors) == 1
    (diagonal,) = odd.mirrors
    assert np.array_equal(odd.points[diagonal], odd.points[:, ::-1])
    assert np.count_nonzero(diagonal == np.arange(odd.n)) == 11
    # one axis with a whole number of cells, one without; the box is not square
    assert len(build_grid(DomainSpec.rectangle(1.0, 0.7), 0.125).mirrors) == 1
    # a square box that is not a whole number of cells: the diagonal mirror only
    (diagonal,) = build_grid(DomainSpec.rectangle(1.0, 1.0), 0.3).mirrors
    # a square lattice box without the four nodes (+-0.875, +-0.125): the
    # axis mirrors map the rest onto itself, the diagonal one does not
    g = build_grid(DomainSpec.rectangle(1.0, 1.0), 0.25)
    assert len(g.mirrors) == 3
    kept = ~np.all(np.abs(g.points) == [0.875, 0.125], axis=1)
    holed = Grid(domain=g.domain, h=g.h, points=g.points[kept])
    assert holed.n == g.n - 4 and np.array_equal(holed.lattice.max(axis=0), [7, 7])
    assert len(holed.mirrors) == 2


@pytest.mark.parametrize("dom", [DomainSpec.interval(1.0), DomainSpec.rectangle(1.0, 0.5)])
def test_orbit_table_partitions_the_nodes(dom):
    # axis mirrors only: every orbit is free, its nodes once in its column
    g = build_grid(dom, 1.0 / 12.0)
    orbits = orbit_table(g.n, g.mirrors)
    assert orbits.shape == (2 ** dom.dimension, g.n // 2 ** dom.dimension)
    np.testing.assert_array_equal(np.sort(orbits.ravel()), np.arange(g.n))
    assert np.all(g.points[orbits[0]] < 0)  # representatives: every coordinate negative
    assert np.all(stabilizers(orbits) == 1)
    for bit, image in enumerate(g.mirrors):
        for row in range(len(orbits)):
            np.testing.assert_array_equal(image[orbits[row]], orbits[row ^ (1 << bit)])
    np.testing.assert_array_equal(orbit_table(g.n, ()), np.arange(g.n)[None])


def test_disk_orbit_table_is_the_square_group():
    # the dihedral group of order 8: the axis mirrors' rows, then each of
    # them followed by the diagonal mirror
    g = build_grid(DomainSpec.disk(1.0), 1.0 / 16.0)
    x, y, diagonal = g.mirrors
    orbits = orbit_table(g.n, g.mirrors)
    assert orbits.shape == (8, 107)
    for row in range(4):
        np.testing.assert_array_equal(x[orbits[row]], orbits[row ^ 1])
        np.testing.assert_array_equal(y[orbits[row]], orbits[row ^ 2])
        np.testing.assert_array_equal(diagonal[orbits[row]], orbits[row + 4])
    # every node in exactly one column, s_r times, and s_r |orbit_r| = 8
    s = stabilizers(orbits)
    for r, column in enumerate(orbits.T):
        nodes, counts = np.unique(column, return_counts=True)
        assert np.all(counts == s[r]) and s[r] * len(nodes) == 8
    columns_per_node = np.bincount(np.concatenate([np.unique(column) for column in orbits.T]), minlength=g.n)
    assert np.all(columns_per_node == 1)
    # 96 free orbits and 11 on the diagonals, fixed by the diagonal mirror
    assert np.bincount(s).tolist() == [0, 96, 11]
    # row 0 is the octant x1 <= x2 < 0, the diagonal nodes those with s = 2
    reps = g.points[orbits[0]]
    assert np.all(reps[:, 0] <= reps[:, 1]) and np.all(reps[:, 1] < 0)
    np.testing.assert_array_equal(s == 2, reps[:, 0] == reps[:, 1])
    octant = (g.points[:, 0] <= g.points[:, 1]) & (g.points[:, 1] < 0)
    np.testing.assert_array_equal(np.sort(orbits[0]), np.flatnonzero(octant))


@pytest.mark.parametrize(
    "dom,h",
    [(DomainSpec.interval(1.0), 0.03), (DomainSpec.rectangle(1.0, 0.56), 0.05), (DomainSpec.disk(1.0), 1 / 24)],
)
def test_lattice_indices(dom, h):
    g = build_grid(dom, h)
    lat = g.lattice
    assert lat.dtype == np.int32 and lat.shape == g.points.shape and not lat.flags.writeable
    assert np.all(lat.min(axis=0) == 0)
    np.testing.assert_allclose(g.points, g.points.min(axis=0) + h * lat, rtol=0, atol=1e-14)


def test_lattice_rejects_an_off_lattice_grid():
    g = build_grid(DomainSpec.disk(1.0), 1 / 16)
    pts = g.points.copy()
    pts[5, 1] += 1e-9 * g.h
    bad = Grid(domain=g.domain, h=g.h, points=pts)
    with pytest.raises(ValueError, match="lattice"):
        bad.lattice
    with pytest.raises(ValueError, match="lattice"):
        assemble_operator(bad, 1.0)
