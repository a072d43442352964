"""Bounded domains and the uniform cell-center grids that discretize them.

All supported shapes are open, bounded and symmetric about the origin:
an interval (-R, R), an axis-aligned rectangle (-a, a) x (-b, b), and a
disk of radius R.  Grids place nodes at cell centers (j + 1/2) * h
measured from the corner of the bounding box, so nodes stay away from
the boundary and, whenever the box side is an integer number of cells,
from the origin as well.  Points outside the domain carry an implicit
zero value: they are simply absent from the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, EmptyGrid

_VALID_KINDS = ("interval", "rectangle", "disk")


@dataclass(frozen=True)
class DomainSpec:
    """Analytic description of a bounded open domain.

    kind/params pairs:
      interval  -- params = (R,), the open interval (-R, R) in d = 1
      rectangle -- params = (a, b), the open box (-a, a) x (-b, b) in d = 2
      disk      -- params = (R,), the open disk |x| < R in d = 2
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _VALID_KINDS:
            raise DomainError(f"unknown domain kind {self.kind!r}")
        expected = 2 if self.kind == "rectangle" else 1
        if len(self.params) != expected:
            raise DomainError(
                f"{self.kind} takes {expected} size parameter(s), got {len(self.params)}"
            )
        if any(not np.isfinite(p) or p <= 0 for p in self.params):
            raise DomainError(f"{self.kind} size parameters must be positive and finite")

    @staticmethod
    def interval(R: float) -> "DomainSpec":
        return DomainSpec("interval", (float(R),))

    @staticmethod
    def rectangle(a: float, b: float) -> "DomainSpec":
        return DomainSpec("rectangle", (float(a), float(b)))

    @staticmethod
    def disk(R: float) -> "DomainSpec":
        return DomainSpec("disk", (float(R),))

    @property
    def dimension(self) -> int:
        return 1 if self.kind == "interval" else 2

    @property
    def half_widths(self) -> tuple:
        """Half-extents of the bounding box along each axis."""
        if self.kind == "rectangle":
            return self.params
        return (self.params[0],) * self.dimension

    @property
    def min_extent(self) -> float:
        return 2.0 * min(self.half_widths)

    @property
    def inradius(self) -> float:
        """Radius of the largest ball centered at the origin inside the domain."""
        return min(self.half_widths)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Strict-interior membership mask for an (m, d) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "interval":
            return np.abs(pts[:, 0]) < self.params[0]
        if self.kind == "rectangle":
            a, b = self.params
            return (np.abs(pts[:, 0]) < a) & (np.abs(pts[:, 1]) < b)
        return pts[:, 0] ** 2 + pts[:, 1] ** 2 < self.params[0] ** 2

    def distance_to_complement(self, points: np.ndarray) -> np.ndarray:
        """Exact Euclidean distance from interior points to the complement."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "interval":
            return self.params[0] - np.abs(pts[:, 0])
        if self.kind == "rectangle":
            a, b = self.params
            return np.minimum(a - np.abs(pts[:, 0]), b - np.abs(pts[:, 1]))
        return self.params[0] - np.hypot(pts[:, 0], pts[:, 1])


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform cell-center grid over the interior of a domain.

    points is an (n, d) array ordered lexicographically by coordinate;
    every point lies strictly inside the domain.
    """

    domain: DomainSpec
    h: float
    points: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dimension

    @cached_property
    def lattice(self) -> np.ndarray:
        """(n, d) int32 lattice indices of the nodes, (x - min x) / h per axis.

        Raises ValueError when a node is off the lattice by more than
        rounding, since the translation-invariant kernel is read from these
        indices.
        """
        pts = self.points
        scaled = (pts - pts.min(axis=0)) / self.h
        lattice = np.rint(scaled)
        slack = 64.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(pts))) / self.h)
        if np.max(np.abs(scaled - lattice)) > slack:
            raise ValueError(f"grid nodes are not on a lattice of spacing {self.h}")
        lattice = lattice.astype(np.int32)
        lattice.setflags(write=False)
        return lattice

    @cached_property
    def mirrors(self) -> tuple:
        """Node permutations of the mirrors that map the node set onto
        itself: the axis mirrors x_a -> -x_a that fix no node, then, on a
        square lattice box, the diagonal mirror x1 <-> x2.

        Candidate images come from the lattice indices of the nodes; a mirror
        is kept only when every image carries exactly the mirrored
        coordinates.
        """
        pts = self.points
        lattice = self.lattice
        top = lattice.max(axis=0)
        # the nodes are in lexicographic order, so their keys increase
        keys = np.ravel_multi_index(lattice.T, top + 1)
        nodes = np.arange(self.n)
        found = []
        for a in range(self.dimension + (self.dimension == 2 and top[0] == top[1])):
            if a < self.dimension:  # the axis mirror x_a -> -x_a
                image_lattice, mirrored = lattice.copy(), pts.copy()
                image_lattice[:, a] = top[a] - lattice[:, a]
                mirrored[:, a] = -pts[:, a]
            else:  # the diagonal mirror x1 <-> x2
                image_lattice, mirrored = lattice[:, ::-1], pts[:, ::-1]
            image_keys = np.ravel_multi_index(image_lattice.T, top + 1)
            image = np.minimum(np.searchsorted(keys, image_keys), self.n - 1)
            if np.array_equal(pts[image], mirrored) and not (a < self.dimension and np.any(image == nodes)):
                image.setflags(write=False)
                found.append(image)
        return tuple(found)


def orbit_table(n: int, mirrors) -> np.ndarray:
    """Node orbits of the group generated by mirrors (Grid.mirrors or a
    subgroup's, closed under composition: commuting axis mirrors that fix no
    node, then maybe the diagonal one), as an (order, orbits) index array.

    Column r is the orbit of the r-th representative, a node with an index
    no larger than each of its mirror images; row g holds its images under
    the g-th group element (row 0 lists the representatives), listed as
    the products of the axis mirrors whose bits are set in g, then those
    followed by the diagonal mirror.  A node the diagonal mirror's
    elements fix repeats in its column: its stabilizer order s_r
    (stabilizers) times |orbit| is the group's order.  With no mirror the
    table is the single row 0..n-1.
    """
    reps = np.arange(n)
    for image in mirrors:
        reps = reps[reps <= image[reps]]
    rows = [reps]
    for image in mirrors:
        rows += [image[r] for r in rows]
    return np.stack(rows)


def stabilizers(orbits: np.ndarray) -> np.ndarray:
    """s_r, the number of an orbit table's rows that fix representative r."""
    return (orbits == orbits[0]).sum(axis=0)


def build_grid(domain: DomainSpec, h: float) -> Grid:
    """Lay a uniform lattice of spacing h over the bounding box and keep the
    cell centers that fall strictly inside the domain.

    Cell centers sit at corner + (j + 1/2) * h along each axis.  When the
    centers inside an axis's extent are symmetric up to rounding (the side is
    a whole number of cells), they are snapped to exact pairs +-x, so that
    the domain's mirrors map nodes exactly onto nodes.  Raises EmptyGrid when
    h is not smaller than the domain's smallest extent or when no center
    survives the interior test.
    """
    if not np.isfinite(h) or h <= 0:
        raise ValueError(f"spacing must be positive, got {h}")
    if h >= domain.min_extent:
        raise EmptyGrid(
            f"spacing {h} is not smaller than the domain's smallest extent "
            f"{domain.min_extent}"
        )
    axes = []
    for half in domain.half_widths:
        m = int(np.floor(2.0 * half / h)) + 1
        ax = -half + (np.arange(m) + 0.5) * h
        ax = ax[np.abs(ax) < half]  # a center outside the box is never kept
        if np.max(np.abs(ax + ax[::-1])) <= 16.0 * np.finfo(float).eps * half:
            ax = 0.5 * (ax - ax[::-1])  # exact on pairs that are already exact
        axes.append(ax)
    if domain.dimension == 1:
        pts = axes[0][:, None]
    else:
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    pts = pts[domain.contains(pts)]
    if pts.shape[0] == 0:
        raise EmptyGrid(f"no cell center of spacing {h} lies inside the domain")
    pts = np.ascontiguousarray(pts)
    pts.setflags(write=False)
    return Grid(domain=domain, h=float(h), points=pts)


def boundary_distance(grid: Grid) -> np.ndarray:
    """Distance from every node to the complement, from the analytic shape."""
    return grid.domain.distance_to_complement(grid.points)
