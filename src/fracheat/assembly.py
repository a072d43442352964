"""Assembly of the nonlocal operator discretizing the fractional Dirichlet form.

The operator acts on grid functions that vanish off the domain.  Its matrix is

    L[i, j] = -A(d, alpha) * h^d / |x_i - x_j|^(d + alpha)        (i != j)
    L[i, i] = sum_{j != i} A(d, alpha) * h^d / |x_i - x_j|^(d + alpha) + kappa_i

where kappa_i is the killing density, the exact integral of the jump kernel
over the complement of the domain.  The induced quadratic form

    <L f, f> h^d = (A/2) sum_{i != j} (f_i - f_j)^2 h^(2d) / |x_i - x_j|^(d+alpha)
                   + sum_i f_i^2 kappa_i h^d

is the midpoint-rule quadrature of the full-space double-integral energy of f
extended by zero, with the diagonal cell pairs dropped.  No singular
correction is added on the diagonal: this keeps the exact Z-matrix and
row-sum structure that the positivity arguments rely on, at the cost of an
O(h^(2-alpha)) consistency error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AllocationError, ConvergenceFailure, DimensionMismatch, DomainError
from .geometry import Grid, orbit_table, stabilizers

DENSE_SIZE_CAP = 8192
SCAN_ROWS = 64  # rows of L gathered from the offset table at a time


def check_order(d: int, alpha: float) -> None:
    """Raise DomainError unless d is 1 or 2 and 0 < alpha < min(2, d)."""
    if d not in (1, 2):
        raise DomainError(f"dimension must be 1 or 2, got {d}")
    if not (0.0 < alpha < min(2.0, float(d))):
        raise DomainError(
            f"order alpha={alpha} outside the admissible range (0, {min(2, d)}) for d={d}"
        )


def normalization_constant(d: int, alpha: float) -> float:
    """Normalization A(d, alpha) of the jump kernel |x - y|^-(d + alpha).

    A(d, alpha) = alpha * Gamma((d + alpha)/2) / (2^(1 - alpha) * pi^(d/2)
    * Gamma(1 - alpha/2)).  Accurate to full double precision; the gamma
    arguments stay well inside the smooth range.
    """
    check_order(d, alpha)
    return (
        alpha
        * math.gamma((d + alpha) / 2.0)
        / (2.0 ** (1.0 - alpha) * math.pi ** (d / 2.0) * math.gamma(1.0 - alpha / 2.0))
    )


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense symmetric discretization L of the killed nonlocal operator,
    stored as its lattice-offset table.

    The kernel is translation invariant and the nodes sit on a lattice, so
    off the diagonal L_ij = entries[|lattice_i - lattice_j|] (entries[0] =
    0), the table spanning the lattice's box; diagonal holds every L_ii, a
    node carrying its mirror representative's.  An axis mirror keeps each
    offset up to sign, and the diagonal one swaps the axes of a square
    table, whose entries are symmetric: L commutes exactly with every
    mirror, and couplings gathers any block of L from the table's mirrored
    copy (mirrored); apply, one FFT product, commutes with them only to
    rounding.
    """

    n: int
    entries: np.ndarray
    diagonal: np.ndarray
    alpha: float
    grid: Grid
    kappa: np.ndarray
    # (orbits, block) per mirror subgroup, filled by fold
    _folds: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def cell_volume(self) -> float:
        return self.grid.cell_volume

    @cached_property
    def orbits(self) -> np.ndarray:
        return orbit_table(self.n, self.grid.mirrors)

    @cached_property
    def _fft(self) -> tuple:
        """The lattice box doubled per axis, on which circular convolution
        is linear, each node's flat index in it, and the table's rFFT on it:
        the mirrored table padded by a zero cell, offset -k at 2 s - k."""
        box = tuple(2 * s for s in self.entries.shape)
        kernel = np.fft.ifftshift(np.pad(self.mirrored[0], [(1, 0)] * len(box)))
        return box, np.ravel_multi_index(tuple(self.grid.lattice.T), box), np.fft.rfftn(kernel)

    @cached_property
    def mirrored(self) -> tuple:
        """(S, c): the table reflected about offset 0 on every axis, S[s - 1
        + k] = entries[|k|] for |k_a| < s_a (2 s_a - 1 cells per axis, s the
        table's shape), and each node's flat index c in S's box.  So
        off the diagonal L_ij = S.flat[c_i - c_j + S.size // 2], the centre
        cell being offset 0."""
        table = self.entries
        for a, s in enumerate(self.entries.shape):
            table = table.take(np.r_[s - 1 : 0 : -1, :s], axis=a)
        index = np.ravel_multi_index(tuple(self.grid.lattice.T), table.shape)
        for a in (table, index):
            a.setflags(write=False)
        return table, index

    def couplings(self, rows, cols, out=None) -> np.ndarray:
        """L's off-diagonal entries between the nodes rows and cols, 0 where
        a node meets itself, gathered from the mirrored table through one
        intp subtraction per pair (numpy gathers about half as fast through
        an int32 index, which it casts chunk by chunk); into out when given,
        C-contiguous of shape (len(rows), len(cols)).  The offsets lie in
        the table by construction; mode "clip" keeps take from copying out,
        as its default bounds check does."""
        table, index = self.mirrored
        offsets = np.subtract.outer(index[rows] + table.size // 2, index[cols])
        return table.ravel().take(offsets, out=out, mode="clip")

    def apply(self, F) -> np.ndarray:
        """L F for F of shape (n,) or (k, n): the table convolved with each
        row of F on the doubled box by FFT, one row at a time into the
        output (so the transforms' temporaries are one vector's), read at
        every node, plus diagonal * F."""
        F = np.asarray(F, dtype=float)
        if F.shape[-1:] != (self.n,):
            raise DimensionMismatch(f"expected vectors of length {self.n}, got shape {F.shape}")
        box, where, kernel = self._fft
        axes = tuple(range(len(box)))
        out = np.empty(F.shape)
        padded = np.zeros(math.prod(box))
        for f, row in zip(F.reshape(-1, self.n), out.reshape(-1, self.n)):
            padded[where] = f
            spectrum = np.fft.rfftn(padded.reshape(box))
            spectrum *= kernel
            np.add(np.fft.irfftn(spectrum, s=box, axes=axes).ravel()[where], self.diagonal * f, out=row)
        return out

    def fold(self, *vectors) -> tuple:
        """(orbits, B): the orbit table (geometry.orbit_table) of the grid's
        mirrors that leave every vector (every row of a stack) exactly
        invariant, and L folded by their group, B[r, t] = sum_g L[orbits[0,
        r], orbits[g, t]] / sqrt(s_r s_t), s the stabilizer orders
        (geometry.stabilizers).  B acts as L on the folded unknowns
        u[orbits[0]] / sqrt(s) of the vectors u that group fixes; it is
        symmetric with nonpositive off-diagonal entries, as L is.

        B is built once per subgroup and cached; callers only read it.  Its
        first call sorts the table's columns, and B with them, stably by the
        first vector on orbits[0]: spectral._SortedFactor's order.  Every
        group, the trivial one and a mirror-free grid's included, gathers
        its terms from the table SCAN_ROWS rows at a time, each into one
        reused buffer, and sums them in the group's order, s_r L_rr on the
        identity term's diagonal (the sum meets node r s_r times).  Where
        some s_r > 1, the diagonal mirror is in the group, and the sum at
        (t, r) takes the two quarter turns' terms in the other order: the
        sum and its transpose are averaged, exactly symmetric, and weighted,
        SCAN_ROWS rows at a time.  Elsewhere every element is an involution,
        the sum is already exactly symmetric and every weight is 1.
        """
        mirrors = self.grid.mirrors
        key = tuple(i for i, m in enumerate(mirrors) if all(np.array_equal(v[..., m], v) for v in vectors))
        if key not in self._folds:
            orbits = orbit_table(self.n, [mirrors[i] for i in key])
            if vectors:
                orbits = orbits[:, np.argsort(vectors[0][orbits[0]], kind="stable")]
            reps, s = orbits[0], stabilizers(orbits)
            block = np.empty((len(reps), len(reps)))
            term = np.empty((min(SCAN_ROWS, len(reps)), len(reps)))
            for start in range(0, len(reps), SCAN_ROWS):
                rows = reps[start : start + SCAN_ROWS]
                chunk = block[start : start + SCAN_ROWS]
                self.couplings(rows, reps, out=chunk)
                chunk.flat[start :: len(reps) + 1] = s[start : start + SCAN_ROWS] * self.diagonal[rows]
                for g in orbits[1:]:
                    chunk += self.couplings(rows, g, out=term[: len(rows)])
            for start in range(0, len(reps) if np.any(s > 1) else 0, SCAN_ROWS):
                upper, lower = block[start : start + SCAN_ROWS, start:], block[start:, start : start + SCAN_ROWS]
                upper += lower.T
                upper *= 0.5 / np.sqrt(np.outer(s[start : start + SCAN_ROWS], s[start:]))
                lower[...] = upper.T
            self._folds[key] = orbits, block
        return self._folds[key]


# --- killing density ---------------------------------------------------------

# Gauss-Kronrod 10/21 on [-1, 1] (QUADPACK's qk21), mirrored from the
# nonnegative nodes: Kronrod nodes and weights, Gauss weights of the odd nodes
_GK_NODES = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
                      0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
                      0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
                      0.14887433898163122, 0.0])
_GK_KRONROD = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                        0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                        0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                        0.14773910490133849, 0.1494455540029169])
_GK_GAUSS = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                      0.26926671930999635, 0.29552422471475287])
_GK_NODES = np.r_[_GK_NODES, -_GK_NODES[-2::-1]]
_GK_KRONROD = np.r_[_GK_KRONROD, _GK_KRONROD[-2::-1]]
_GK_GAUSS = np.r_[_GK_GAUSS, _GK_GAUSS[::-1]]
QUAD_LIMIT = 10000  # most subintervals of one integral
_QUAD_BATCH = 128  # most intervals bisected in one pass


def _gk21(f, lo, hi):
    """qk21 on each interval [lo, hi]: the integrals (m, k) and QUADPACK's
    error estimates (k,), taken in the max norm over the m integrands."""
    half = 0.5 * (hi - lo)
    fv = f((0.5 * (lo + hi)[:, None] + half[:, None] * _GK_NODES).ravel()).reshape(-1, lo.size, 21)
    kronrod = fv @ _GK_KRONROD
    err = half * np.abs(kronrod - fv[..., 1::2] @ _GK_GAUSS).max(axis=0)
    dev = half * (np.abs(fv - 0.5 * kronrod[..., None]) @ _GK_KRONROD).max(axis=0)
    ratio = np.minimum(1.0, 200.0 * err / np.where(dev > 0.0, dev, 1.0)) ** 1.5
    err = np.where(dev > 0.0, dev * ratio, err)
    rounding = 50.0 * np.finfo(float).eps * half * (np.abs(fv) @ _GK_KRONROD).max(axis=0)
    return half * kronrod, np.maximum(err, rounding)


def _gauss_kronrod(f, breaks, epsabs=0.0, epsrel=0.0):
    """Integral of the vector-valued f over [breaks[0], breaks[-1]] by adaptive
    Gauss-Kronrod 10/21; f maps k abscissae to an (m, k) array.

    Each pass bisects the intervals with the largest error estimates and
    evaluates all their halves at once, until the summed estimate is at most
    max(epsabs, epsrel * max|I|).  Raises ConvergenceFailure on a non-finite
    estimate or past QUAD_LIMIT intervals.
    """
    lo, hi = np.asarray(breaks[:-1], dtype=float), np.asarray(breaks[1:], dtype=float)
    vals, errs = _gk21(f, lo, hi)
    while True:
        total, err = vals.sum(axis=1), errs.sum()
        tol = max(epsabs, epsrel * np.abs(total).max())
        if np.isfinite(err) and err <= tol:
            return total
        if not np.isfinite(err) or lo.size >= QUAD_LIMIT:
            raise ConvergenceFailure(f"quadrature error {err:.3g} > {tol:.3g} on {lo.size} intervals")
        # the largest errors, until at most tol / 2 is left unsplit
        order = np.argsort(errs)[::-1]
        count = np.argmax(err - np.cumsum(errs[order]) <= 0.5 * tol) + 1
        split = order[: min(count, _QUAD_BATCH, QUAD_LIMIT - lo.size)]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.r_[lo[split], mid], np.r_[mid, hi[split]]
        new_vals, new_errs = _gk21(f, new_lo, new_hi)
        lo, hi = np.r_[np.delete(lo, split), new_lo], np.r_[np.delete(hi, split), new_hi]
        vals = np.hstack([np.delete(vals, split, axis=1), new_vals])
        errs = np.r_[np.delete(errs, split), new_errs]


def _rectangle_complement_integral(points: np.ndarray, a: float, b: float, alpha: float) -> np.ndarray:
    """Integral of |x - y|^(-2 - alpha) over the complement of the box
    (-a, a) x (-b, b), for each interior point x.

    As for the disk, it is (1/alpha) times the integral of e^-alpha over the
    directions, e the exit distance.  A side at distance p is left at e =
    p / cos(phi), phi the angle from its normal, so it adds p^-alpha times
    F(atan(l1 / p)) + F(atan(l2 / p)), with F(phi) the integral of cos^alpha
    over [0, phi] and l1, l2 the distances along the side to its corners.
    The eight F of every point are one vector quadrature of phi cos^alpha(phi t)
    over t in [0, 1]; phi < pi/2, so the integrands are smooth.
    """
    x1, x2 = points[:, 0], points[:, 1]
    gaps = np.stack([a - x1, a + x1, b - x2, b + x2])  # the sides x1 = a, -a, x2 = b, -b
    phi = np.arctan2(gaps[[2, 3, 2, 3, 0, 1, 0, 1]], gaps[[0, 0, 1, 1, 2, 2, 3, 3]]).reshape(-1, 1)
    F = _gauss_kronrod(lambda t: phi * np.cos(phi * t) ** alpha, [0.0, 0.5, 1.0], epsrel=1e-13)
    return (gaps ** -alpha * F.reshape(4, 2, -1).sum(axis=1)).sum(axis=0) / alpha


def _disk_complement_integral(radii: np.ndarray, R: float, alpha: float) -> np.ndarray:
    """Integral of |x - y|^(-2 - alpha) over the complement of the disk
    |y| < R, at each distance 0 <= rho < R from the center.

    About x = (rho, 0) the radial integral is exact, leaving (2/alpha) times
    the integral over theta in [0, pi] of e^-alpha, e the exit distance to the
    circle: one vector quadrature for all radii.  Each integrand is scaled by
    its maximum (R - rho)^alpha, so one max-norm tolerance serves values that
    differ by orders of magnitude; e has a layer of width ~sqrt(R - rho) at
    the breakpoint theta = pi/2.
    """
    gap = R - radii[:, None]
    chord = gap * (R + radii[:, None])  # R^2 - rho^2 without cancellation
    scale = gap ** alpha

    def f(theta):
        c = np.cos(theta)
        b = radii[:, None] * c
        root = np.sqrt(chord + b * b)
        # outward directions: rationalized form, free of cancellation
        e = np.where(c > 0.0, chord / (root + b), root - b)
        return scale * e ** -alpha

    val = _gauss_kronrod(f, [0.0, 0.5 * np.pi, np.pi], epsrel=1e-13)
    return (2.0 / alpha) * val / scale[:, 0]


def killing_density(grid: Grid, alpha: float) -> np.ndarray:
    """Killing density kappa_i = A(d, alpha) * integral over the complement of
    the domain of |x_i - y|^(-d - alpha) dy, for every node x_i.

    The domains are convex, so for every kind the integral is (1/alpha) times
    the integral of e^-alpha over the directions, e the exit distance from x_i.
    In d = 1 that is the closed form (R - x)^-alpha + (R + x)^-alpha.  The
    rectangle and the disk are each one Gauss-Kronrod vector quadrature to
    relative tolerance 1e-13: the rectangle's over the distinct folded nodes
    (|x1|, |x2|), the disk's over the distinct node radii.
    """
    d = grid.dimension
    check_order(d, alpha)
    A = normalization_constant(d, alpha)
    pts = grid.points
    if d == 1:
        R = grid.domain.params[0]
        x = pts[:, 0]
        return (A / alpha) * ((R - x) ** -alpha + (R + x) ** -alpha)
    if grid.domain.kind == "rectangle":
        # the box is symmetric in each axis: one integral per (|x1|, |x2|)
        folded = np.abs(pts)
        _, first, inverse = np.unique(
            np.round(folded, 12), axis=0, return_index=True, return_inverse=True
        )
        a, b = grid.domain.params
        return A * _rectangle_complement_integral(folded[first], a, b, alpha)[inverse]
    # disk: the integral is radial, so it is computed once per distinct radius
    radii = np.hypot(pts[:, 0], pts[:, 1])
    _, first, inverse = np.unique(np.round(radii, 12), return_index=True, return_inverse=True)
    return A * _disk_complement_integral(radii[first], grid.domain.params[0], alpha)[inverse]


# --- operator assembly -------------------------------------------------------


def assemble_operator(grid: Grid, alpha: float) -> OperatorMatrix:
    """Assemble the killed nonlocal operator as its lattice-offset table
    and its diagonal (OperatorMatrix).

    Off-diagonal couplings are -A h^d / |x_i - x_j|^(d + alpha); the diagonal
    carries the negated off-diagonal row sum plus the killing density, so row
    sums equal kappa exactly and the matrix is a Stieltjes matrix.

    The kernel is translation invariant and the nodes sit on a lattice, so a
    coupling depends only on the offset |i - j| of the lattice indices: it is
    tabulated once over the offset box, at distance h |i - j|.  The row of
    each mirror representative is gathered from the table SCAN_ROWS rows at
    a time, into one reused buffer (a fresh block per chunk made the disk's
    gathers at h = 1/24 about twice as slow), and summed in node order; its
    orbit shares the sum.
    """
    d = grid.dimension
    check_order(d, alpha)
    if grid.n > DENSE_SIZE_CAP:
        raise AllocationError(
            f"grid has {grid.n} nodes, above the dense-storage cap {DENSE_SIZE_CAP}"
        )
    A = normalization_constant(d, alpha)
    kappa = killing_density(grid, alpha)
    squares = np.zeros(())
    for size in grid.lattice.max(axis=0) + 1:
        squares = np.add.outer(squares, np.arange(size, dtype=float) ** 2)
    with np.errstate(divide="ignore"):
        table = -A * grid.cell_volume * (grid.h * np.sqrt(squares)) ** -(d + alpha)
    table.flat[0] = 0.0  # the zero offset is the diagonal
    op = OperatorMatrix(n=grid.n, entries=table, diagonal=np.empty(grid.n), alpha=alpha, grid=grid, kappa=kappa)
    reps = op.orbits[0]
    buffer = np.empty((min(SCAN_ROWS, len(reps)), grid.n))
    sums = [op.couplings(rows, np.arange(grid.n), out=buffer[: len(rows)]).sum(axis=1)
            for rows in np.split(reps, range(SCAN_ROWS, len(reps), SCAN_ROWS))]
    op.diagonal[op.orbits] = kappa[reps] - np.concatenate(sums)
    for a in (table, op.diagonal, kappa):
        a.setflags(write=False)
    return op
