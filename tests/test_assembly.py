import math
import time
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import beta as beta_fn, betainc, gamma

from fracheat import (
    AllocationError,
    DomainSpec,
    assemble_operator,
    build_grid,
    killing_density,
    normalization_constant,
    spectral_bottom,
)
from fracheat.assembly import (
    _disk_complement_integral,
    _gauss_kronrod,
    _rectangle_complement_integral,
)
from fracheat.errors import ConvergenceFailure, DomainError
from fracheat.geometry import orbit_table, stabilizers
from oracles import UnsupportedFunction, _fourier_energy, fourier_form_check

# regression value: smallest eigenvalue of the assembled operator on the
# unit interval at alpha = 0.5, h = 1/256 (refinement study fixture)
LAMBDA0_FREE_H256 = 0.9699603072750919


def mp_normalization(d, alpha):
    alpha = mpmath.mpf(alpha)
    return (
        alpha
        * mpmath.gamma((d + alpha) / 2)
        / (2 ** (1 - alpha) * mpmath.pi ** (mpmath.mpf(d) / 2) * mpmath.gamma(1 - alpha / 2))
    )


def test_normalization_constant_closed_forms():
    assert normalization_constant(1, 0.5) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0 * math.pi)), rel=1e-14)
    assert normalization_constant(2, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


@pytest.mark.parametrize("d,alpha", [(1, 0.2), (1, 0.9), (2, 0.5), (2, 1.0), (2, 1.7)])
def test_normalization_constant_vs_mpmath(d, alpha):
    mpmath.mp.dps = 40
    assert normalization_constant(d, alpha) == pytest.approx(float(mp_normalization(d, alpha)), rel=1e-12)


def test_normalization_constant_domain_errors():
    for d, alpha in [(1, 1.5), (1, 0.0), (1, -0.2), (2, 2.0), (2, 2.3), (3, 0.5)]:
        with pytest.raises(DomainError):
            normalization_constant(d, alpha)


def test_killing_density_interval():
    alpha = 0.5
    g = build_grid(DomainSpec.interval(1.0), 2.0 / 3.0)
    kap = killing_density(g, alpha)
    A = normalization_constant(1, alpha)
    # center: closed form (A/alpha) * 2 * R^-alpha
    i0 = np.argmin(np.abs(g.points[:, 0]))
    assert kap[i0] == pytest.approx(2.0 * A / alpha, rel=1e-14)
    # reflection symmetry
    assert kap[0] == pytest.approx(kap[-1], rel=1e-14)
    # independent quadrature oracle at every node
    mpmath.mp.dps = 30
    for x, expect in zip(g.points[:, 0], kap):
        left = mpmath.quad(lambda y: (x - y) ** (-1 - alpha), [-mpmath.inf, -1])
        right = mpmath.quad(lambda y: (y - x) ** (-1 - alpha), [1, mpmath.inf])
        assert expect == pytest.approx(float(A * (left + right)), rel=1e-12)


def _polar_box_complement(x1, x2, a, b, alpha):
    # exit-distance form of the complement integral: int rho(theta)^-alpha / alpha
    def rho(theta):
        c, s = np.cos(theta), np.sin(theta)
        ts = []
        if abs(c) > 1e-15:
            ts.append(((a if c > 0 else -a) - x1) / c)
        if abs(s) > 1e-15:
            ts.append(((b if s > 0 else -b) - x2) / s)
        return min(t for t in ts if t > 0)

    val, _ = integrate.quad(
        lambda th: rho(th) ** -alpha / alpha, 0, 2 * np.pi, limit=400, epsabs=1e-13, epsrel=1e-11
    )
    return val


@pytest.mark.parametrize("point", [(0.3, -1.1), (0.93, 1.85), (0.0, 0.0)])
def test_box_complement_vs_polar_oracle(point):
    a, b, alpha = 1.0, 2.0, 0.8
    mine = _rectangle_complement_integral(np.array([point]), a, b, alpha)[0]
    oracle = _polar_box_complement(point[0], point[1], a, b, alpha)
    assert mine == pytest.approx(oracle, rel=1e-9)


def test_killing_density_disk():
    alpha = 1.0
    g = build_grid(DomainSpec.disk(1.0), 0.4)
    kap = killing_density(g, alpha)
    i0 = np.argmin(np.linalg.norm(g.points, axis=1))
    # center: A * 2 pi R^-alpha / alpha = 1 for alpha = 1, R = 1
    assert kap[i0] == pytest.approx(1.0, rel=1e-9)
    # radial function
    radii = np.round(np.linalg.norm(g.points, axis=1), 10)
    for r in np.unique(radii):
        assert np.ptp(kap[radii == r]) < 1e-11
    # off-center oracle: exit-distance integral over the full circle of directions
    alpha2, rho0 = 0.75, 0.35
    mine = _disk_complement_integral(np.array([rho0]), 1.0, alpha2)[0]

    def exit_dist(theta):
        bb = rho0 * np.cos(theta)
        return -bb + np.sqrt(bb * bb + 1.0 - rho0 * rho0)

    oracle, _ = integrate.quad(
        lambda th: exit_dist(th) ** -alpha2 / alpha2, 0, 2 * np.pi, limit=400, epsabs=1e-13
    )
    assert mine == pytest.approx(oracle, rel=1e-9)


def _box_minus_disk_oracle(rho, R, alpha):
    # complement of the bounding box in closed form plus the box-minus-disk
    # ring by 2-d quadrature in polar coordinates about the center
    p = 0.5 * (2.0 + alpha)

    def rmax(theta):
        return R / max(abs(np.cos(theta)), abs(np.sin(theta)))

    def inner(r, theta):
        return r * (r * r - 2.0 * r * rho * np.cos(theta) + rho * rho) ** -p

    ring, _ = integrate.dblquad(inner, 0.0, np.pi, lambda t: R, rmax, epsabs=1e-13, epsrel=1e-9)
    return _rectangle_complement_integral(np.array([[rho, 0.0]]), R, R, alpha)[0] + 2.0 * ring


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("rho", [0.0, 0.35, 0.9, 1.0 - 1e-3])
def test_disk_complement_vs_box_and_ring_oracle(rho, alpha):
    mine = _disk_complement_integral(np.array([rho]), 1.0, alpha)[0]
    assert mine == pytest.approx(_box_minus_disk_oracle(rho, 1.0, alpha), rel=1e-9)


def test_disk_complement_near_circle_vs_mpmath():
    rho, alpha = 1.0 - 1e-5, 1.5
    mpmath.mp.dps = 30
    mrho = mpmath.mpf(rho)
    layer = mpmath.sqrt(1 - mrho)

    def e(t):
        return -mrho * mpmath.cos(t) + mpmath.sqrt(1 - (mrho * mpmath.sin(t)) ** 2)

    half = mpmath.pi / 2
    oracle = 2 / mpmath.mpf(alpha) * mpmath.quad(
        lambda t: e(t) ** -alpha, [0, half - layer, half, half + layer, mpmath.pi]
    )
    mine = _disk_complement_integral(np.array([rho]), 1.0, alpha)[0]
    assert mine == pytest.approx(float(oracle), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("r", [0.3, 2.5])
def test_disk_killing_density_scaling(r, alpha):
    # kappa on disk(r) at spacing h r equals r^-alpha times kappa on disk(1)
    h = 0.15
    unit = build_grid(DomainSpec.disk(1.0), h)
    scaled = build_grid(DomainSpec.disk(r), h * r)
    assert scaled.n == unit.n
    np.testing.assert_allclose(scaled.points, r * unit.points, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(
        killing_density(scaled, alpha), r ** -alpha * killing_density(unit, alpha), rtol=1e-12, atol=0
    )


def _exit_distance_oracle(rho, R, alpha):
    # (2/alpha) * int_0^pi e(theta)^-alpha, e the distance to the circle;
    # the outward root is rationalized so that rho -> R loses no digits
    chord = (R - rho) * (R + rho)  # R^2 - rho^2 without cancellation

    def e(theta):
        bb = rho * np.cos(theta)
        root = np.sqrt(bb * bb + chord)
        return chord / (root + bb) if bb > 0 else root - bb

    layer = math.sqrt(R - rho)
    # layers of width sqrt(R - rho) at theta = 0 (the nearest point) and pi/2
    pts = [layer, 0.5 * np.pi - layer, 0.5 * np.pi, 0.5 * np.pi + layer]
    val, _ = integrate.quad(
        lambda th: e(th) ** -alpha, 0.0, np.pi, points=pts, limit=400, epsabs=0.0, epsrel=1e-13
    )
    return 2.0 * val / alpha


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_disk_killing_density_node_near_circle(alpha):
    # at this spacing one node lies 5e-5 h from the unit circle
    g = build_grid(DomainSpec.disk(1.0), 0.09269005847953217)
    radii = np.hypot(g.points[:, 0], g.points[:, 1])
    assert 1.0 - radii.max() < 6e-5 * g.h
    A = normalization_constant(2, alpha)
    kap = killing_density(g, alpha)
    for rho in np.unique(radii):
        oracle = A * _exit_distance_oracle(rho, 1.0, alpha)
        np.testing.assert_allclose(kap[radii == rho], oracle, rtol=1e-12, atol=0)


def _halfline_kernel_integral(s, m, alpha):
    """Integral of (s^2 + t^2)^(-(2+alpha)/2) over t in [m, inf) for m > 0.

    Evaluated through the regularized incomplete beta function; stable both
    for s >> m and for s -> 0.  Broadcasts over arrays s and m.
    """
    s = np.asarray(s, dtype=float)
    m = np.asarray(m, dtype=float)
    s, m = np.broadcast_arrays(s, m)
    b = 0.5 * (1.0 + alpha)
    out = np.where(s == 0.0, m ** (-1.0 - alpha) / (1.0 + alpha), 0.0)
    pos = s > 0.0
    sn = s[pos]
    mn = m[pos]
    x = sn * sn / (sn * sn + mn * mn)
    out[pos] = sn ** (-1.0 - alpha) * 0.5 * beta_fn(0.5, b) * betainc(b, 0.5, x)
    return out


def _box_complement_integral(points: np.ndarray, a: float, b: float, alpha: float) -> np.ndarray:
    """Integral of |x - y|^(-2 - alpha) over the complement of the box
    (-a, a) x (-b, b), for each interior point x.

    The complement splits into two full vertical half-planes (closed form)
    and two horizontal half-strips, each reduced to a 1-d quadrature of a
    smooth integrand whose inner integral is in closed form.
    """
    x1 = points[:, 0]
    x2 = points[:, 1]
    full_line = math.sqrt(math.pi) * math.gamma(0.5 * (1.0 + alpha)) / math.gamma(1.0 + 0.5 * alpha)
    sides = full_line / alpha * ((a - x1) ** -alpha + (a + x1) ** -alpha)

    def strip(margins):
        def f(y1):
            return _halfline_kernel_integral(np.abs(y1 - x1[:, None]), margins[:, None], alpha)

        return _gauss_kronrod(f, [-a, a], epsabs=1e-13, epsrel=1e-10)

    return sides + strip(b - x2) + strip(b + x2)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_rectangle_killing_density_vs_betainc_oracle(alpha):
    # every node of the box, against the half-planes-plus-half-strips form
    g = build_grid(DomainSpec.rectangle(1.0, 0.56), 0.05)
    oracle = normalization_constant(2, alpha) * _box_complement_integral(g.points, 1.0, 0.56, alpha)
    np.testing.assert_allclose(killing_density(g, alpha), oracle, rtol=1e-14, atol=0)


def _quad_vec_disk(radii, R, alpha):
    # the scipy quad_vec form of _disk_complement_integral, kept as its oracle
    gap = R - radii
    chord = gap * (R + radii)
    scale = gap ** alpha

    def f(theta):
        c = np.cos(theta)
        b = radii * c
        root = np.sqrt(chord + b * b)
        e = chord / (root + b) if c > 0.0 else root - b
        return scale * e ** -alpha

    val, _ = integrate.quad_vec(
        f, 0.0, np.pi, epsabs=0.0, epsrel=1e-13, norm="max", points=[0.5 * np.pi]
    )
    return (2.0 / alpha) * val / scale


def _quad_vec_box(points, a, b, alpha):
    # _box_complement_integral under scipy's quad_vec, a second oracle
    x1, x2 = points[:, 0], points[:, 1]
    full_line = np.sqrt(np.pi) * gamma(0.5 * (1.0 + alpha)) / gamma(1.0 + 0.5 * alpha)
    sides = full_line / alpha * ((a - x1) ** -alpha + (a + x1) ** -alpha)

    def strip(margins):
        def f(y1):
            return _halfline_kernel_integral(np.abs(y1 - x1), margins, alpha)

        return integrate.quad_vec(f, -a, a, epsabs=1e-13, epsrel=1e-10)[0]

    return sides + strip(b - x2) + strip(b + x2)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("h", [1 / 12, 1 / 16, 1 / 24, 0.09269005847953217])
def test_disk_gauss_kronrod_vs_quad_vec(h, alpha):
    # the distinct node radii, as killing_density integrates them
    g = build_grid(DomainSpec.disk(1.0), h)
    radii = np.hypot(g.points[:, 0], g.points[:, 1])
    radii = radii[np.unique(np.round(radii, 12), return_index=True)[1]]
    mine = _disk_complement_integral(radii, 1.0, alpha)
    np.testing.assert_allclose(mine, _quad_vec_disk(radii, 1.0, alpha), rtol=1e-14, atol=0)


def test_rectangle_gauss_kronrod_vs_quad_vec():
    g = build_grid(DomainSpec.rectangle(1.0, 0.56), 0.05)
    folded = np.unique(np.round(np.abs(g.points), 12), axis=0)
    mine = _rectangle_complement_integral(folded, 1.0, 0.56, 0.8)
    np.testing.assert_allclose(mine, _quad_vec_box(folded, 1.0, 0.56, 0.8), rtol=1e-13, atol=0)


@pytest.mark.parametrize(
    "f",
    [
        lambda t: np.full((2, t.size), np.nan),  # not a number
        lambda t: np.abs(t)[None] ** -1.5,  # not integrable across 0
        lambda t: np.sin(1.0 / t)[None],  # needs more than QUAD_LIMIT intervals
    ],
    ids=["nan", "nonintegrable", "oscillating"],
)
def test_gauss_kronrod_raises_instead_of_spinning(f):
    start = time.perf_counter()
    with pytest.raises(ConvergenceFailure, match="intervals"), np.errstate(all="ignore"):
        _gauss_kronrod(f, [-1.0, 2.0], epsrel=1e-10)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_rectangle_killing_density_vs_all_nodes(alpha):
    # oracle: the box integral evaluated at every node, without folding
    dom = DomainSpec.rectangle(1.0, 0.5)
    g = build_grid(dom, 1 / 12)
    oracle = normalization_constant(2, alpha) * _rectangle_complement_integral(g.points, 1.0, 0.5, alpha)
    np.testing.assert_allclose(killing_density(g, alpha), oracle, rtol=1e-12, atol=0)


def test_operator_single_node_is_kappa():
    g = build_grid(DomainSpec.interval(1.0), 1.5)
    assert g.n == 1
    op = assemble_operator(g, 0.5)
    assert op.entries.shape == (1,) and op.diagonal.shape == (1,)
    assert op.diagonal[0] == pytest.approx(op.kappa[0], rel=1e-15)


def _dense(op):
    """L in node order, bit for bit: the trivial group's fold by a vector no
    mirror fixes, sorted by it, on a copy of op that has no fold cached."""
    return replace(op).fold(np.arange(op.n, dtype=float))[1]


def _fold_of(L, orbits):
    """The fold of a dense L by an orbit table, in fold's arithmetic: the
    identity term with s_r L_rr on its diagonal, the other rows' terms added
    in row order, the sum added to its transpose and scaled by 0.5 /
    sqrt(s_r s_t).  On a table of free orbits it is the plain sum over the
    rows of L's columns."""
    s = stabilizers(orbits)
    off = L - np.diag(np.diag(L))
    block = off[np.ix_(orbits[0], orbits[0])]
    np.fill_diagonal(block, s * np.diag(L)[orbits[0]])
    for row in orbits[1:]:
        block += off[np.ix_(orbits[0], row)]
    return (block + block.T) * (0.5 / np.sqrt(np.outer(s, s)))


def test_operator_structure(interval_op):
    E = _dense(interval_op)
    assert np.max(np.abs(E - E.T)) == 0.0
    off = E - np.diag(np.diag(E))
    assert np.max(off) <= 0.0
    np.testing.assert_allclose(E.sum(axis=1), interval_op.kappa, rtol=0, atol=1e-12)
    assert np.all(np.diag(E) > 0)
    assert np.linalg.eigvalsh(E)[0] > 0
    assert np.all(interval_op.kappa > 0)


def _pairwise_assembly(grid, alpha):
    # oracle: the kernel at every pairwise coordinate difference x_i - x_j
    d = grid.dimension
    pts = grid.points
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    with np.errstate(divide="ignore"):
        w = normalization_constant(d, alpha) * grid.cell_volume * dist ** -(d + alpha)
    np.fill_diagonal(w, 0.0)
    entries = -w
    np.fill_diagonal(entries, w.sum(axis=1) + killing_density(grid, alpha))
    return entries


@pytest.mark.parametrize(
    "dom,h,alpha", [(DomainSpec.interval(1.0), 1 / 256, 0.5), (DomainSpec.disk(1.0), 1 / 16, 1.0)]
)
def test_offset_gather_matches_pairwise_oracle_on_dyadic_grids(dom, h, alpha):
    # h a power of two: h |i - j| and x_i - x_j are the same floats
    g = build_grid(dom, h)
    op = assemble_operator(g, alpha)
    oracle = _pairwise_assembly(g, alpha)
    assert len(op.orbits) == (8 if dom.kind == "disk" else 2)  # the disk's square group
    E = _dense(op)
    assert np.array_equal(E[op.orbits[0]], oracle[op.orbits[0]])
    assert np.array_equal(op.diagonal, np.diag(E))
    off = ~np.eye(op.n, dtype=bool)
    assert np.array_equal(E[off], oracle[off])
    assert np.array_equal(E, E.T)
    # every node of an orbit carries its representative's diagonal; the
    # oracle sums each row on its own and differs in the last bits
    diagonal = np.diag(E)
    assert all(np.array_equal(diagonal[nodes], diagonal[op.orbits[0]]) for nodes in op.orbits)


@pytest.mark.parametrize(
    "dom,h,alpha",
    [
        (DomainSpec.disk(1.0), 1 / 24, 1.0),
        (DomainSpec.interval(1.0), 0.03, 0.5),  # no mirror
        (DomainSpec.rectangle(1.0, 0.56), 0.05, 1.0),  # 2 b / h is not whole: the x mirror only
    ],
)
def test_offset_gather_matches_pairwise_oracle(dom, h, alpha):
    # the oracle rounds x_i - x_j, which moves its nearest-neighbour entries
    # by up to about 1.1e-14 relative; against the largest entry both agree
    # to 1e-14
    g = build_grid(dom, h)
    op = assemble_operator(g, alpha)
    assert op.entries.shape == tuple(g.lattice.max(axis=0) + 1) and op.diagonal.shape == (g.n,)
    E = _dense(op)
    oracle = _pairwise_assembly(g, alpha)
    assert np.max(np.abs(E - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    assert np.array_equal(E, E.T)


@pytest.mark.parametrize("dom, h", [(DomainSpec.disk(1.0), 1 / 24),
                                    (DomainSpec.rectangle(1.0, 0.56), 0.05),
                                    (DomainSpec.interval(1.0), 0.03),
                                    (DomainSpec.interval(1.0), 1.5)])  # one node
def test_mirrored_table_reflects_the_offset_table(dom, h):
    # S[s - 1 + k] = entries[|k|], and c_i - c_j + centre is the flat cell of
    # the offset lattice_i - lattice_j
    g = build_grid(dom, h)
    op = assemble_operator(g, 1.0 if g.dimension == 2 else 0.5)
    table, index = op.mirrored
    s = np.array(op.entries.shape)
    assert table.shape == tuple(2 * s - 1) and not table.flags.writeable
    k = np.argwhere(np.ones(table.shape, dtype=bool))
    assert np.array_equal(table[tuple(k.T)], op.entries[tuple(np.abs(k - (s - 1)).T)])
    assert np.array_equal(np.stack(np.unravel_index(index, table.shape), axis=1), g.lattice)
    assert table.size // 2 == np.ravel_multi_index(tuple(s - 1), table.shape)


def _chunked_pairwise_product(grid, alpha, F, chunk=256):
    """Oracle: F @ L.T with L's rows built from x_i - x_j, chunk rows at a
    time, so no n x n array is made."""
    d = grid.dimension
    pts = grid.points
    kappa = killing_density(grid, alpha)
    out = np.empty(F.shape)
    for start in range(0, grid.n, chunk):
        rows = np.arange(start, min(start + chunk, grid.n))
        diff = pts[rows, None, :] - pts[None, :, :]
        with np.errstate(divide="ignore"):
            w = normalization_constant(d, alpha) * grid.cell_volume * np.sqrt(np.sum(diff * diff, axis=-1)) ** -(d + alpha)
        w[np.arange(len(rows)), rows] = 0.0
        L = -w
        L[np.arange(len(rows)), rows] = w.sum(axis=1) + kappa[rows]
        out[..., rows] = F @ L.T
    return out


@pytest.mark.parametrize(
    "dom,h,alpha",
    [
        (DomainSpec.interval(1.0), 1 / 2048, 0.5),  # n = 4096
        (DomainSpec.interval(1.0), 0.03, 0.5),  # no mirror
        (DomainSpec.disk(1.0), 1 / 24, 1.0),
        (DomainSpec.rectangle(1.0, 0.56), 0.05, 1.0),
    ],
)
def test_apply_matches_row_chunked_pairwise_oracle(dom, h, alpha):
    # FFT products on the doubled lattice box, against the rows: asymmetric
    # batches, single vectors and a vector every mirror fixes
    g = build_grid(dom, h)
    op = assemble_operator(g, alpha)
    F = np.random.default_rng(8).standard_normal((5, g.n))
    F[4] = np.exp(-np.sum(g.points ** 2, axis=1))
    want = _chunked_pairwise_product(g, alpha, F)
    assert np.max(np.abs(op.apply(F) - want)) <= 1e-14 * np.max(np.abs(want))
    for row in (2, 4):
        assert np.max(np.abs(op.apply(F[row]) - want[row])) <= 1e-14 * np.max(np.abs(want[row]))


@pytest.mark.parametrize(
    "dom,h,alpha", [(DomainSpec.interval(1.0), 1 / 256, 0.5), (DomainSpec.disk(1.0), 1 / 16, 1.0)]
)
def test_apply_takes_one_product_per_distinct_permuted_input(dom, h, alpha, monkeypatch):
    # one FFT product per row, each its own transform of one vector,
    # whichever mirrors fix the input: all, none, or (on the disk) one of the two
    g = build_grid(dom, h)
    op = assemble_operator(g, alpha)
    products = []  # the batch shape of each inverse FFT
    inverse = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn", lambda *a, **kw: products.append(a[0].shape[:-g.dimension])
                        or inverse(*a, **kw))
    rng = np.random.default_rng(10)
    x = g.points[:, 0]
    invariant = np.exp(-np.sum(g.points ** 2, axis=1))  # every mirror fixes it
    cases = [invariant, rng.standard_normal(g.n), rng.standard_normal((10, g.n)), np.stack([invariant] * 3)]
    if g.dimension == 2:  # fixed by the mirror of one axis only
        cases.append(1.0 + x * x + 0.1 * g.points[:, 1])
    for F in cases:
        products.clear()
        assert op.apply(F).shape == F.shape
        assert products == [()] * (F.size // g.n)
    monkeypatch.undo()
    for F in cases:  # the same bits as the whole batch in one transform
        assert np.array_equal(op.apply(F), _batched_product(op, F))


def _batched_product(op, F):
    """L F with the batch of F in one transform on the doubled box."""
    box, where, kernel = op._fft
    axes = tuple(range(-len(box), 0))
    padded = np.zeros(F.shape[:-1] + (math.prod(box),))
    padded[..., where] = F
    spectrum = np.fft.rfftn(padded.reshape(F.shape[:-1] + box), axes=axes) * kernel
    conv = np.fft.irfftn(spectrum, s=box, axes=axes).reshape(F.shape[:-1] + (-1,))
    return conv[..., where] + op.diagonal * F


@pytest.mark.parametrize("axis", [0, 1])
def test_subgroup_block_matches_pairwise_oracle_fold(axis):
    # V fixed by the mirror of one axis only: the block of that subgroup
    # gathers its representatives' rows from the table
    g = build_grid(DomainSpec.disk(1.0), 1 / 16)
    op = assemble_operator(g, 1.0)
    V = 1.0 + 0.1 * g.points[:, 1 - axis] + 0.2 * g.points[:, axis] ** 2
    orbits, block = op.fold(V)
    assert len(orbits) == 2 and len(op.orbits) == 8
    L = _dense(op)
    assert np.array_equal(block, sum(L[np.ix_(orbits[0], row)] for row in orbits))
    # the dyadic oracle differs only in the diagonals of non-representatives
    want = sum(_pairwise_assembly(g, 1.0)[np.ix_(orbits[0], row)] for row in orbits)
    off = ~np.eye(len(block), dtype=bool)
    assert np.array_equal(block[off], want[off])
    np.testing.assert_allclose(np.diag(block), np.diag(want), rtol=2e-15, atol=0)


@pytest.mark.parametrize("dom, h, alpha", [(DomainSpec.interval(1.0), 1 / 64, 0.5),
                                            (DomainSpec.disk(1.0), 1 / 16, 1.0),
                                            (DomainSpec.interval(1.0), 0.03, 0.5)])  # no mirror
def test_fold_orders_its_table_by_the_first_vector(dom, h, alpha):
    # a fresh fold's table is orbit_table's, its columns in stable order of
    # the first vector on the representatives, and its block is the fold in
    # that order; the second vector chooses the subgroup, not the order.
    # The trivial group is sorted too, on a grid with mirrors or without
    g = build_grid(dom, h)
    radius = np.linalg.norm(g.points, axis=1)
    for V, u in ((np.exp(-radius), np.ones(g.n)), (np.round(radius, 1), np.ones(g.n)),
                 (np.zeros(g.n), np.ones(g.n)), (np.exp(-radius), 1.0 + 0.1 * g.points[:, 0])):
        op = assemble_operator(g, alpha)
        orbits, block = op.fold(V, u)
        mirrors = [m for m in g.mirrors if np.array_equal(V[m], V) and np.array_equal(u[m], u)]
        table = orbit_table(g.n, mirrors)
        order = np.argsort(V[table[0]], kind="stable")
        assert np.array_equal(orbits, table[:, order])
        assert np.all(np.diff(V[orbits[0]]) >= 0)
        L = _dense(op)
        assert np.array_equal(block, _fold_of(L, orbits))
        if np.all(stabilizers(orbits) == 1):
            assert np.array_equal(block, sum(L[np.ix_(orbits[0], row)] for row in orbits))
        assert op.fold(np.ones(g.n), u)[0] is orbits  # cached in the first call's order


def _pairwise_lattice_oracle(grid, alpha):
    """Oracle: L built pair by pair from the kernel at h |lattice_i -
    lattice_j|, each diagonal the row sum of its orbit's representative in
    node order plus kappa, the sum every node of the orbit carries."""
    d = grid.dimension
    lattice = grid.lattice.astype(float)
    squares = np.sum((lattice[:, None, :] - lattice[None, :, :]) ** 2, axis=-1)
    with np.errstate(divide="ignore"):
        L = -normalization_constant(d, alpha) * grid.cell_volume * (grid.h * np.sqrt(squares)) ** -(d + alpha)
    np.fill_diagonal(L, 0.0)
    orbits = orbit_table(grid.n, grid.mirrors)
    diagonal = np.empty(grid.n)
    diagonal[orbits] = killing_density(grid, alpha)[orbits[0]] - L[orbits[0]].sum(axis=1)
    np.fill_diagonal(L, diagonal)
    return L


@pytest.mark.parametrize("dom, h, alpha", [(DomainSpec.interval(1.0), 1 / 64, 0.5),
                                            (DomainSpec.interval(1.0), 0.03, 0.5),  # no mirror
                                            (DomainSpec.disk(1.0), 1 / 16, 1.0)])
def test_every_fold_matches_the_pairwise_oracle_bit_for_bit(dom, h, alpha):
    # the whole group, one axis mirror's subgroup and the diagonal mirror's
    # (on the disk), and the trivial group: each block is the oracle's fold
    # over the op's sorted table
    g = build_grid(dom, h)
    oracle = _pairwise_lattice_oracle(g, alpha)
    x, r = g.points[:, 0], np.linalg.norm(g.points, axis=1)
    vectors = [np.exp(-r), np.arange(g.n, dtype=float)]
    if g.dimension == 2:
        vectors += [1.0 + 0.1 * g.points[:, 1] + x * x, 1.0 + 0.1 * (x + g.points[:, 1])]
    orders = []
    for V in vectors:
        orbits, block = assemble_operator(g, alpha).fold(V)
        mirrors = [m for m in g.mirrors if np.array_equal(V[m], V)]
        table = orbit_table(g.n, mirrors)
        assert np.array_equal(orbits, table[:, np.argsort(V[table[0]], kind="stable")])
        assert np.array_equal(block, _fold_of(oracle, orbits))
        assert np.array_equal(block, block.T)
        orders.append(len(orbits))
    assert orders == ([8, 1, 2, 2] if g.dimension == 2 else [len(g.mirrors) + 1, 1])


@pytest.mark.parametrize("dom, h", [(DomainSpec.disk(1.0), 1 / 16), (DomainSpec.rectangle(1.0, 1.0), 1 / 12)])
def test_weighted_fold_acts_as_L_on_every_subgroup(dom, h):
    # a random vector constant on the orbits of a subgroup, and fixed by no
    # other mirror, folds by that subgroup; its folded unknowns u / sqrt(s),
    # multiplied by the block and mapped back by sqrt(s), are L u at the
    # representatives.  The subgroups are those closed under composition:
    # an axis mirror and the diagonal one give the other axis mirror too
    g = build_grid(dom, h)
    op = assemble_operator(g, 1.0)
    assert len(g.mirrors) == 3
    rng = np.random.default_rng(12)
    for key in [(), (0,), (1,), (0, 1), (2,), (0, 1, 2)]:
        table = orbit_table(g.n, [g.mirrors[i] for i in key])
        u = np.empty(g.n)
        u[table] = rng.uniform(0.5, 1.5, table.shape[1])
        orbits, block = op.fold(u)
        assert len(orbits) == 2 ** len(key)
        assert np.array_equal(np.sort(orbits[0]), np.sort(table[0]))
        root = np.sqrt(stabilizers(orbits))
        assert np.any(root > 1) == (2 in key)  # the diagonal mirror fixes nodes
        got = root * (block @ (u[orbits[0]] / root))
        want = op.apply(u)[orbits[0]]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        off = block[~np.eye(len(block), dtype=bool)]
        assert np.array_equal(block, block.T) and np.all(off <= 0.0)


@pytest.mark.parametrize("dom, h", [(DomainSpec.interval(1.0), 1 / 256),
                                    (DomainSpec.interval(1.0), 0.03),
                                    (DomainSpec.disk(1.0), 1 / 24)])
def test_operator_holds_no_array_of_its_representatives_rows(dom, h):
    # the offset table and the diagonal, not n / 2^m rows of n entries;
    # products and folds add only vectors, the table's spectrum and blocks
    g = build_grid(dom, h)
    op = assemble_operator(g, 0.5 if g.dimension == 1 else 1.0)
    rows = g.n // 2 ** len(g.mirrors) * g.n

    def arrays():
        held = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
        held += [v for t in vars(op).values() if isinstance(t, tuple) for v in t if isinstance(v, np.ndarray)]
        return held

    assert all(a.size < rows for a in arrays())
    op.apply(np.random.default_rng(1).standard_normal((2, g.n)))
    assert all(a.size < rows for a in arrays())


def test_assembly_peak_memory():
    # the offset table and 64 gathered rows at a time, not the
    # representatives' rows, the whole matrix or an n^2 x d difference array
    g = build_grid(DomainSpec.disk(1.0), 1 / 24)
    tracemalloc.start()
    try:
        assemble_operator(g, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * g.n ** 2 / 2 ** len(g.mirrors)


def test_operator_size_cap():
    g = build_grid(DomainSpec.interval(1.0), 2.0 / 8200.0)
    assert g.n > 8192
    with pytest.raises(AllocationError):
        assemble_operator(g, 0.5)


def test_smallest_eigenvalue_refinement_fixture():
    alpha = 0.5
    lams = []
    for h in [1 / 64, 1 / 128, 1 / 256]:
        op = assemble_operator(build_grid(DomainSpec.interval(1.0), h), alpha)
        lams.append(spectral_bottom(op).lambda0)
    diffs = [abs(b - a) for a, b in zip(lams, lams[1:])]
    assert diffs[1] < diffs[0]
    assert lams[-1] == pytest.approx(LAMBDA0_FREE_H256, rel=1e-9)


def test_form_clamp_contraction(interval_op):
    rng = np.random.default_rng(3)
    for _ in range(100):
        f = rng.standard_normal(interval_op.n) * rng.uniform(0.5, 2.0)
        g = np.minimum(f, 1.0)
        vol = interval_op.cell_volume
        assert vol * g @ interval_op.apply(g) <= vol * f @ interval_op.apply(f) + 1e-12


def test_domain_monotonicity_1d():
    # enlarging the domain on an aligned lattice does not increase the bottom
    h = 1.0 / 16.0
    small = assemble_operator(build_grid(DomainSpec.interval(1.0), h), 0.5)
    big = assemble_operator(build_grid(DomainSpec.interval(1.0 + 4 * h), h), 0.5)
    assert spectral_bottom(big).lambda0 <= spectral_bottom(small).lambda0


def test_fourier_convention_gaussian():
    # E of exp(-x^2/2) equals Gamma((alpha+1)/2) for the unitary transform
    alpha = 0.5
    E = _fourier_energy(lambda x: np.exp(-x * x / 2.0), DomainSpec.interval(8.0), alpha, 2 ** 16)
    assert E == pytest.approx(gamma((alpha + 1) / 2.0), rel=1e-4)


def test_fourier_form_check_windowed_gaussian():
    alpha = 0.5
    f = lambda x: np.exp(-8.0 * x * x) * (np.abs(x) < 1.0)
    gaps = []
    for h in [1 / 64, 1 / 128]:
        g = build_grid(DomainSpec.interval(1.0), h)
        ed, ef = fourier_form_check(f, alpha, g)
        gaps.append(abs(ed - ef) / ef)
    assert gaps[1] < gaps[0] < 0.02


def test_fourier_form_check_trivial_cases(interval_grid):
    zero = lambda x: np.zeros_like(x)
    ed, ef = fourier_form_check(zero, 0.5, interval_grid)
    assert ed == 0.0 and ef == 0.0

    f = lambda x: np.exp(-8.0 * x * x) * (np.abs(x) < 1.0)
    f2 = lambda x: 2.0 * f(x)
    e1 = fourier_form_check(f, 0.5, interval_grid)
    e2 = fourier_form_check(f2, 0.5, interval_grid)
    assert e2[0] == pytest.approx(4.0 * e1[0], rel=1e-12)
    assert e2[1] == pytest.approx(4.0 * e1[1], rel=1e-12)


def test_fourier_form_check_rejects_leaky_support(interval_grid):
    with pytest.raises(UnsupportedFunction):
        fourier_form_check(lambda x: np.sin(x), 0.5, interval_grid)
