"""Oracles and builders that only the tests call: the Fourier-side form
energy of a test function, the weak-form residual of a trajectory, a
trajectory's states unfolded all at once, and a mesh level or the probe's
balls built from a domain, as a config parse builds them.  No run
executes them, so they live here and not in the package."""

import numpy as np

from fracheat import DomainSpec, Grid, Trajectory, assemble_operator, build_grid, sample_potential
from fracheat.assembly import check_order
from fracheat.diagnostics import ball_meshes
from fracheat.errors import FracheatError
from fracheat.spectral import MeshLevel


def unfolded_states(traj: Trajectory) -> np.ndarray:
    """Every stored state of the trajectory carried over to all n nodes: a
    new read-only (len(times), n) array."""
    return traj.unfold(traj.rep_states)


def mesh_level(domain: DomainSpec, alpha: float, potential, h: float) -> MeshLevel:
    """The MeshLevel of domain at spacing h: its grid, operator and sampled
    potential."""
    grid = build_grid(domain, h)
    return MeshLevel(assemble_operator(grid, alpha), sample_potential(potential, grid, alpha), potential.epsilon)


def probe_balls(domain: DomainSpec, alpha: float, potential, radii, h: float) -> list:
    """(grid, sampled potential) of each ball the shrinking-ball probe
    solves for radii at spacing h (diagnostics.ball_meshes)."""
    grids = [build_grid(ball, spacing) for ball, spacing in ball_meshes(domain, radii, h, potential.kind)]
    return [(grid, sample_potential(potential, grid, alpha)) for grid in grids]


class UnsupportedFunction(FracheatError):
    """Test function cannot be represented on the grid (support leaks outside)."""


def _eval_on_points(f, points: np.ndarray) -> np.ndarray:
    if points.shape[1] == 1:
        vals = f(points[:, 0])
    else:
        vals = f(points[:, 0], points[:, 1])
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (points.shape[0],):
        raise UnsupportedFunction("test function must return one value per point")
    if not np.all(np.isfinite(vals)):
        raise UnsupportedFunction("test function returned non-finite values on the grid")
    return vals


def _check_supported_inside(f, domain: DomainSpec) -> None:
    """Sample f on a collar outside the domain; nonzero values mean the
    function is not representable by a grid that vanishes off the domain."""
    halves = domain.half_widths
    if domain.dimension == 1:
        R = halves[0]
        xs = np.concatenate([np.linspace(-2.0 * R, -R, 257), np.linspace(R, 2.0 * R, 257)])
        pts = xs[:, None]
    else:
        a, b = halves
        g1 = np.linspace(-2.0 * a, 2.0 * a, 65)
        g2 = np.linspace(-2.0 * b, 2.0 * b, 65)
        xx, yy = np.meshgrid(g1, g2, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        pts = pts[~domain.contains(pts)]
    vals = _eval_on_points(f, pts)
    if np.max(np.abs(vals)) > 1e-10:
        raise UnsupportedFunction(
            "test function does not vanish outside the domain; the grid encodes "
            "a zero exterior condition"
        )


def _fourier_energy(f, domain: DomainSpec, alpha: float, modes: int) -> float:
    """Energy integral of |xi|^alpha |fhat(xi)|^2 with the unitary transform,
    by FFT quadrature on a wide padded window.

    In d = 1 the weight |xi|^alpha is integrated exactly over each frequency
    cell (its kink at zero would otherwise dominate the quadrature error);
    the smooth |fhat|^2 factor is evaluated at cell centers.
    """
    d = domain.dimension
    if d == 1:
        T = 32.0 * domain.half_widths[0]
        dx = 2.0 * T / modes
        x = -T + dx * np.arange(modes)
        F = np.fft.fft(f(x)) * dx
        xi = 2.0 * np.pi * np.fft.fftfreq(modes, d=dx)
        dxi = np.pi / T

        def wprim(s):
            return np.sign(s) * np.abs(s) ** (1.0 + alpha) / (1.0 + alpha)

        weights = wprim(xi + 0.5 * dxi) - wprim(xi - 0.5 * dxi)
        return float(np.sum(weights * np.abs(F) ** 2) / (2.0 * np.pi))
    a, b = domain.half_widths
    Ta, Tb = 8.0 * a, 8.0 * b
    dx = 2.0 * Ta / modes
    dy = 2.0 * Tb / modes
    x = -Ta + dx * np.arange(modes)
    y = -Tb + dy * np.arange(modes)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    F = np.fft.fft2(f(xx, yy)) * dx * dy
    xi1 = 2.0 * np.pi * np.fft.fftfreq(modes, d=dx)
    xi2 = 2.0 * np.pi * np.fft.fftfreq(modes, d=dy)
    mag = np.hypot(*np.meshgrid(xi1, xi2, indexing="ij"))
    dxi = (np.pi / Ta) * (np.pi / Tb)
    return float(np.sum(mag ** alpha * np.abs(F) ** 2) * dxi / (2.0 * np.pi) ** 2)


def fourier_form_check(f, alpha: float, grid: Grid, modes: int | None = None):
    """Compare the discrete form energy of f with the Fourier-side energy.

    Returns (E_discrete, E_fourier).  E_discrete is the quadratic form of the
    assembled operator applied to f sampled at the nodes; E_fourier is the
    integral of |xi|^alpha |fhat(xi)|^2 (unitary transform) by FFT quadrature,
    2^16 modes in d = 1 and 2^10 per axis in d = 2.  f must vanish outside the
    grid's domain (UnsupportedFunction otherwise); call as f(x) in d = 1 and
    f(x, y) in d = 2, vectorized.
    """
    d = grid.dimension
    check_order(d, alpha)
    _check_supported_inside(f, grid.domain)
    vals = _eval_on_points(f, grid.points)
    op = assemble_operator(grid, alpha)
    e_discrete = float(grid.cell_volume * vals @ op.apply(vals))
    if modes is None:
        modes = 2 ** 16 if d == 1 else 2 ** 10
    e_fourier = _fourier_energy(f, grid.domain, alpha, modes)
    return e_discrete, e_fourier


def variational_residual(traj: Trajectory, phi, phi_t=None) -> float:
    """Defect of the discrete weak-solution identity of the trajectory's
    problem against a space-time test function.

    phi(t, points) -> (n,) values at the nodes, called once per stored time;
    phi_t is its time derivative, approximated by centered differences on the
    stored time grid when omitted.  The defect gathers the boundary terms,
    the trapezoidal time quadrature of <u, -phi_t + L phi> h^d and of
    <u phi V> h^d, and returns their absolute mismatch.  It vanishes at the
    order of the time discretization.
    """
    M, times = traj.operator, traj.times
    phis = np.stack([np.asarray(phi(t, traj.grid.points), dtype=float) for t in times])
    if phi_t is not None:
        dphis = np.stack([np.asarray(phi_t(t, traj.grid.points), dtype=float) for t in times])
    else:
        dphis = np.gradient(phis, traj.dt, axis=0)
    vol, states = M.cell_volume, unfolded_states(traj)
    integrand = vol * np.sum(states * (M.apply(phis) - dphis), axis=1)
    source = vol * np.sum(states * phis * traj.potential, axis=1)
    boundary = vol * (np.dot(states[-1], phis[-1]) - np.dot(states[0], phis[0]))
    lhs = boundary + np.trapezoid(integrand, times)
    rhs = np.trapezoid(source, times)
    return float(abs(lhs - rhs))
