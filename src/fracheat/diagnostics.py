"""Certificates for the discrete inequalities and the existence/blow-up classifier.

Each certificate packages one checkable inequality: the left and right sides
actually computed, the tolerance used, whether it held, and the slack
rhs - lhs.  The classifier weighs a spectral refinement series against the
growth of the evolved trajectories and returns EXISTS, BLOW_UP or
INCONCLUSIVE; near-critical configurations are expected to land in the
inconclusive band at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _hashes as hashlib  # the benchmark's tracer replaces this attribute
from .assembly import OperatorMatrix, assemble_operator
from .errors import BallTooSmall, DimensionMismatch, DomainError, InsufficientEvidence, NonpositiveState
from .geometry import DomainSpec, boundary_distance
from .potentials import PotentialSpec
from .spectral import MeshLevel, SpectralSeries, spectral_bottom
from .evolution import ImplicitStepper, Trajectory, evolve

EXISTS = "EXISTS"
BLOW_UP = "BLOW_UP"
INCONCLUSIVE = "INCONCLUSIVE"

MIN_MESH_LEVELS = 3  # refinements the classifier needs to tell a trend
MIN_BALLS = 3  # radii in the shortest window the shrinking-ball probe fits
MIN_BALL_NODES = 8  # nodes the probe needs on a ball it solves
ENERGY_TOL = 1e-12  # rounding allowance of the energy inequality
SOLVER_TOL = 1e-7  # relative solver slack of the exponential bound
# potentials singular at an interior point, the probe's center, or bounded
BALL_PROBE_KINDS = ("hardy_interior", "bounded")


def _digest(*parts) -> str:
    # Only sha256(), update and hexdigest: the benchmark's tracer stands in
    # for hashlib with exactly these.  An array enters as the hex SHA-256 of
    # its bytes, anything else as its repr.
    hasher = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            inner = hashlib.sha256()
            inner.update(np.ascontiguousarray(p))
            hasher.update(inner.hexdigest().encode())
        else:
            hasher.update(repr(p).encode())
    return hasher.hexdigest()[:16]


@dataclass(frozen=True)
class Certificate:
    """One checked inequality: satisfied iff lhs <= rhs + tolerance.

    inputs_digest is the SHA-256 prefix of what the certificate was computed
    from, hashed when the certificate is made."""

    name: str
    lhs: float
    rhs: float
    tolerance: float
    satisfied: bool
    slack: float
    inputs_digest: str
    details: dict = field(default_factory=dict)


def _make_certificate(name, inputs, lhs, rhs, tolerance, satisfied=None, **details) -> Certificate:
    lhs = float(lhs)
    rhs = float(rhs)
    if satisfied is None:
        satisfied = lhs <= rhs + tolerance
    return Certificate(
        name=name,
        lhs=lhs,
        rhs=rhs,
        tolerance=float(tolerance),
        satisfied=bool(satisfied),
        slack=rhs - lhs,
        inputs_digest=_digest(*inputs),
        details=details,
    )


def energy_inequality_certificate(M: OperatorMatrix, u, phi) -> Certificate:
    """Form energy of phi dominates the cross form of (u, phi^2 / u).

    u and phi are one pair of vectors of length n (DimensionMismatch if
    not).  The quotient is set to zero off phi's support.  The inequality
    holds term by term in the discrete double sum, so the slack is
    nonnegative up to rounding for every admissible pair: u must be strictly
    positive on the support of phi and nonnegative elsewhere
    (NonpositiveState if not).
    """
    u = np.asarray(u, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if u.shape != (M.n,) or phi.shape != (M.n,):
        raise DimensionMismatch(f"u and phi must have shape ({M.n},), got {u.shape} and {phi.shape}")
    support = phi != 0.0
    if np.any(u[support] <= 0.0):
        raise NonpositiveState("u must be strictly positive on the support of phi")
    if np.any(u < 0.0):
        raise NonpositiveState("u must be nonnegative everywhere")
    quotient = np.zeros_like(u)
    quotient[support] = phi[support] ** 2 / u[support]
    Lu, Lphi = M.apply(np.stack((u, phi)))
    lhs = M.cell_volume * np.sum(quotient * Lu)
    rhs = M.cell_volume * np.sum(phi * Lphi)
    return _make_certificate(
        "energy_inequality", (M.entries, M.diagonal, u, phi), lhs, rhs, ENERGY_TOL
    )


def energy_inequality_all_pairs(M: OperatorMatrix) -> Certificate:
    """The energy inequality for every admissible pair, decided exactly: a
    pair's slack is the sum over i < j of (-L_ij) h^d u_i u_j (phi_i / u_i -
    phi_j / u_j)^2, so it holds for all pairs iff every off-diagonal L_ij <= 0.

    L_ij is the mirrored table's entry at the pair's offset, so the largest
    is the table's largest over the nonzero offsets some pair realizes: the
    support of the node indicator's autocorrelation, one rFFT pair on the
    table's box.  An entry no pair realizes, such as a disk box's corner, is
    not in L.  The witness is the first node with a partner at a largest
    offset and its lowest-numbered such partner, as a scan of every row
    would find, sought among the representatives only: an axis mirror keeps
    every offset up to sign per axis, and the diagonal mirror swaps the axes
    of a square box, under which the table and the realized offsets are
    symmetric; so the mirrors fix the set of such nodes, and the first node
    of an orbit is its representative.  The certificate is
    energy_inequality_certificate at u = e_i + e_j, phi = e_i - e_j (slack
    -4 L_ij h^d); satisfied iff L_ij <= 0, exactly."""
    table, lattice = M.mirrored[0], M.grid.lattice
    indicator = np.zeros(table.shape)
    indicator[tuple(lattice.T)] = 1.0
    spectrum = np.fft.rfftn(indicator)
    counts = np.fft.irfftn(spectrum.real ** 2 + spectrum.imag ** 2, s=table.shape, axes=tuple(range(table.ndim)))
    realized = np.fft.fftshift(counts) > 0.5  # offset 0 at the centre, as in the table
    realized.flat[table.size // 2] = False  # the diagonal
    i, j, value = 0, 0, -math.inf  # L has no off-diagonal when n = 1
    if realized.any():
        value = float(table[realized].max())
        # a node's partner at the offset of table cell k sits at lattice - k +
        # 2 (s - 1) in the lattice's box padded by s - 1 cells on every side
        pad = np.array(M.entries.shape) - 1
        node = np.full(table.shape + pad, M.n)
        node[tuple((lattice + pad).T)] = np.arange(M.n)
        reps = M.orbits[0]
        cells = lattice[reps, None] - np.argwhere(realized & (table == value)) + 2 * pad
        partner = node[tuple(cells.T)].min(axis=0)
        r = int(np.argmax(partner < M.n))
        i, j = int(reps[r]), int(partner[r])
    u = np.zeros(M.n)
    u[[i, j]] = 1.0
    phi = u.copy()
    phi[j] = -1.0
    return replace(
        energy_inequality_certificate(M, u, phi), name="energy_inequality_all_pairs",
        tolerance=0.0, satisfied=bool(value <= 0.0), details={"i": i, "j": j, "L_ij": value},
    )


def log_estimate_certificate(traj: Trajectory, Phi, t1: float, t2: float) -> Certificate:
    """Potential mass minus form energy of Phi is bounded by the averaged
    log-increment of the solution weighted by Phi^2, for the trajectory's
    operator and potential.

    Phi must be normalized in the discrete L2 norm; the trajectory must be
    strictly positive at t1 and t2 on Phi's support with 0 < t1 < t2.  The
    tolerance combines a rounding floor with a term proportional to dt, the
    time-discretization error scale.  Phi may also be a (phis, n) array,
    one test function per row; the certificate is then the row with the
    least slack, and that row is its Phi.  Each row's mass, lhs and rhs
    are reduced from that row alone, so the temporaries are one row's.
    """
    if not (0.0 < t1 < t2):
        raise ValueError(f"need 0 < t1 < t2, got t1={t1}, t2={t2}")
    M, vals = traj.operator, traj.potential
    Phi = np.atleast_2d(np.asarray(Phi, dtype=float))
    vol = M.cell_volume
    mass = np.empty(len(Phi))
    support = np.zeros(M.n, dtype=bool)
    for i, phi in enumerate(Phi):
        mass[i] = vol * np.sum(phi * phi)
        support |= phi != 0.0
    if np.any(np.abs(mass - 1.0) > 1e-8):
        raise ValueError(f"Phi must have unit discrete L2 mass, got {mass}")
    u1, u2 = traj.state_at(t1), traj.state_at(t2)
    if np.any(u1[support] <= 0.0) or np.any(u2[support] <= 0.0):
        raise NonpositiveState("trajectory must be strictly positive on Phi's support")
    ratio = np.zeros(M.n)
    ratio[support] = np.log(u2[support] / u1[support])
    lhs, rhs = np.empty(len(Phi)), np.empty(len(Phi))
    for i, phi in enumerate(Phi):
        lhs[i] = vol * np.sum(phi * phi * vals) - vol * np.sum(phi * M.apply(phi))
        rhs[i] = vol * np.sum(ratio * phi * phi) / (t2 - t1)
    worst = int(np.argmin(rhs - lhs))
    lhs, rhs = lhs[worst], rhs[worst]
    scale = 1.0 + abs(lhs) + abs(rhs)
    tolerance = 1e-9 * scale + traj.dt * scale
    return _make_certificate(
        "log_estimate",
        (M.entries, M.diagonal, u1, u2, Phi[worst], vals, t1, t2),
        lhs,
        rhs,
        tolerance,
        t1=t1,
        t2=t2,
        dt=traj.dt,
    )


def exponential_bound_certificate(traj: Trajectory, lambda0: float) -> Certificate:
    """Discrete exponential bound ||u(t_n)|| <= ||u0|| (1 + dt lambda0)^-n.

    lambda0 is the spectral bottom of the operator minus the potential the
    trajectory was evolved with.  lhs is the worst ratio over the stored
    times after t_0: the t_0 ratio is exactly 1 and would hide the margin,
    so only a single-state trajectory falls back to it.  rhs allows a
    multiplicative solver slack of 1 + 10 * SOLVER_TOL.
    """
    growth = 1.0 + traj.dt * lambda0
    if growth <= 0.0:
        raise ValueError("1 + dt * lambda0 must be positive under the step restriction")
    norms = traj.l2_norms
    base = norms[0]
    steps = np.arange(len(norms))
    with np.errstate(divide="ignore"):
        logs = np.where(norms > 0, np.log(norms / base) + steps * np.log(growth), -np.inf)
    lhs = float(np.exp(np.max(logs[1:] if len(logs) > 1 else logs)))
    rhs = 1.0 + 10.0 * SOLVER_TOL
    return _make_certificate(
        "exponential_bound",
        (norms, traj.dt, lambda0),
        lhs,
        rhs,
        0.0,
        lambda0=lambda0,
    )


def ground_state_comparability(free: ImplicitStepper, u0, t: float, ratio_bound: float = 25.0) -> Certificate:
    """Free evolution at time t is comparable to the ground state.

    Evolves u0 with free, a V = 0 stepper (ValueError for one with a
    potential), to time t, a multiple of its dt; reports r_min and r_max
    of the nodewise ratio against the L2-normalized ground vector of its
    operator, and checks r_max / r_min <= ratio_bound.  Also reports the
    minimum of ground / distance^(alpha/2), whose positivity reflects the
    boundary decay of the ground state; the certificate requires it to be
    positive.
    """
    if t <= 0:
        raise ValueError(f"comparability time must be positive, got {t}")
    if np.any(free.potential):
        raise ValueError("comparability needs a free stepper, one without a potential")
    M, dt = free.M, free.dt
    res = spectral_bottom(M, None)
    phi0 = res.eigvec / math.sqrt(M.cell_volume)  # unit discrete L2 norm, positive
    traj = evolve(free, u0, t)
    h_state = traj.unfold(traj.rep_states[-1])
    ratios = h_state / phi0
    r_min = float(np.min(ratios))
    r_max = float(np.max(ratios))
    delta = boundary_distance(M.grid)
    decay = float(np.min(phi0 / delta ** (M.alpha / 2.0)))
    lhs = r_max / r_min if r_min > 0 else math.inf
    return _make_certificate(
        "ground_state_comparability",
        (M.entries, M.diagonal, np.asarray(u0, dtype=float), t, dt),
        lhs,
        ratio_bound,
        0.0,
        satisfied=(lhs <= ratio_bound) and decay > 0.0,
        r_min=r_min,
        r_max=r_max,
        ground_over_distance=decay,
        t=t,
        dt=dt,
    )


def _ball_volume(r: float, d: int) -> float:
    return 2.0 * r if d == 1 else math.pi * r * r


def default_ball_schedule(domain: DomainSpec, h: float) -> list:
    """Radii inradius/2, inradius/4, ... while the ball's volume is at least
    8 h^d, i.e. while a ball at spacing h holds about eight nodes or more."""
    d = domain.dimension
    radii = []
    r = domain.inradius / 2.0
    while _ball_volume(r, d) >= 8.0 * h ** d:
        radii.append(r)
        r /= 2.0
    return radii


def _ball_spacing(r0: float, h: float) -> float:
    """r0 / m for the least whole m >= r0 / h, up to rounding."""
    return r0 / math.ceil(r0 / h * (1.0 - 8.0 * np.finfo(float).eps))


def _solved_balls(kind: str, count: int) -> int:
    """How many of count probe balls, largest first, the probe solves: the
    largest alone for hardy_interior, whose bottoms scale with the radius
    (shrinking_ball_certificate), every one for bounded."""
    return 1 if kind == "hardy_interior" else count


def ball_meshes(domain: DomainSpec, radii, h: float, kind: str) -> list:
    """(ball, spacing) of each probe ball the probe solves for a potential
    of the kind: B_r at h0 r / r0, h0 the _ball_spacing of the largest
    radius r0 at h."""
    h0 = _ball_spacing(radii[0], h)
    ball = DomainSpec.interval if domain.dimension == 1 else DomainSpec.disk
    return [(ball(r), h0 * r / radii[0]) for r in radii[: _solved_balls(kind, len(radii))]]


def shrinking_ball_certificate(
    balls,
    alpha: float,
    potential: PotentialSpec,
    ball_schedule,
    h: float,
) -> Certificate:
    """Divergence probe on balls shrinking toward the potential's interior
    singular point (the origin), for hardy_interior and bounded potentials.

    balls holds one (grid, sampled potential) per ball the probe solves, as
    ball_meshes lays them out for ball_schedule at the spacing h: each ball
    is the largest one, of radius r0, scaled by r / r0, spacing h0 r / r0,
    with h0 = r0 / m for the least whole m >= r0 / h (up to rounding; h0 is
    h to the bit when h is r0 / m rounded).  So every ball has the same node
    count and an even number of cells across: exact +-x pairs and no node
    at the origin.  A fixed spacing would cap the resolvable well depth at
    the lattice scale, and the probe would never diverge.  The bottom of
    L - (1 - epsilon) V on a ball is its MeshLevel's bottoms([math.inf]).
    The kernel and the interior Hardy potential are homogeneous of degree
    -alpha, so their bottoms obey lambda0(B_r) = (r0 / r)^alpha
    lambda0(B_r0): only the largest ball is solved.  bounded potentials do
    not scale, and every ball is solved.

    The certificate is satisfied (blow-up certified) when at least MIN_BALLS
    consecutive trailing radii give strictly decreasing negative bottoms
    lying below -C |B|^(-alpha/d) for the fitted C > 0; the fitted log-log
    slope against 1/|B| is reported for comparison with alpha/d.  Raises
    DomainError for a kind outside BALL_PROBE_KINDS (hardy_boundary has no
    interior singular point), ValueError for an empty ball_schedule, radii
    that do not decrease or balls that are not the ones the kind solves, and
    BallTooSmall when a solved ball holds fewer than MIN_BALL_NODES nodes.
    """
    if potential.kind not in BALL_PROBE_KINDS:
        raise DomainError(f"the shrinking-ball probe does not apply to {potential.kind}")
    radii = [float(r) for r in ball_schedule]
    if not radii:
        raise ValueError("ball_schedule is empty: the probe needs at least one radius")
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("ball radii must be strictly decreasing")
    solved = _solved_balls(potential.kind, len(radii))
    if len(balls) != solved:
        raise ValueError(f"{potential.kind} solves {solved} of {len(radii)} balls, got {len(balls)}")
    lambdas = []
    for grid, V in balls:
        if grid.n < MIN_BALL_NODES:
            raise BallTooSmall(
                f"ball of radius {grid.domain.inradius} holds {grid.n} nodes, "
                f"fewer than {MIN_BALL_NODES}"
            )
        level = MeshLevel(assemble_operator(grid, alpha), V, potential.epsilon)
        lambdas.append(level.bottoms([math.inf])[0].lambda0)
    if solved < len(radii):
        lambdas = [(radii[0] / r) ** alpha * lambdas[0] for r in radii]
    d = balls[0][0].dimension
    volumes = [_ball_volume(r, d) for r in radii]
    lambdas_arr = np.array(lambdas)
    volumes_arr = np.array(volumes)

    # trailing run of strictly decreasing negative bottoms
    window = 0
    for i in range(len(radii) - 1, -1, -1):
        if lambdas_arr[i] >= 0.0:
            break
        if window >= 1 and not lambdas_arr[i] > lambdas_arr[i + 1]:
            break
        window += 1
    certified = window >= MIN_BALLS
    exponent = math.nan
    fitted_c = 0.0
    if certified:
        sel = slice(len(radii) - window, len(radii))
        logs = np.log(-lambdas_arr[sel])
        logv = np.log(1.0 / volumes_arr[sel])
        dx = logv - logv.mean()  # the least-squares slope, np.polyfit's in closed form
        exponent = float(dx @ (logs - logs.mean()) / (dx @ dx))
        fitted_c = float(np.min((-lambdas_arr[sel]) * volumes_arr[sel] ** (alpha / d)))
        certified = fitted_c > 0.0
    # lhs <= rhs encodes "a positive fitted coefficient exists"; when no
    # qualifying window was found there is nothing to fit and lhs = 1 > 0.
    lhs = -fitted_c if certified else 1.0
    return _make_certificate(
        "shrinking_ball",
        (np.array(radii), np.array(lambdas), alpha, h, potential.label()),
        lhs,
        0.0,
        0.0,
        radii=radii,
        volumes=volumes,
        lambda0s=lambdas,
        window=window,
        fitted_exponent=exponent,
        fitted_coefficient=fitted_c,
        epsilon=potential.epsilon,
    )


@dataclass(frozen=True)
class ClassifierThresholds:
    rel_tol: float = 0.02
    divergence_ratio: float = 1.15
    growth_ratio: float = 1.5
    probe_time: float = 0.5
    atol: float = 1e-8


@dataclass(frozen=True)
class Verdict:
    label: str
    evidence: dict
    thresholds: ClassifierThresholds
    epsilon: float


def classify(
    series: SpectralSeries,
    family,
    thresholds: ClassifierThresholds = ClassifierThresholds(),
) -> Verdict:
    """Label a configuration EXISTS, BLOW_UP or INCONCLUSIVE.

    EXISTS needs the deepest-truncation spectral bottoms to be Cauchy across
    the finest mesh pair and the trajectory sup norms at the probe time to be
    Cauchy as well.  BLOW_UP needs the bottoms to decrease strictly across
    every refinement, end negative, satisfy the ratio test at
    divergence_ratio on every consecutive pair of negative levels (at least
    one such pair), and come with sup norms growing by at least growth_ratio
    per refinement.  Everything else is INCONCLUSIVE.  Raises
    InsufficientEvidence for fewer than MIN_MESH_LEVELS meshes or a family that
    does not cover the deepest truncation per mesh.
    """
    deepest = series.deepest_per_mesh()
    if len(deepest) < MIN_MESH_LEVELS:
        raise InsufficientEvidence(
            f"need at least {MIN_MESH_LEVELS} mesh levels, series has {len(deepest)}"
        )
    sups = []
    for entry in deepest:
        on_mesh = [traj for traj in family if traj.grid.h == entry.h]
        traj = max(on_mesh, key=lambda t: t.k, default=None)
        if traj is None:
            raise InsufficientEvidence(f"no trajectory for mesh h={entry.h}")
        if traj.k < entry.k:
            raise InsufficientEvidence(
                f"family at h={entry.h} stops at k={traj.k}, series reaches k={entry.k}"
            )
        try:
            probe_state = traj.state_at(thresholds.probe_time)
        except ValueError as exc:
            raise InsufficientEvidence(str(exc))
        sups.append(float(np.max(probe_state)))

    lambdas = [e.lambda0 for e in deepest]
    atol = thresholds.atol
    rel = thresholds.rel_tol

    lam_cauchy = abs(lambdas[-1] - lambdas[-2]) <= rel * abs(lambdas[-1]) + atol
    sup_cauchy = abs(sups[-1] - sups[-2]) <= rel * abs(sups[-1]) + atol

    decreasing = all(l2 < l1 for l1, l2 in zip(lambdas, lambdas[1:]))
    neg_pairs = [
        l2 / l1
        for l1, l2 in zip(lambdas, lambdas[1:])
        if l1 < 0.0 and l2 < 0.0
    ]
    diverging = (
        decreasing
        and lambdas[-1] < 0.0
        and len(neg_pairs) >= 1
        and all(r >= thresholds.divergence_ratio for r in neg_pairs)
    )
    growing = all(
        s2 >= thresholds.growth_ratio * s1 for s1, s2 in zip(sups, sups[1:])
    )

    if lam_cauchy and sup_cauchy:
        label = EXISTS
    elif diverging and growing:
        label = BLOW_UP
    else:
        label = INCONCLUSIVE
    evidence = {
        "lambda0": [(e.h, e.k, e.lambda0) for e in deepest],
        "sup_norms": list(zip([e.h for e in deepest], sups)),
    }
    epsilon = deepest[0].epsilon
    return Verdict(label=label, evidence=evidence, thresholds=thresholds, epsilon=epsilon)
