import hashlib
import math
import types
from dataclasses import replace

import numpy as np
import pytest

from fracheat import (
    EXISTS,
    INCONCLUSIVE,
    BallTooSmall,
    ClassifierThresholds,
    DimensionMismatch,
    DomainError,
    DomainSpec,
    InsufficientEvidence,
    NonpositiveState,
    PotentialSpec,
    ImplicitStepper,
    assemble_operator,
    build_grid,
    classify,
    energy_inequality_all_pairs,
    energy_inequality_certificate,
    evolve,
    exponential_bound_certificate,
    ground_state_comparability,
    hardy_sharp_constant,
    initial_state,
    log_estimate_certificate,
    monotone_family,
    refinement_series,
    sample_potential,
    shrinking_ball_certificate,
    spectral_bottom,
)
from fracheat.assembly import OperatorMatrix
from oracles import mesh_level, probe_balls

ALPHA = 0.5
DOM = DomainSpec.interval(1.0)

# regression: free-evolution comparability ratio for a ball of radius 1/8,
# t = 0.5, interval at h = 1/256 (refinement study fixture)
COMPARABILITY_RATIO_H256 = 9.895758445453769


def test_energy_certificate_zero_phi(interval_op):
    u = np.ones(interval_op.n)
    cert = energy_inequality_certificate(interval_op, u, np.zeros(interval_op.n))
    assert cert.lhs == 0.0 and cert.rhs == 0.0 and cert.satisfied


def test_energy_certificate_constant_u(interval_op):
    rng = np.random.default_rng(0)
    phi = rng.standard_normal(interval_op.n)
    u = np.full(interval_op.n, 2.5)
    cert = energy_inequality_certificate(interval_op, u, phi)
    killing = interval_op.cell_volume * np.sum(phi * phi * interval_op.kappa)
    assert cert.lhs == pytest.approx(killing, rel=1e-10)
    assert cert.satisfied
    assert cert.slack > 0  # strict for nonconstant phi: kernel part of rhs is positive


def test_energy_certificate_random_sweep(interval_op):
    rng = np.random.default_rng(1)
    for _ in range(300):
        u = rng.uniform(0.1, 1.1, interval_op.n)
        phi = rng.standard_normal(interval_op.n)
        cert = energy_inequality_certificate(interval_op, u, phi)
        assert cert.satisfied
        assert cert.slack >= -1e-12


def test_energy_certificate_rejects_nonpositive(interval_op):
    phi = np.ones(interval_op.n)
    u = np.ones(interval_op.n)
    u[3] = 0.0
    with pytest.raises(NonpositiveState):
        energy_inequality_certificate(interval_op, u, phi)
    phi2 = np.zeros(interval_op.n)
    phi2[5] = 1.0
    u2 = np.ones(interval_op.n)
    u2[10] = -0.5  # off the support, still inadmissible
    with pytest.raises(NonpositiveState):
        energy_inequality_certificate(interval_op, u2, phi2)


def test_energy_certificate_takes_one_pair(interval_op):
    n = interval_op.n
    stacked = np.ones((5, n))
    with pytest.raises(DimensionMismatch):
        energy_inequality_certificate(interval_op, stacked, stacked)
    with pytest.raises(DimensionMismatch):
        energy_inequality_certificate(interval_op, np.ones(n + 1), np.ones(n + 1))
    with pytest.raises(DimensionMismatch):
        energy_inequality_certificate(interval_op, np.ones(n), np.ones(n - 1))


# a grid with no mirror and one with two axis mirrors and the diagonal one
ALL_PAIRS_GRIDS = [(DomainSpec.interval(1.0), 0.03, 0), (DomainSpec.disk(1.0), 1.0 / 16.0, 2)]


def _offset(op, i, j):
    return tuple(np.abs(op.grid.lattice[i] - op.grid.lattice[j]))


def _swapped_offsets(op, i, j):
    """The offset of nodes i and j and, on a square table, its transpose."""
    offset = _offset(op, i, j)
    return {offset, offset[::-1]} if len(set(op.entries.shape)) == 1 else {offset}


def _with_coupling(op, i, j, value):
    """A copy of op whose offset table holds value at the offset of nodes i
    and j, and at its transpose on a square table, so that the copy keeps
    the grid's mirrors: L_ab = value for every pair (a, b) at those
    offsets."""
    table = op.entries.copy()
    for offset in _swapped_offsets(op, i, j):
        table[offset] = value
    table.setflags(write=False)
    return replace(op, entries=table)


def _first_pair_at_offset(op, i, j):
    """The first pair (node a, node b) at the offsets of _with_coupling(op,
    i, j), in the order of every node's row and of the nodes in a row."""
    lattice = op.grid.lattice
    for a in range(op.n):
        gaps = np.abs(lattice - lattice[a])
        hits = np.flatnonzero([tuple(gap) in _swapped_offsets(op, i, j) for gap in gaps])
        if hits.size:
            return a, int(hits[0])


@pytest.mark.parametrize("domain, h, axes", ALL_PAIRS_GRIDS)
def test_energy_all_pairs_fails_at_a_positive_coupling(domain, h, axes):
    op = assemble_operator(build_grid(domain, h), ALPHA)
    assert len(op.grid.mirrors) == axes + (axes == 2)
    sound = energy_inequality_all_pairs(op)
    assert sound.satisfied and sound.details["L_ij"] < 0.0
    i, j = 5, op.n // 2 + 3
    witness = _first_pair_at_offset(op, i, j)
    assert _offset(op, *witness) in _swapped_offsets(op, i, j)
    # the coupling's own magnitude, and one whose slack is below rounding
    for value in (-op.couplings([i], [j])[0, 0], 1e-300):
        bad = energy_inequality_all_pairs(_with_coupling(op, i, j, value))
        assert not bad.satisfied
        assert (bad.details["i"], bad.details["j"]) == witness and bad.details["L_ij"] == value


@pytest.mark.parametrize("domain, h, axes", ALL_PAIRS_GRIDS)
def test_energy_witness_slack_is_four_couplings(domain, h, axes):
    op = assemble_operator(build_grid(domain, h), ALPHA)
    i, j = 2, op.n - 7
    for M in (op, _with_coupling(op, i, j, 0.25)):
        cert = energy_inequality_all_pairs(M)
        value = cert.details["L_ij"]
        # L in node order, bit for bit: the fold by a vector no mirror fixes
        L = M.fold(np.arange(M.n, dtype=float))[1]
        assert value == L[cert.details["i"], cert.details["j"]]
        assert abs(cert.slack + 4.0 * value * M.cell_volume) <= 1e-14 * cert.rhs
    assert cert.details["L_ij"] == 0.25 and cert.slack < 0.0


def _pairwise_scan(M):
    """Oracle: the representatives' rows of a dense pairwise L, each entry
    read from the table at |lattice_i - lattice_j|, the diagonal masked, and
    the first largest entry in row order: (i, j, L_ij)."""
    lattice, reps = M.grid.lattice, M.orbits[0]
    rows = M.entries[tuple(np.moveaxis(np.abs(lattice[reps, None] - lattice[None]), -1, 0))]
    rows[np.arange(len(reps)), reps] = -np.inf
    r, c = np.unravel_index(int(np.argmax(rows)), rows.shape)
    return int(reps[r]), int(c), float(rows[r, c])


@pytest.mark.parametrize("domain, h", [(DomainSpec.disk(1.0), 1.0 / 12.0),
                                       (DomainSpec.disk(1.0), 1.0 / 16.0),
                                       (DomainSpec.disk(1.0), 1.0 / 24.0),
                                       (DomainSpec.rectangle(1.0, 0.56), 0.05),  # the x mirror only
                                       (DomainSpec.interval(1.0), 0.03),  # no mirror
                                       (DomainSpec.interval(1.0), 1.5)])  # one node
def test_energy_witness_matches_a_pairwise_scan(domain, h):
    op = assemble_operator(build_grid(domain, h), ALPHA)
    ops = [op]
    if op.n > 1:
        # node 0's neighbour one cell up every axis: in 2-D the first
        # representative has two partners at that offset
        lattice = op.grid.lattice
        (up,) = np.flatnonzero(np.all(lattice == lattice[0] + 1, axis=1))
        ops += [_with_coupling(op, 3, op.n - 4, 0.25), _with_coupling(op, 0, up, 1e-300)]
    for M in ops:
        cert = energy_inequality_all_pairs(M)
        i, j, value = _pairwise_scan(M)
        assert (cert.details["i"], cert.details["j"], cert.details["L_ij"]) == (i, j, value)
        u = np.zeros(M.n)
        u[[i, j]] = 1.0
        phi = u.copy()
        phi[j] = -1.0
        assert cert.slack == energy_inequality_certificate(M, u, phi).slack
        assert cert.satisfied == (value <= 0.0)


@pytest.mark.parametrize("domain, h", [(DomainSpec.disk(1.0), 1.0 / 16.0), (DomainSpec.rectangle(1.0, 1.0), 1.0 / 12.0)])
def test_energy_witness_is_the_first_largest_entry_of_every_row(domain, h):
    # the square group's representatives are an eighth of the nodes: the
    # witness is still the first largest off-diagonal entry of a scan of
    # every node's row of L, read from the dense L, also once a larger
    # coupling is set at a pair's offset and its transpose
    op = assemble_operator(build_grid(domain, h), ALPHA)
    assert len(op.grid.mirrors) == 3
    for M in (op, _with_coupling(op, 7, op.n - 30, -1e-9), _with_coupling(op, 7, op.n - 30, 0.5)):
        L = M.fold(np.arange(M.n, dtype=float))[1]  # L in node order
        np.fill_diagonal(L, -np.inf)
        i, j = np.unravel_index(int(np.argmax(L)), L.shape)
        cert = energy_inequality_all_pairs(M)
        assert (cert.details["i"], cert.details["j"], cert.details["L_ij"]) == (i, j, L[i, j])
        assert cert.satisfied == (L[i, j] <= 0.0)


def test_energy_check_ignores_unrealized_offsets():
    # the box's corner offset joins no two nodes of a disk: a positive table
    # entry there is no entry of L
    op = assemble_operator(build_grid(DomainSpec.disk(1.0), 1.0 / 12.0), ALPHA)
    corner = tuple(s - 1 for s in op.entries.shape)
    lattice = op.grid.lattice
    assert not np.any(np.all(np.abs(lattice[:, None] - lattice[None]) == corner, axis=-1))
    table = op.entries.copy()
    table[corner] = 1.0
    table.setflags(write=False)
    cornered = replace(op, entries=table)
    assert cornered.mirrored[0].max() == 1.0  # a scan of the whole table fails
    sound, cert = energy_inequality_all_pairs(op), energy_inequality_all_pairs(cornered)
    assert sound.satisfied and cert.satisfied
    assert cert.details == sound.details and cert.slack == sound.slack


@pytest.mark.parametrize("domain, h, axes", ALL_PAIRS_GRIDS)
def test_energy_check_gathers_no_rows(domain, h, axes, monkeypatch):
    op = assemble_operator(build_grid(domain, h), ALPHA)
    calls = []
    couplings = OperatorMatrix.couplings
    monkeypatch.setattr(OperatorMatrix, "couplings", lambda self, *a: calls.append(a) or couplings(self, *a))
    assert energy_inequality_all_pairs(op).satisfied
    assert calls == []


@pytest.mark.parametrize("domain, h", [(DomainSpec.interval(1.0), 1.0 / 256.0),
                                       (DomainSpec.disk(1.0), 1.0 / 12.0)])
def test_energy_slack_is_the_off_diagonal_sum(domain, h):
    # slack = sum_{i<j} (-L_ij) h^d u_i u_j (phi_i/u_i - phi_j/u_j)^2: kappa cancels
    op = assemble_operator(build_grid(domain, h), ALPHA)
    off = -op.fold(np.arange(op.n, dtype=float))[1]  # -L, in node order
    np.fill_diagonal(off, 0.0)
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = rng.uniform(0.1, 1.1, op.n)
        phi = rng.standard_normal(op.n)
        q = phi / u
        want = 0.5 * op.cell_volume * np.sum(off * np.outer(u, u) * np.subtract.outer(q, q) ** 2)
        assert energy_inequality_certificate(op, u, phi).slack == pytest.approx(want, rel=1e-12)


def test_log_certificate_eigenmode_identity(interval_op):
    res = spectral_bottom(interval_op)
    vol = interval_op.cell_volume
    phi0 = res.eigvec / math.sqrt(vol)
    dt = 1.0 / 64.0
    traj = evolve(ImplicitStepper(interval_op, None, dt, lambda0=res.lambda0), phi0, 0.5)
    cert = log_estimate_certificate(traj, phi0, 0.25, 0.5)
    assert cert.satisfied
    assert cert.lhs == pytest.approx(-res.lambda0, rel=1e-9)
    assert cert.rhs == pytest.approx(-math.log(1.0 + dt * res.lambda0) / dt, rel=1e-9)
    assert cert.rhs >= cert.lhs


def test_log_certificate_adjacent_times(interval_op):
    # t2 = t1 + dt reproduces the single-step inequality
    fld = sample_potential(PotentialSpec.bounded("0.5"), interval_op.grid, ALPHA)
    dt = 1.0 / 32.0
    traj = evolve(ImplicitStepper(interval_op, fld, dt), initial_state(interval_op.grid), 0.25)
    rng = np.random.default_rng(2)
    raw = np.abs(rng.standard_normal(interval_op.n)) + 0.05
    Phi = raw / math.sqrt(interval_op.cell_volume * np.sum(raw * raw))
    t1 = 0.125
    cert = log_estimate_certificate(traj, Phi, t1, t1 + dt)
    u1, u2 = traj.state_at(t1), traj.state_at(t1 + dt)
    direct = interval_op.cell_volume * np.sum(np.log(u2 / u1) * Phi * Phi) / dt
    assert cert.rhs == pytest.approx(direct, rel=1e-12)
    assert cert.satisfied


def test_log_certificate_rows_match_single_phis(interval_op):
    fld = sample_potential(PotentialSpec.bounded("0.5"), interval_op.grid, ALPHA)
    traj = evolve(ImplicitStepper(interval_op, fld, 1.0 / 32.0), initial_state(interval_op.grid), 0.25)
    raw = np.abs(np.random.default_rng(5).standard_normal((6, interval_op.n))) + 0.05
    Phi = raw / np.sqrt(interval_op.cell_volume * np.sum(raw * raw, axis=1, keepdims=True))
    batch = log_estimate_certificate(traj, Phi, 0.125, 0.25)
    singles = [log_estimate_certificate(traj, row, 0.125, 0.25) for row in Phi]
    worst = min(singles, key=lambda c: c.slack)
    assert batch.lhs == pytest.approx(worst.lhs, rel=1e-12)
    assert batch.rhs == pytest.approx(worst.rhs, rel=1e-12)
    assert batch.details == worst.details and batch.satisfied
    # the worst row is the batch certificate's Phi
    assert batch.inputs_digest == worst.inputs_digest


def test_log_certificate_validation(interval_op):
    fld = sample_potential(PotentialSpec.bounded("0.5"), interval_op.grid, ALPHA)
    traj = evolve(ImplicitStepper(interval_op, fld, 1.0 / 32.0), initial_state(interval_op.grid), 0.25)
    good = np.ones(interval_op.n) / math.sqrt(interval_op.cell_volume * interval_op.n)
    with pytest.raises(ValueError):
        log_estimate_certificate(traj, good, 0.125, 0.125)
    with pytest.raises(ValueError):
        log_estimate_certificate(traj, 2.0 * good, 0.125, 0.25)
    # synthetic trajectory with a dead representative, and so a dead orbit,
    # on the support
    rows = traj.rep_states.copy()
    rows[4, 7] = 0.0
    broken = replace(traj, rep_states=rows)
    t_bad = traj.times[4]
    dead = broken.state_at(t_bad) == 0.0
    assert np.array_equal(np.flatnonzero(dead), np.unique(traj.orbits[:, 7]))
    with pytest.raises(NonpositiveState):
        log_estimate_certificate(broken, good, t_bad, 0.25)


def test_exponential_bound_certificates(interval_op):
    res = spectral_bottom(interval_op)
    vol = interval_op.cell_volume
    phi0 = res.eigvec / math.sqrt(vol)
    dt = 1.0 / 64.0
    # equality on the ground mode with V = 0
    traj = evolve(ImplicitStepper(interval_op, None, dt, lambda0=res.lambda0), phi0, 0.5)
    cert = exponential_bound_certificate(traj, res.lambda0)
    assert cert.satisfied
    assert abs(cert.lhs - 1.0) <= 1e-8
    # bounded potential: satisfied with positive slack
    fld = sample_potential(PotentialSpec.bounded("0.5 + 0.3*cos(3*x)"), interval_op.grid, ALPHA)
    lam = spectral_bottom(interval_op, fld).lambda0
    traj2 = evolve(ImplicitStepper(interval_op, fld, dt, lambda0=lam), initial_state(interval_op.grid), 0.5)
    cert2 = exponential_bound_certificate(traj2, lam)
    assert cert2.satisfied and cert2.slack > 0
    # constant potential: equality on the ground mode again
    c = 0.3
    lam3 = res.lambda0 - c
    traj3 = evolve(ImplicitStepper(interval_op, np.full(interval_op.n, c), dt, lambda0=lam3), phi0, 0.5)
    cert3 = exponential_bound_certificate(traj3, lam3)
    assert cert3.satisfied and abs(cert3.lhs - 1.0) <= 1e-8


def test_comparability_ground_mode_exact(interval_op):
    res = spectral_bottom(interval_op)
    phi0 = res.eigvec / math.sqrt(interval_op.cell_volume)
    cert = ground_state_comparability(ImplicitStepper(interval_op, None, 0.25 / 64), phi0, 0.25)
    assert cert.lhs == pytest.approx(1.0, abs=1e-9)
    assert cert.satisfied


def test_comparability_fixture_and_distance_bound():
    g = build_grid(DOM, 1.0 / 256.0)
    op = assemble_operator(g, ALPHA)
    u0 = initial_state(g, kind="ball", radius=0.125)
    cert = ground_state_comparability(ImplicitStepper(op, None, 0.5 / 64), u0, 0.5)
    assert cert.satisfied
    assert cert.lhs == pytest.approx(COMPARABILITY_RATIO_H256, rel=1e-6)
    assert cert.details["ground_over_distance"] > 0.5


def test_comparability_distance_coefficient_stable():
    vals = []
    for h in (1.0 / 64.0, 1.0 / 128.0):
        op = assemble_operator(build_grid(DOM, h), ALPHA)
        u0 = initial_state(op.grid, kind="ball", radius=0.125)
        cert = ground_state_comparability(ImplicitStepper(op, None, 0.5 / 64), u0, 0.5)
        vals.append(cert.details["ground_over_distance"])
    assert abs(vals[1] - vals[0]) / vals[0] < 0.05


def test_comparability_rejects_a_stepper_with_a_potential(interval_op):
    u0 = initial_state(interval_op.grid)
    stepper = ImplicitStepper(interval_op, np.full(interval_op.n, 0.5), 1.0 / 64.0)
    with pytest.raises(ValueError, match="potential"):
        ground_state_comparability(stepper, u0, 0.25)


BALLS = [0.5, 0.25, 0.125, 0.0625, 0.03125]


def _probe(domain, alpha, potential, radii, h):
    """The probe's certificate on the balls a config parse builds for the
    radii at spacing h."""
    balls = probe_balls(domain, alpha, potential, radii, h)
    return shrinking_ball_certificate(balls, alpha, potential, radii, h)


def test_shrinking_ball_supercritical():
    # base resolution must make the largest ball's bottom negative
    c = 2.0 * hardy_sharp_constant(1, ALPHA)
    cert = _probe(DOM, ALPHA, PotentialSpec.hardy_interior(c), BALLS, 1 / 512)
    assert cert.satisfied
    assert cert.details["window"] >= 3
    assert abs(cert.details["fitted_exponent"] - ALPHA / 1.0) <= 0.3 * (ALPHA / 1.0)
    lams = cert.details["lambda0s"]
    assert all(b < a for a, b in zip(lams, lams[1:]))


def test_shrinking_ball_subcritical_and_bounded():
    c = 0.5 * hardy_sharp_constant(1, ALPHA)
    sub = _probe(DOM, ALPHA, PotentialSpec.hardy_interior(c), BALLS, 1 / 256)
    assert not sub.satisfied
    bnd = _probe(DOM, ALPHA, PotentialSpec.bounded("1.0"), BALLS, 1 / 256)
    assert not bnd.satisfied


def test_shrinking_ball_too_small():
    with pytest.raises(BallTooSmall):
        _probe(DOM, ALPHA, PotentialSpec.bounded("1.0"), [0.5, 0.25], 0.25)


def _per_ball_oracle(domain, alpha, potential, radii, h):
    """Every ball built, assembled and solved on its own, at spacing
    h r / r0 (h puts a whole number of cells on r0)."""
    lams = []
    for r in radii:
        ball = DomainSpec.interval(r) if domain.dimension == 1 else DomainSpec.disk(r)
        grid = build_grid(ball, h * r / radii[0])
        op = assemble_operator(grid, alpha)
        fld = sample_potential(potential, grid, alpha)
        lams.append(spectral_bottom(op, (1.0 - potential.epsilon) * fld).lambda0)
    return np.array(lams)


DISK = DomainSpec.disk(1.0)
DISK_BALLS = [0.5, 0.25, 0.125]


@pytest.mark.parametrize(
    "domain, alpha, potential, radii, h",
    [
        (DOM, ALPHA, PotentialSpec.hardy_interior(2.0 * hardy_sharp_constant(1, ALPHA)), BALLS, 1 / 512),
        (DISK, 1.0, PotentialSpec.hardy_interior(2.0 * hardy_sharp_constant(2, 1.0)), DISK_BALLS, 1 / 16),
    ],
)
def test_shrinking_ball_scaling_matches_per_ball_solves(domain, alpha, potential, radii, h):
    cert = _probe(domain, alpha, potential, radii, h)
    want = _per_ball_oracle(domain, alpha, potential, radii, h)
    np.testing.assert_allclose(cert.details["lambda0s"], want, rtol=1e-12, atol=0)


def test_shrinking_ball_rejects_hardy_boundary():
    # a ball grid would sample the distance to the ball's own boundary
    potential = PotentialSpec.hardy_boundary(0.26)
    balls = probe_balls(DISK, 0.5, potential, DISK_BALLS, 1 / 16)
    with pytest.raises(DomainError, match="hardy_boundary"):
        shrinking_ball_certificate(balls, 0.5, potential, DISK_BALLS, 1 / 16)


def test_shrinking_ball_rejects_balls_the_kind_does_not_solve():
    # hardy_interior solves the largest ball alone, bounded every ball
    hardy, bounded = PotentialSpec.hardy_interior(0.3), PotentialSpec.bounded("1.0")
    every = probe_balls(DOM, ALPHA, bounded, BALLS, 1 / 64)
    with pytest.raises(ValueError, match="hardy_interior solves 1 of 5 balls, got 5"):
        shrinking_ball_certificate(every, ALPHA, hardy, BALLS, 1 / 64)
    with pytest.raises(ValueError, match="bounded solves 5 of 5 balls, got 1"):
        shrinking_ball_certificate(every[:1], ALPHA, bounded, BALLS, 1 / 64)


@pytest.mark.parametrize("potential", [PotentialSpec.hardy_interior(0.3), PotentialSpec.bounded("1.0")])
def test_shrinking_ball_rejects_an_empty_schedule(potential):
    # named before any check on the balls, whatever balls come with it
    for balls in ([], probe_balls(DOM, ALPHA, potential, BALLS, 1 / 64)):
        with pytest.raises(ValueError, match="ball_schedule is empty"):
            shrinking_ball_certificate(balls, ALPHA, potential, [], 1 / 64)


@pytest.mark.parametrize(
    "domain, expr, radii, h",
    [(DOM, "0.5 + 0.3*cos(3*x)", BALLS, 1 / 64), (DISK, "1 + r*r", DISK_BALLS, 1 / 16)],
)
def test_shrinking_ball_bounded_solves_every_ball(domain, expr, radii, h):
    potential = PotentialSpec.bounded(expr)
    cert = _probe(domain, ALPHA, potential, radii, h)
    assert np.array_equal(cert.details["lambda0s"], _per_ball_oracle(domain, ALPHA, potential, radii, h))


def test_ball_spacing_puts_whole_cells_on_the_largest_radius():
    from fracheat.diagnostics import _ball_spacing

    # whole up to rounding: the spacing is kept bit for bit
    for h in (1 / 512, 1 / 128, 1 / 24):
        assert _ball_spacing(0.5, h) == h
    # 16.5 cells on r0 = 0.5 would put a node at the origin
    h0 = _ball_spacing(0.5, 1 / 33)
    assert h0 <= 1 / 33 and h0 == 0.5 / 17
    grid = build_grid(DomainSpec.interval(0.5), h0)
    assert grid.n == 34 and not np.any(grid.points == 0.0)
    assert len(grid.mirrors) == 1
    # an explicit schedule: r0 = 0.25 at h = 1/30 is 7.5 cells
    pot = PotentialSpec.hardy_interior(0.3)
    cert = _probe(DOM, ALPHA, pot, [0.25, 0.125, 0.0625], 1 / 30)
    assert np.all(np.isfinite(cert.details["lambda0s"]))


def _pipeline(coupling_ratio, hs, k_schedule, dt):
    pot = (
        PotentialSpec.bounded("0.3")
        if coupling_ratio is None
        else PotentialSpec.hardy_interior(coupling_ratio * hardy_sharp_constant(1, ALPHA))
    )
    return _series_and_family(pot, hs, k_schedule, dt)


def _series_and_family(pot, hs, k_schedule, dt):
    levels = [mesh_level(DOM, ALPHA, pot, h) for h in hs]
    series = refinement_series(levels, k_schedule)
    family = []
    for lv in levels:
        family.extend(monotone_family(lv, k_schedule, initial_state(lv.op.grid), 0.5, dt))
    return series, family


def test_classify_bounded_exists():
    series, family = _pipeline(None, [1 / 16, 1 / 32, 1 / 64], [0.25, math.inf], 1.0 / 32.0)
    verdict = classify(series, family)
    assert verdict.label == EXISTS
    assert verdict.epsilon == 0.01
    again = classify(series, family)
    assert again.label == verdict.label


def test_classify_insufficient_evidence():
    series, family = _pipeline(None, [1 / 16, 1 / 32], [math.inf], 1.0 / 32.0)
    with pytest.raises(InsufficientEvidence):
        classify(series, family)
    series3, family3 = _pipeline(None, [1 / 16, 1 / 32, 1 / 64], [math.inf], 1.0 / 32.0)
    with pytest.raises(InsufficientEvidence):
        classify(series3, family3[:-1])
    with pytest.raises(InsufficientEvidence):
        classify(series3, family3, ClassifierThresholds(probe_time=0.123))


def test_digests_on_demand_match_eager(interval_op):
    from fracheat.diagnostics import _digest

    grid = interval_op.grid
    n = interval_op.n
    rng = np.random.default_rng(5)
    u = rng.uniform(0.1, 1.1, n)
    phi = rng.standard_normal(n)
    energy = energy_inequality_certificate(interval_op, u, phi)
    want = {"energy": _digest(interval_op.entries, interval_op.diagonal, u, phi)}
    fld = sample_potential(PotentialSpec.bounded("0.5"), grid, ALPHA)
    lam = spectral_bottom(interval_op, fld).lambda0
    traj = evolve(ImplicitStepper(interval_op, fld, 1.0 / 32.0, lambda0=lam), initial_state(grid), 0.25)
    Phi = np.ones(n) / math.sqrt(interval_op.cell_volume * n)
    log = log_estimate_certificate(traj, Phi, 0.125, 0.25)
    # each certificate hashes what it reads: the log estimate the states at
    # t1 and t2, the bound the stored norms, not the whole trajectory
    want["log"] = _digest(
        interval_op.entries, interval_op.diagonal, traj.state_at(0.125), traj.state_at(0.25),
        Phi, fld, 0.125, 0.25,
    )
    bound = exponential_bound_certificate(traj, lam)
    want["bound"] = _digest(traj.l2_norms, traj.dt, lam)
    u0 = initial_state(grid)
    ground = ground_state_comparability(ImplicitStepper(interval_op, None, 0.25 / 64.0), u0, 0.25)
    want["ground"] = _digest(interval_op.entries, interval_op.diagonal, u0, 0.25, 0.25 / 64.0)
    spec = PotentialSpec.bounded("1.0")
    ball = _probe(DOM, ALPHA, spec, BALLS, 1 / 64)
    want["ball"] = _digest(
        np.array(BALLS), np.array(ball.details["lambda0s"]), ALPHA, 1 / 64, spec.label()
    )
    # the caller's later writes do not reach a digest read afterwards
    for arr in (u, phi, Phi, u0):
        arr[:] = 1.0
    got = {"energy": energy, "log": log, "bound": bound, "ground": ground, "ball": ball}
    assert {kind: cert.inputs_digest for kind, cert in got.items()} == want


def test_trimmed_digests_follow_what_the_certificate_reads(interval_op):
    fld = sample_potential(PotentialSpec.bounded("0.5"), interval_op.grid, ALPHA)
    lam = spectral_bottom(interval_op, fld).lambda0
    traj = evolve(ImplicitStepper(interval_op, fld, 1.0 / 32.0, lambda0=lam), initial_state(interval_op.grid), 0.5)
    bound = exponential_bound_certificate(traj, lam).inputs_digest
    assert exponential_bound_certificate(traj, lam + 1e-9).inputs_digest != bound

    n = interval_op.n
    Phi = np.ones(n) / math.sqrt(interval_op.cell_volume * n)
    t1, t2 = 0.125, 0.25
    log = log_estimate_certificate(traj, Phi, t1, t2).inputs_digest

    def with_row(t, factor):
        reps = traj.rep_states.copy()
        reps[traj.index_of_time(t)] *= factor
        reps.setflags(write=False)
        return replace(traj, rep_states=reps)

    assert log_estimate_certificate(with_row(t2, 1.001), Phi, t1, t2).inputs_digest != log
    # a stored state the certificate does not read leaves its digest alone
    assert log_estimate_certificate(with_row(0.5, 1.001), Phi, t1, t2).inputs_digest == log


def test_certificate_hashes_its_inputs_once_when_made(interval_op, monkeypatch):
    import fracheat.diagnostics

    hashed = []

    class CountingSha256:
        # only what the benchmark's tracer offers: no copy()
        def __init__(self):
            self._h = hashlib.sha256()

        def update(self, data):
            hashed.append(memoryview(data).nbytes)
            self._h.update(data)

        def hexdigest(self):
            return self._h.hexdigest()

    monkeypatch.setattr(fracheat.diagnostics, "hashlib", types.SimpleNamespace(sha256=CountingSha256))
    n = interval_op.n
    rng = np.random.default_rng(6)
    cert = energy_inequality_certificate(interval_op, rng.uniform(0.1, 1.1, n), rng.standard_normal(n))
    # each array is hashed, then its 64-byte hex digest enters the certificate's
    operator = interval_op.entries.nbytes + interval_op.diagonal.nbytes
    assert sum(hashed) == operator + 2 * n * 8 + 4 * 64
    cert.inputs_digest
    assert sum(hashed) == operator + 2 * n * 8 + 4 * 64


def test_digest_format_matches_its_hashlib_oracle():
    from fracheat.diagnostics import _digest

    a = np.arange(6.0)
    frozen = np.linspace(0.0, 1.0, 5)
    frozen.setflags(write=False)
    for arr in (a, frozen):
        inner = hashlib.sha256(arr.tobytes()).hexdigest().encode()
        want = hashlib.sha256(inner + b"3" + b"0.5" + b"'s'").hexdigest()[:16]
        assert _digest(arr, 3, 0.5, "s") == want


def test_hashed_arrays_are_read_only(interval_op):
    traj = evolve(ImplicitStepper(interval_op, None, 1.0 / 32.0), initial_state(interval_op.grid), 0.25)
    with pytest.raises(ValueError):
        interval_op.entries[0] = 1.0
    with pytest.raises(ValueError):
        interval_op.diagonal[0] = 1.0
    with pytest.raises(ValueError):
        traj.rep_states[0, 0] = 1.0
    with pytest.raises(ValueError):
        traj.states[0, 0] = 1.0
    with pytest.raises(ValueError):
        traj.state_at(0.25)[0] = 1.0
    with pytest.raises(ValueError):
        traj.potential[0] = 1.0


def test_classify_monotone_in_coupling():
    # if a coupling blows up, every stronger coupling does too (same schedules)
    hs = [1 / 128, 1 / 256, 1 / 512]
    thresholds = ClassifierThresholds(
        rel_tol=0.05, divergence_ratio=1.15, growth_ratio=1.15, probe_time=0.5
    )
    labels = {}
    for mult in (2.0, 3.0):
        pot = PotentialSpec.hardy_interior(mult * hardy_sharp_constant(1, ALPHA))
        series, family = _series_and_family(pot, hs, [math.inf], 1 / 64)
        labels[mult] = classify(series, family, thresholds).label
    if labels[2.0] == "BLOW_UP":
        assert labels[3.0] == "BLOW_UP"


def test_classify_inconclusive_on_mixed_signals():
    series, family = _pipeline(None, [1 / 16, 1 / 32, 1 / 64], [math.inf], 1.0 / 32.0)
    # corrupt the finest spectral entry so neither test can pass
    from fracheat.spectral import SpectralEntry

    entries = list(series.entries)
    last = entries[-1]
    entries[-1] = SpectralEntry(h=last.h, k=last.k, epsilon=last.epsilon,
                                lambda0=last.lambda0 - 0.2, iterations=last.iterations)
    series.entries = entries
    assert classify(series, family).label == INCONCLUSIVE
