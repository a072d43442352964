import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg
from scipy.linalg import expm

from fracheat import _lapack
from fracheat.assembly import OperatorMatrix
from fracheat.geometry import stabilizers
from fracheat.spectral import MeshLevel
from fracheat import (
    DomainSpec,
    ImplicitStepper,
    PotentialSpec,
    SolveFailure,
    StepTooLarge,
    assemble_operator,
    build_grid,
    duhamel_residual,
    evolve,
    initial_state,
    monotone_family,
    orbit_table,
    sample_potential,
    spectral_bottom,
    truncate,
)
from oracles import mesh_level, unfolded_states, variational_residual

ALPHA = 0.5
DOM = DomainSpec.interval(1.0)


def test_step_ground_mode_decay(interval_op):
    res = spectral_bottom(interval_op)
    dt = 0.01
    w = ImplicitStepper(interval_op, None, dt, lambda0=res.lambda0).step(res.eigvec)
    np.testing.assert_allclose(w, res.eigvec / (1.0 + dt * res.lambda0), rtol=1e-12)


def test_step_zero_state(interval_op):
    w = ImplicitStepper(interval_op, None, 0.01).step(np.zeros(interval_op.n))
    assert np.array_equal(w, np.zeros(interval_op.n))


def test_step_matches_matrix_exponential_locally():
    g = build_grid(DOM, 1.0 / 16.0)
    op = assemble_operator(g, ALPHA)
    fld = sample_potential(PotentialSpec.bounded("0.4 + 0.2*cos(2*x)"), g, ALPHA)
    A = op.apply(np.eye(op.n)) - np.diag(fld)
    u = initial_state(g)
    errs = []
    for dt in (0.02, 0.01):
        w = ImplicitStepper(op, fld, dt).step(u)
        exact = expm(-dt * A) @ u
        errs.append(np.linalg.norm(w - exact))
    # backward Euler is first order: local error O(dt^2), so halving dt
    # divides the one-step defect by about four
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_step_restriction_enforced(interval_op):
    strong = np.full(interval_op.n, 60.0)  # lambda0 ~ -59, dt max(0,-l) >= 1/2
    with pytest.raises(StepTooLarge):
        ImplicitStepper(interval_op, strong, 0.01).step(np.ones(interval_op.n))


def test_evolve_free_decay_and_positivity(interval_op):
    g = interval_op.grid
    u0 = initial_state(g, kind="ball", radius=0.25)
    traj = evolve(ImplicitStepper(interval_op, None, 1.0 / 64.0), u0, 0.5)
    assert traj.times[0] == 0.0
    assert np.array_equal(unfolded_states(traj)[0], u0)
    assert np.all(np.diff(traj.l2_norms) < 0)
    assert np.min(unfolded_states(traj)) >= 0.0
    # strictly positive after one step (irreducible coupling)
    assert np.all(unfolded_states(traj)[1] > 0)


def test_evolve_constant_potential_growth(interval_op):
    res = spectral_bottom(interval_op)
    c = res.lambda0 + 1.0  # forces growth at rate (1 + dt(lambda0 - c))^(-n)
    dt = 1.0 / 64.0
    phi0 = res.eigvec / np.sqrt(interval_op.cell_volume)
    traj = evolve(ImplicitStepper(interval_op, np.full(interval_op.n, c), dt), phi0, 0.5)
    n = len(traj.times) - 1
    expected = traj.l2_norms[0] * (1.0 + dt * (res.lambda0 - c)) ** (-n)
    assert traj.l2_norms[-1] == pytest.approx(expected, rel=1e-10)
    assert traj.l2_norms[-1] > traj.l2_norms[0]


def test_two_small_steps_beat_one_large(interval_op):
    res = spectral_bottom(interval_op)
    dt = 0.02
    one = ImplicitStepper(interval_op, None, 2 * dt, lambda0=res.lambda0).step(res.eigvec)
    small = ImplicitStepper(interval_op, None, dt)
    two = small.step(small.step(res.eigvec))
    # (1 + dt lam)^2 = 1 + 2 dt lam + (dt lam)^2 > 1 + 2 dt lam
    assert np.all(two <= one + 1e-14)
    factor_two = (1.0 + dt * res.lambda0) ** -2
    factor_one = (1.0 + 2 * dt * res.lambda0) ** -1
    np.testing.assert_allclose(two, res.eigvec * factor_two, rtol=1e-11)
    np.testing.assert_allclose(one, res.eigvec * factor_one, rtol=1e-11)


def test_discrete_semigroup_property(interval_op):
    u0 = initial_state(interval_op.grid)
    dt = 1.0 / 32.0
    full = evolve(ImplicitStepper(interval_op, None, dt), u0, 0.5)
    first = evolve(ImplicitStepper(interval_op, None, dt), u0, 0.25)
    second = evolve(ImplicitStepper(interval_op, None, dt), unfolded_states(first)[-1], 0.25)
    assert np.array_equal(unfolded_states(second)[-1], unfolded_states(full)[-1])


def test_evolution_linearity(interval_op):
    rng = np.random.default_rng(4)
    u = rng.uniform(0.0, 1.0, interval_op.n)
    v = rng.uniform(0.0, 1.0, interval_op.n)
    dt = 1.0 / 32.0
    a = unfolded_states(evolve(ImplicitStepper(interval_op, None, dt), u, 0.25))[-1]
    b = unfolded_states(evolve(ImplicitStepper(interval_op, None, dt), v, 0.25))[-1]
    ab = unfolded_states(evolve(ImplicitStepper(interval_op, None, dt), u + v, 0.25))[-1]
    np.testing.assert_allclose(ab, a + b, atol=1e-10)


def test_evolve_input_validation(interval_op):
    with pytest.raises(ValueError):
        evolve(ImplicitStepper(interval_op, None, 0.1), np.zeros(interval_op.n), 0.5)
    u0 = np.ones(interval_op.n)
    with pytest.raises(ValueError):
        evolve(ImplicitStepper(interval_op, None, 0.1), -u0, 0.5)
    with pytest.raises(ValueError):
        evolve(ImplicitStepper(interval_op, None, 0.3), u0, 0.5)  # not a multiple
    for bad in (np.nan, np.inf):
        u = u0.copy()
        u[7] = bad
        with pytest.raises(ValueError, match="finite"):
            evolve(ImplicitStepper(interval_op, None, 0.1), u, 0.5)


def test_stepper_rejects_nonfinite_states(interval_op):
    # the solve does not scan for non-finite values, so the stepper checks u itself
    stepper = ImplicitStepper(interval_op, None, 1.0 / 32.0)
    for bad in (np.nan, np.inf):
        u = np.ones(interval_op.n)
        u[7] = bad
        with pytest.raises(ValueError, match="finite"):
            stepper.step(u)
    for dt in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            ImplicitStepper(interval_op, None, dt)


@pytest.mark.parametrize("domain, h, alpha", [(DOM, 1.0 / 64.0, 0.5), (DomainSpec.disk(1.0), 0.125, 1.0)])
def test_stepper_factor_matches_textbook_system(domain, h, alpha):
    # the factor of the block folded by the whole mirror group, built as dt
    # times L's cached block with the diagonal 1 + dt (B_ii - V_i); the
    # fold's table, and the block with it, is sorted by V, and the factor
    # takes it in that order.  The block folded from the textbook
    # system I + dt (L - diag(V)) by summing over each orbit's columns, and
    # weighted by 1 / sqrt(s_r s_t), rounds differently and is its oracle
    g = build_grid(domain, h)
    op = assemble_operator(g, alpha)
    fld = sample_potential(PotentialSpec.hardy_interior(0.1), g, alpha)
    dt = 1.0 / 32.0
    stepper = ImplicitStepper(op, fld, dt)
    stepper.step(initial_state(g))
    orbits = orbit_table(g.n, g.mirrors)
    assert len(orbits) == (8 if g.dimension == 2 else 2)
    folded, B = op.fold(fld)
    order = np.argsort(fld[orbits[0]], kind="stable")
    assert np.array_equal(folded, orbits[:, order])
    system = dt * B
    system.flat[:: len(B) + 1] = 1.0 + dt * (np.diag(B) - fld[folded[0]])
    assert len(stepper._factors) == 1
    sorted_orbits, root, factored = stepper._factors[folded.tobytes()]
    assert np.array_equal(sorted_orbits, folded)
    s = stabilizers(folded)
    assert np.array_equal(root, np.sqrt(s)) and np.any(s > 1) == (g.dimension == 2)
    factor_of_state = factored.factor
    assert np.array_equal(factor_of_state, _lapack.cholesky(system))
    textbook = np.eye(op.n) + dt * (op.apply(np.eye(op.n)) - np.diag(fld))
    block = sum(textbook[np.ix_(folded[0], row)] for row in folded) / np.sqrt(np.outer(s, s))
    factor, lower = linalg.cho_factor(block)
    assert not lower
    np.testing.assert_allclose(np.tril(factor_of_state).T, np.triu(factor), rtol=1e-13, atol=0)


@pytest.mark.parametrize("domain, h, alpha", [(DOM, 1.0 / 64.0, 0.5), (DomainSpec.disk(1.0), 1.0 / 16.0, 1.0)])
def test_stepper_matches_textbook_solve_on_asymmetric_state(domain, h, alpha):
    g = build_grid(domain, h)
    op = assemble_operator(g, alpha)
    fld = sample_potential(PotentialSpec.hardy_interior(0.1), g, alpha)
    dt = 1.0 / 32.0
    stepper = ImplicitStepper(op, fld, dt)
    u = np.random.default_rng(3).uniform(0.0, 1.0, g.n)
    textbook = np.eye(op.n) + dt * (op.apply(np.eye(op.n)) - np.diag(fld))
    want = linalg.cho_solve(linalg.cho_factor(textbook), u)
    np.testing.assert_allclose(stepper.step(u), want, rtol=1e-12, atol=0)
    # no mirror fixes a random state: one factor of the full system
    assert [system.factor.shape for *_, system in stepper._factors.values()] == [(g.n, g.n)]


@pytest.mark.parametrize("domain, h, alpha", [(DOM, 1.0 / 64.0, 0.5), (DomainSpec.disk(1.0), 1.0 / 16.0, 1.0)])
def test_symmetric_evolve_factors_one_block(domain, h, alpha, monkeypatch):
    g = build_grid(domain, h)
    op = assemble_operator(g, alpha)
    fld = sample_potential(PotentialSpec.hardy_interior(0.1), g, alpha)
    shapes = []
    real = _lapack.cholesky

    def counting(a):
        shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(_lapack, "cholesky", counting)
    traj = evolve(ImplicitStepper(op, fld, 1.0 / 32.0, lambda0=0.0), initial_state(g), 0.25)
    m = 107 if g.dimension == 2 else g.n // 2  # the disk's 96 orbits of 8 and 11 of 4
    assert shapes == [(m, m)]
    states = unfolded_states(traj)
    for image in g.mirrors:  # every state stays exactly symmetric
        assert np.array_equal(states[:, image], states)


def test_square_group_step_matches_a_dense_solve():
    # a random state constant on the disk's orbits of order 8 and 4, under
    # a radial V: one step on 107 folded unknowns against the full system
    g = build_grid(DomainSpec.disk(1.0), 1.0 / 16.0)
    op = assemble_operator(g, 1.0)
    fld = sample_potential(PotentialSpec.hardy_interior(0.1), g, 1.0)
    dt = 1.0 / 32.0
    orbits = orbit_table(g.n, g.mirrors)
    u = np.empty(g.n)
    u[orbits] = np.random.default_rng(5).uniform(0.5, 1.5, orbits.shape[1])
    stepper = ImplicitStepper(op, fld, dt, lambda0=0.0)
    w = stepper.step(u)
    assert [system.factor.shape for *_, system in stepper._factors.values()] == [(107, 107)]
    L = replace(op).fold(np.arange(op.n, dtype=float))[1]  # L in node order
    want = np.linalg.solve(np.eye(op.n) + dt * (L - np.diag(fld)), u)
    np.testing.assert_allclose(w, want, rtol=1e-13, atol=0)
    for image in g.mirrors:
        assert np.array_equal(w[image], w)


@pytest.mark.parametrize("axis", [0, 1])
def test_state_fixed_by_one_mirror_steps_on_its_subgroup(axis, monkeypatch):
    # a state even in one coordinate only, under a V that every mirror fixes
    g = build_grid(DomainSpec.disk(1.0), 1.0 / 16.0)
    op = assemble_operator(g, 1.0)
    fld = sample_potential(PotentialSpec.hardy_interior(0.1), g, 1.0)
    dt = 1.0 / 32.0
    even, odd = g.points[:, axis], g.points[:, 1 - axis]
    u = np.exp(odd) * (1.0 + even * even)
    fixing = [m for m in g.mirrors if np.array_equal(u[m], u)]
    assert len(g.mirrors) == 3 and len(fixing) == 1
    shapes = []
    real = _lapack.cholesky

    def counting(a):
        shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(_lapack, "cholesky", counting)
    stepper = ImplicitStepper(op, fld, dt, lambda0=0.0)
    w = stepper.step(u)
    textbook = np.eye(op.n) + dt * (op.apply(np.eye(op.n)) - np.diag(fld))
    want = linalg.cho_solve(linalg.cho_factor(textbook), u)
    np.testing.assert_allclose(w, want, rtol=1e-12, atol=0)
    assert np.array_equal(w[fixing[0]], w)
    assert shapes == [(g.n // 2, g.n // 2)]
    # a later symmetric state adds one factor, on the whole group of order 8
    stepper.step(initial_state(g))
    assert shapes == [(g.n // 2, g.n // 2), (107, 107)]
    stepper.step(w)
    stepper.step(initial_state(g))
    assert len(shapes) == 2


def _unfolded_step(op, vals, u, dt):
    """The stepper before the mirror fold: one factor of the full system,
    its rows and columns sorted by V as the stepper sorts them."""
    order = np.argsort(vals, kind="stable")
    # L in node order, bit for bit: a fold by a vector no mirror fixes, on a
    # copy of op without the stepper's cached folds
    L = replace(op).fold(np.arange(op.n, dtype=float))[1][np.ix_(order, order)]
    system = dt * L
    system.flat[:: op.n + 1] = 1.0 + dt * (np.diag(L) - vals[order])
    w = np.empty(op.n)
    w[order] = _lapack.solve(_lapack.cholesky(system), u[order])
    return np.maximum(w, 0.0)


@pytest.mark.parametrize("h, expr", [(1.0 / 64.0, "1 + 0.5*x"), (0.03, "0.5 + 0.3*cos(3*x)")])
def test_asymmetric_problem_steps_on_the_full_system(h, expr):
    g = build_grid(DOM, h)
    op = assemble_operator(g, ALPHA)
    fld = sample_potential(PotentialSpec.bounded(expr), g, ALPHA)
    stepper = ImplicitStepper(op, fld, 1.0 / 32.0, lambda0=0.0)
    u = initial_state(g)
    for _ in range(4):
        want = _unfolded_step(op, fld, u, 1.0 / 32.0)
        u = stepper.step(u)
        assert np.array_equal(u, want)


def _unknowns(g, V, order):
    """The number of orbits of the mirrors that fix V, given the order of
    its axis mirrors' part: the diagonal mirror, when it fixes V too,
    doubles the group and fixes the nodes on the diagonals."""
    table = orbit_table(g.n, [mirror for mirror in g.mirrors if np.array_equal(V[mirror], V)])
    diagonal = len(g.mirrors) == 3 and np.array_equal(V[g.mirrors[2]], V)
    assert len(table) == order * (1 + diagonal)
    return table.shape[1]


@pytest.mark.parametrize("domain, h, potential, order", [
    (DOM, 1.0 / 64.0, PotentialSpec.hardy_interior(0.1), 2),
    (DOM, 0.03, PotentialSpec.hardy_interior(0.1), 1),
    # the square group: 96 orbits of 8 and 11 of 4 on the diagonals
    (DomainSpec.disk(1.0), 1.0 / 16.0, PotentialSpec.hardy_interior(0.1), 4),
    (DomainSpec.disk(1.0), 1.0 / 16.0, PotentialSpec.bounded("0.5 + 0.1*x + 0.2*y*y"), 2),
    # the diagonal mirror alone: 395 pairs and the 22 nodes it fixes
    (DomainSpec.disk(1.0), 1.0 / 16.0, PotentialSpec.bounded("0.5 + 0.2*(x*y)"), 1),
])
def test_evolve_matches_a_loop_of_steps(domain, h, potential, order, monkeypatch):
    # evolve folds once per trajectory; the reference steps every state
    # through ImplicitStepper.step, which folds again each time and converts
    # to and from the folded unknowns at the same points.  order is that of
    # the axis mirrors that fix V
    g = build_grid(domain, h)
    op = assemble_operator(g, 1.0 if g.dimension == 2 else ALPHA)
    fld = sample_potential(potential, g, op.alpha)
    u0, dt, steps = initial_state(g), 1.0 / 32.0, 8
    stepper = ImplicitStepper(op, fld, dt, lambda0=0.0)
    want = [u0]
    for _ in range(steps):
        want.append(stepper.step(want[-1]))
    want = np.array(want)
    factors, solves = [], []
    cholesky, solve = _lapack.cholesky, _lapack.solve

    def counting_cholesky(a):
        factors.append(a.shape)
        return cholesky(a)

    def counting_solve(factor, b):
        solves.append(len(b))
        return solve(factor, b)

    monkeypatch.setattr(_lapack, "cholesky", counting_cholesky)
    monkeypatch.setattr(_lapack, "solve", counting_solve)
    traj = evolve(ImplicitStepper(op, fld, dt, lambda0=0.0), u0, steps * dt)
    m = _unknowns(g, fld, order)
    assert m == {(1, 2): 64, (1, 1): 67, (2, 4): 107, (2, 2): 406, (2, 1): 417}[g.dimension, order]
    assert factors == [(m, m)] and solves == [m] * steps
    monkeypatch.undo()
    assert np.array_equal(unfolded_states(traj), want)
    assert np.array_equal(traj.l2_norms, np.sqrt(op.cell_volume * np.sum(want * want, axis=1)))
    assert traj.rep_states.shape == (steps + 1, m)
    looped = replace(traj, rep_states=want[:, traj.orbits[0]])
    assert np.array_equal(unfolded_states(looped), want)
    free = ImplicitStepper(op, None, dt)
    assert duhamel_residual(traj, free) == duhamel_residual(looped, free)


def test_disk_trajectory_stores_its_representatives_only():
    # the disk at h = 1/24 under a supercritical Hardy potential: the square
    # group folds its 1804 nodes to 234 orbits, and a trajectory keeps only
    # those columns, unfolding them on read
    from fracheat import hardy_sharp_constant

    pot = PotentialSpec.hardy_interior(2.0 * hardy_sharp_constant(2, 1.0))
    level = mesh_level(DomainSpec.disk(1.0), 1.0, pot, 1.0 / 24.0)
    op, V = level.op, level.potential
    assert op.n == 1804
    lam = level.lambda0s([math.inf])[0]
    dt, steps = 1.0 / 64.0, 8
    assert dt * -lam < 0.5
    u0 = initial_state(op.grid)
    traj = evolve(ImplicitStepper(op, V, dt, lambda0=lam), u0, steps * dt)
    assert traj.rep_states.shape == (steps + 1, 234) and not traj.rep_states.flags.writeable
    stored = [a for a in vars(traj).values() if isinstance(a, np.ndarray) and a is not traj.potential]
    assert stored and all(op.n not in a.shape for a in stored)
    stepper = ImplicitStepper(op, V, dt, lambda0=lam)
    want = [u0]
    for _ in range(steps):
        want.append(stepper.step(want[-1]))
    want = np.array(want)
    assert np.array_equal(unfolded_states(traj), want)
    assert np.array_equal(traj.state_at(steps * dt), want[-1])
    assert np.array_equal(traj.max_values, want.max(axis=1))
    assert np.array_equal(traj.l2_norms, np.sqrt(op.cell_volume * np.sum(want * want, axis=1)))


def test_evolve_traced_peak_below_one_unfolded_trajectory():
    # the disk's finest benchmark mesh (h = 1/24, n = 1804) over its 32
    # steps, the fold and factor already cached: the norms unfold one state
    # at a time into one buffer, so evolve's traced peak stays below one
    # (steps + 1) x n array; unfolding the whole trajectory and squaring it
    # took two of them
    from fracheat import hardy_sharp_constant

    pot = PotentialSpec.hardy_interior(2.0 * hardy_sharp_constant(2, 1.0))
    level = mesh_level(DomainSpec.disk(1.0), 1.0, pot, 1.0 / 24.0)
    op, dt = level.op, 1.0 / 64.0
    stepper = ImplicitStepper(op, level.potential, dt, lambda0=0.0)
    u0 = initial_state(op.grid)
    evolve(stepper, u0, dt)  # folds and factors
    tracemalloc.start()
    try:
        traj = evolve(stepper, u0, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 33 and op.n == 1804
    assert peak < 8 * len(traj.times) * op.n


def _looped_duhamel(traj, op, vals, free):
    """Oracle: the reconstruction stepped through ImplicitStepper.step at
    full n, each step folded by the mirrors that fix its own state."""
    states = unfolded_states(traj)
    acc = states[0].copy()
    worst = 0.0
    for n in range(1, len(traj.times)):
        acc = free.step(acc) + traj.dt * vals * states[n]
        denom = np.linalg.norm(states[n])
        if denom > 0:
            worst = max(worst, float(np.linalg.norm(states[n] - acc) / denom))
    return worst


@pytest.mark.parametrize("potential, order", [
    (PotentialSpec.hardy_interior(0.1), 4),
    # one mirror fixes V and all three fix u0: the first free step, S u0,
    # solves on u0's group, every later one on V's
    (PotentialSpec.bounded("0.5 + 0.1*x + 0.2*y*y"), 2),
    # only the diagonal mirror, which fixes nodes, fixes V
    (PotentialSpec.bounded("0.5 + 0.2*(x*y)"), 1),
])
def test_folded_duhamel_matches_a_loop_of_steps(potential, order, monkeypatch):
    g = build_grid(DomainSpec.disk(1.0), 1.0 / 16.0)
    op = assemble_operator(g, 1.0)
    fld = sample_potential(potential, g, op.alpha)
    dt, steps = 1.0 / 32.0, 8
    traj = evolve(ImplicitStepper(op, fld, dt, lambda0=0.0), initial_state(g), steps * dt)
    want = _looped_duhamel(traj, op, fld, ImplicitStepper(op, None, dt))
    free = ImplicitStepper(op, None, dt)
    solves, folds = [], []
    solve, fold = _lapack.solve, OperatorMatrix.fold
    monkeypatch.setattr(_lapack, "solve", lambda factor, b: solves.append(len(b)) or solve(factor, b))
    monkeypatch.setattr(OperatorMatrix, "fold", lambda self, *v: folds.append(len(v)) or fold(self, *v))
    assert duhamel_residual(traj, free) == want
    # u0's group is the whole square group, 107 unknowns
    assert solves == [107] + [_unknowns(g, fld, order)] * (steps - 1)
    assert len(folds) == 2  # the first step's and the rest's, not one per step


def test_folded_duhamel_folds_by_the_states_too(interval_op):
    # states evolved under a V no mirror fixes, relabelled with one the
    # mirror fixes: the fold may not take the states to share V's mirrors
    g = interval_op.grid
    evolved = sample_potential(PotentialSpec.bounded("1 + 0.5*x"), g, ALPHA)
    fld = sample_potential(PotentialSpec.bounded("0.5"), g, ALPHA)
    traj = evolve(ImplicitStepper(interval_op, evolved, 1.0 / 32.0, lambda0=0.0), initial_state(g), 0.25)
    free = ImplicitStepper(interval_op, None, 1.0 / 32.0)
    want = _looped_duhamel(traj, interval_op, fld, free)
    assert duhamel_residual(replace(traj, potential=fld), free) == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
def test_evolve_stops_at_a_bad_solve(interval_op, bad, monkeypatch):
    # evolve checks only u0 on entry, so the step kernel
    # must stop at the solve that goes wrong
    solve, calls = _lapack.solve, []

    def faulty(factor, b):
        x = solve(factor, b)
        calls.append(len(b))
        if len(calls) == 3:
            x[len(x) // 2] = bad
        return x

    monkeypatch.setattr(_lapack, "solve", faulty)
    u0 = initial_state(interval_op.grid)
    with pytest.raises(SolveFailure):
        evolve(ImplicitStepper(interval_op, None, 1.0 / 32.0), u0, 0.25)
    assert len(calls) == 3


def test_evolve_rejects_a_stepper_for_another_step(interval_op):
    # evolve reads dt from its stepper: a t_final off its grid is refused
    stepper = ImplicitStepper(interval_op, None, 1.0 / 32.0)
    u0 = initial_state(interval_op.grid)
    traj = evolve(stepper, u0, 0.25)
    assert traj.dt == stepper.dt and traj.operator is interval_op
    with pytest.raises(ValueError, match="multiple"):
        evolve(stepper, u0, 0.25 + 1.0 / 64.0)
    # the Duhamel reconstruction's free flow must take the trajectory's step
    traj = evolve(ImplicitStepper(interval_op, None, 1.0 / 64.0), u0, 0.25)
    with pytest.raises(ValueError):
        duhamel_residual(traj, stepper)


def test_evolve_rejects_a_stepper_for_another_potential(interval_op):
    # a trajectory carries its stepper's potential: a free stepper's run is
    # labelled free, however V was meant
    fld = sample_potential(PotentialSpec.bounded("0.5"), interval_op.grid, ALPHA)
    u0 = initial_state(interval_op.grid)
    free = evolve(ImplicitStepper(interval_op, None, 1.0 / 32.0), u0, 0.5)
    assert not np.any(free.potential)
    stepper = ImplicitStepper(interval_op, fld, 1.0 / 32.0)
    traj = evolve(stepper, u0, 0.5)
    assert np.array_equal(traj.potential, fld) and traj.potential is stepper.potential
    assert np.all(unfolded_states(traj)[-1] > unfolded_states(free)[-1])
    # the Duhamel reconstruction's free flow must be free
    with pytest.raises(ValueError, match="potential"):
        duhamel_residual(traj, stepper)


def test_stepper_keeps_the_values_it_was_factored_with(interval_op):
    # a caller's writable array, changed after the stepper was built
    V = np.full(interval_op.n, 0.5)
    stepper = ImplicitStepper(interval_op, V, 1.0 / 32.0)
    u0 = initial_state(interval_op.grid)
    want = evolve(ImplicitStepper(interval_op, np.full(interval_op.n, 0.5), 1.0 / 32.0), u0, 0.25)
    V[:] = 2.0
    traj = evolve(stepper, u0, 0.25)
    assert np.array_equal(unfolded_states(traj), unfolded_states(want))
    assert np.array_equal(traj.potential, np.full(interval_op.n, 0.5))
    assert traj.k == math.inf
    with pytest.raises(ValueError):
        traj.potential[0] = 1.0


def test_family_potentials_are_the_read_only_truncations():
    from fracheat import hardy_sharp_constant

    level = mesh_level(DOM, ALPHA, PotentialSpec.hardy_interior(hardy_sharp_constant(1, ALPHA)), 1.0 / 64.0)
    ks = [0.5, 1.0, 4.0, float(level.potential.max()), math.inf]
    family = monotone_family(level, ks, initial_state(level.op.grid), 0.25, 1.0 / 32.0)
    for k, traj in zip(ks, family):
        assert not traj.potential.flags.writeable
        assert traj.potential.tobytes() == truncate(level.potential, k).tobytes()


def test_monotone_family_inactive_truncation(interval_op):
    u0 = initial_state(interval_op.grid)
    level = MeshLevel(interval_op, sample_potential(PotentialSpec.bounded("0.3"), interval_op.grid, ALPHA), 0.01)
    fam = monotone_family(level, [0.5, 1.0, 2.0], u0, 0.25, 1.0 / 32.0)
    # max V = 0.3 <= every level: all trajectories identical
    assert np.array_equal(unfolded_states(fam[0]), unfolded_states(fam[1]))
    assert np.array_equal(unfolded_states(fam[1]), unfolded_states(fam[2]))
    assert [t.k for t in fam] == [0.5, 1.0, 2.0]


def test_monotone_family_ordering():
    from fracheat import hardy_sharp_constant

    g = build_grid(DOM, 1.0 / 64.0)
    op = assemble_operator(g, ALPHA)
    c = 0.5 * hardy_sharp_constant(1, ALPHA)
    u0 = initial_state(g)
    level = MeshLevel(op, sample_potential(PotentialSpec.hardy_interior(c), g, ALPHA), 0.01)
    fam = monotone_family(level, [0.25, 0.5, 1.0, math.inf], u0, 0.25, 1.0 / 32.0)
    for lo, hi in zip(fam, fam[1:]):
        assert np.all(unfolded_states(hi) >= unfolded_states(lo) - 1e-10)
    # truncation at the lowest level is active, so the ordering is strict somewhere
    assert np.max(unfolded_states(fam[1]) - unfolded_states(fam[0])) > 1e-6
    # saturation once k dominates the sampled maximum
    fld = sample_potential(PotentialSpec.hardy_interior(c), g, ALPHA)
    big = truncate(fld, fld.max() + 1.0)
    same = evolve(ImplicitStepper(op, big, 1.0 / 32.0), u0, 0.25)
    assert np.array_equal(unfolded_states(same), unfolded_states(fam[-1]))


FAMILY_CASES = [
    # V fixed by the one mirror of the interval; null last, and a finite deepest level
    (DOM, 1.0 / 128.0, ALPHA, "hardy_1d", [0.5, 1.0, 2.0, math.inf]),
    (DOM, 1.0 / 128.0, ALPHA, "hardy_1d", [0.5, 1.0, 2.0]),
    # V fixed by both mirrors of the disk
    (DomainSpec.disk(1.0), 1.0 / 16.0, 1.0, "hardy_2d", [1.0, 4.0, math.inf]),
    # 0.2 <= V <= 0.8: k = 0.25 truncates almost every representative
    (DOM, 1.0 / 64.0, ALPHA, "bounded", [0.25, 0.5, math.inf]),
]


@pytest.mark.parametrize("domain, h, alpha, kind, ks", FAMILY_CASES)
def test_family_steppers_match_fresh_steppers(domain, h, alpha, kind, ks):
    from fracheat import hardy_sharp_constant

    potential = (PotentialSpec.bounded("0.5 + 0.3*cos(3*x)") if kind == "bounded" else
                 PotentialSpec.hardy_interior(2.0 * hardy_sharp_constant(domain.dimension, alpha)))
    level = mesh_level(domain, alpha, potential, h)
    assert len({level.effective_k(k) for k in ks}) == len(ks)
    floor = level.lambda0s([max(ks)])[0]
    dt = 1.0 / 32.0
    while dt * max(0.0, -floor) >= 0.45:
        dt *= 0.5
    u0 = initial_state(level.op.grid)
    family = monotone_family(level, ks, u0, 0.25, dt)
    for k, traj in zip(ks, family):
        fresh = ImplicitStepper(level.op, truncate(level.potential, k), dt, lambda0=floor)
        fresh.truncate(k)
        direct = evolve(fresh, u0, 0.25)
        assert traj.k == direct.k == k
        scale = np.max(unfolded_states(direct), axis=1, keepdims=True)
        assert np.max(np.abs(unfolded_states(traj) - unfolded_states(direct)) / scale) <= 1e-13
        np.testing.assert_allclose(traj.l2_norms, direct.l2_norms, rtol=1e-13, atol=0)
    # the deepest level is factored from scratch, as a fresh stepper is
    assert np.array_equal(unfolded_states(family[-1]), unfolded_states(direct))


def test_truncate_refactors_the_trailing_block_only(monkeypatch):
    from fracheat import hardy_sharp_constant

    g = build_grid(DOM, 1.0 / 128.0)
    op = assemble_operator(g, ALPHA)
    fld = sample_potential(PotentialSpec.hardy_interior(2.0 * hardy_sharp_constant(1, ALPHA)), g, ALPHA)
    stepper = ImplicitStepper(op, fld, 1.0 / 64.0, lambda0=0.0)
    u0 = initial_state(g)
    stepper.step(u0)
    orders = []
    real = _lapack.cholesky

    def counting(a):
        orders.append(len(a))
        return real(a)

    monkeypatch.setattr(_lapack, "cholesky", counting)
    reps = op.fold(fld)[0][0]
    previous = math.inf
    for k in (4.0, 2.0, 2.0, 1.0, 0.5):
        before = len(orders)
        stepper.truncate(k)
        assert np.array_equal(stepper.potential, truncate(fld, k))
        assert stepper.k == k
        # the representatives above k sit last in the factor's order, and
        # only their block is refactored; a repeated level refactors nothing
        above = int(np.sum(fld[reps] > k))
        assert orders[before:] == ([] if k == previous else [above])
        assert 0 < above < len(reps)
        fresh = ImplicitStepper(op, truncate(fld, k), 1.0 / 64.0, lambda0=0.0)
        np.testing.assert_allclose(stepper.step(u0), fresh.step(u0), rtol=1e-13, atol=0)
        previous = k
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            stepper.truncate(bad)
    assert np.array_equal(stepper.potential, truncate(fld, 0.5))


def test_duhamel_residual_free_flow(interval_op):
    u0 = initial_state(interval_op.grid)
    traj = evolve(ImplicitStepper(interval_op, None, 1.0 / 32.0), u0, 0.25)
    assert duhamel_residual(traj, ImplicitStepper(interval_op, None, 1.0 / 32.0)) <= 1e-13


def test_duhamel_residual_first_order(interval_op):
    fld = sample_potential(PotentialSpec.bounded("0.5 + 0.3*cos(3*x)"), interval_op.grid, ALPHA)
    u0 = initial_state(interval_op.grid)
    res = []
    for dt in (1.0 / 32.0, 1.0 / 64.0):
        traj = evolve(ImplicitStepper(interval_op, fld, dt), u0, 0.5)
        res.append(duhamel_residual(traj, ImplicitStepper(interval_op, None, dt)))
    assert res[0] / res[1] == pytest.approx(2.0, rel=0.2)


def test_duhamel_residual_solves_no_spectral_bottom(interval_op, monkeypatch):
    import fracheat.evolution

    fld = sample_potential(PotentialSpec.bounded("0.5 + 0.3*cos(3*x)"), interval_op.grid, ALPHA)
    traj = evolve(ImplicitStepper(interval_op, fld, 1.0 / 32.0), initial_state(interval_op.grid), 0.25)
    free = ImplicitStepper(interval_op, None, 1.0 / 32.0)
    calls = []
    real = fracheat.evolution.spectral_bottom

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fracheat.evolution, "spectral_bottom", counting)
    assert duhamel_residual(traj, free) < 0.1
    assert calls == []
    # a nonzero potential still pays for its step restriction
    fracheat.evolution.ImplicitStepper(interval_op, fld, 1.0 / 32.0)
    assert len(calls) == 1


def test_duhamel_scalar_identity():
    # one node, one step: the residual has a hand-computable closed form
    g = build_grid(DOM, 1.5)
    op = assemble_operator(g, ALPHA)
    fld = sample_potential(PotentialSpec.bounded("1.0"), g, ALPHA)
    dt = 1e-6
    traj = evolve(ImplicitStepper(op, fld, dt), np.array([1.0]), dt)
    r = duhamel_residual(traj, ImplicitStepper(op, None, dt))
    kappa = op.kappa[0]
    closed = dt * dt * 1.0 * kappa / (1.0 + dt * kappa)
    assert r <= 1e-12
    assert r == pytest.approx(closed, rel=1e-3)


def bump_phi(t, pts):
    return np.sin(2 * np.pi * t / 0.5) ** 2 * np.cos(0.5 * np.pi * pts[:, 0])


def bump_phi_t(t, pts):
    rate = 2 * np.pi / 0.5
    return 2 * np.sin(rate * t) * np.cos(rate * t) * rate * np.cos(0.5 * np.pi * pts[:, 0])


def test_variational_residual_zero_phi(interval_op):
    u0 = initial_state(interval_op.grid)
    traj = evolve(ImplicitStepper(interval_op, None, 1.0 / 32.0), u0, 0.5)
    zero = lambda t, pts: np.zeros(pts.shape[0])
    assert variational_residual(traj, zero) == 0.0


def test_variational_residual_refinement_decay():
    defects = []
    for h, dt in [(1 / 32, 1 / 32), (1 / 64, 1 / 64)]:
        g = build_grid(DOM, h)
        op = assemble_operator(g, ALPHA)
        fld = sample_potential(PotentialSpec.bounded("0.5 + 0.3*cos(3*x)"), g, ALPHA)
        traj = evolve(ImplicitStepper(op, fld, dt), initial_state(g), 0.5)
        defects.append(variational_residual(traj, bump_phi, bump_phi_t))
    assert defects[1] < 0.5 * defects[0]


def test_variational_boundary_term_vanishes_off_support():
    g = build_grid(DOM, 1.0 / 32.0)
    op = assemble_operator(g, ALPHA)
    u0 = initial_state(g, kind="ball", radius=0.25)
    mask = (np.abs(g.points[:, 0]) > 0.5).astype(float)
    phi0_vals = bump_phi(0.0, g.points) * mask + mask  # nonzero at t = 0, off u0's support
    assert op.cell_volume * np.dot(u0, phi0_vals) == 0.0


def test_two_dimensional_pipeline_smoke():
    # disk domain, alpha = 1: assembly, spectral bottom, evolution, bound
    from fracheat import exponential_bound_certificate

    g = build_grid(DomainSpec.disk(1.0), 0.25)
    op = assemble_operator(g, 1.0)
    L = op.fold(np.arange(op.n, dtype=float))[1]  # the trivial group, in node order
    assert np.max(np.abs(L - L.T)) == 0.0
    fld = sample_potential(PotentialSpec.hardy_interior(0.1), g, 1.0)
    lam = spectral_bottom(op, fld).lambda0
    traj = evolve(ImplicitStepper(op, fld, 1.0 / 32.0, lambda0=lam), initial_state(g), 0.25)
    assert np.min(unfolded_states(traj)) >= 0.0
    cert = exponential_bound_certificate(traj, lam)
    assert cert.satisfied

    rect = build_grid(DomainSpec.rectangle(1.0, 1.5), 0.25)
    op_r = assemble_operator(rect, 0.8)
    np.testing.assert_allclose(op_r.apply(np.ones(rect.n)), op_r.kappa, rtol=0, atol=1e-12)
    assert spectral_bottom(op_r).lambda0 > 0


def test_initial_state_kinds():
    g = build_grid(DOM, 1.0 / 32.0)
    for kind, kw in [("inradius_ball", {}), ("ball", {"radius": 0.25}), ("constant", {})]:
        u = initial_state(g, kind=kind, **kw)
        assert np.all(u >= 0)
        assert g.cell_volume * np.sum(u * u) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        initial_state(g, kind="ball", radius=-1.0)
    with pytest.raises(ValueError):
        initial_state(g, kind="ring")
    with pytest.raises(ValueError):
        initial_state(g, kind="ball", radius=1e-4)
