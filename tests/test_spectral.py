import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg

from fracheat import _lapack, evolution, spectral
from fracheat import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainSpec,
    PotentialSpec,
    assemble_operator,
    build_grid,
    evolve,
    hardy_sharp_constant,
    initial_state,
    refinement_series,
    sample_potential,
    spectral_bottom,
    truncate,
)
from fracheat.evolution import monotone_family
from fracheat.geometry import boundary_distance
from oracles import mesh_level, probe_balls, unfolded_states


def _series(domain, alpha, potential, h_schedule, k_schedule):
    levels = [mesh_level(domain, alpha, potential, h) for h in h_schedule]
    return refinement_series(levels, k_schedule)


def unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def test_form_energy_basics(interval_op):
    n = interval_op.n
    vol = interval_op.cell_volume

    def energy(f):
        return vol * f @ interval_op.apply(f)

    assert energy(np.zeros(n)) == 0.0
    e3 = unit(n, 3)
    assert energy(e3) == pytest.approx(interval_op.diagonal[3] * vol, rel=1e-14)
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = rng.standard_normal(n)
        killing = vol * np.sum(f * f * interval_op.kappa)
        assert energy(f) >= killing - 1e-10
    with pytest.raises(DimensionMismatch):
        energy(np.zeros(n + 1))


def test_spectral_bottom_single_node():
    op = assemble_operator(build_grid(DomainSpec.interval(1.0), 1.5), 0.5)
    res = spectral_bottom(op)
    assert res.lambda0 == pytest.approx(op.kappa[0], rel=1e-12)
    assert res.lambda0 > 0


def test_spectral_bottom_shift_covariance(interval_op):
    base = spectral_bottom(interval_op, np.zeros(interval_op.n))
    shifted = spectral_bottom(interval_op, np.full(interval_op.n, 3.7))
    assert shifted.lambda0 == pytest.approx(base.lambda0 - 3.7, abs=1e-10)


def test_spectral_bottom_rayleigh_bound(interval_op):
    rng = np.random.default_rng(2)
    V = rng.uniform(0.0, 2.0, interval_op.n)
    res = spectral_bottom(interval_op, V)
    vol = interval_op.cell_volume
    for _ in range(100):
        phi = rng.standard_normal(interval_op.n)
        quotient = (vol * phi @ interval_op.apply(phi) - vol * np.sum(phi * phi * V)) / (
            vol * np.sum(phi * phi)
        )
        assert res.lambda0 <= quotient + 1e-10


def test_ground_vector_single_signed(interval_op):
    res = spectral_bottom(interval_op)
    assert np.all(res.eigvec > 0)
    assert np.linalg.norm(res.eigvec) == pytest.approx(1.0, rel=1e-12)
    A = interval_op.apply(np.eye(interval_op.n))
    assert np.linalg.norm(A @ res.eigvec - res.lambda0 * res.eigvec) <= 1e-8


def test_spectral_bottom_monotone_in_potential(interval_op):
    rng = np.random.default_rng(5)
    V1 = rng.uniform(0.0, 1.0, interval_op.n)
    V2 = V1 + rng.uniform(0.0, 1.0, interval_op.n)
    assert spectral_bottom(interval_op, V2).lambda0 <= spectral_bottom(interval_op, V1).lambda0 + 1e-12


def test_convergence_failure_reports_iterations(interval_op, monkeypatch):
    solves = []
    real = _lapack.solve

    def counting(factor, b):
        solves.append(1)
        return real(factor, b)

    monkeypatch.setattr(_lapack, "solve", counting)
    monkeypatch.setattr(spectral, "RESIDUAL_TOL", 0.0)
    with pytest.raises(ConvergenceFailure) as info:
        spectral_bottom(interval_op)
    assert len(solves) > 1
    assert info.value.iterations == len(solves)


def test_potential_vector_validation(interval_op):
    with pytest.raises(DimensionMismatch):
        spectral_bottom(interval_op, np.zeros(interval_op.n - 1))
    with pytest.raises(ValueError):
        spectral_bottom(interval_op, np.full(interval_op.n, -1.0))
    with pytest.raises(ValueError):
        spectral_bottom(interval_op, np.full(interval_op.n, np.nan))


def test_refinement_series_bounded_shift():
    dom = DomainSpec.interval(1.0)
    pot = PotentialSpec.bounded("0.5 + 0.3*cos(3*x)")
    series = _series(dom, 0.5, pot, [1 / 16, 1 / 32], [0.25, 0.5, math.inf])
    assert len(series.entries) == 6
    free = {
        h: spectral_bottom(assemble_operator(build_grid(dom, h), 0.5)).lambda0
        for h in (1 / 16, 1 / 32)
    }
    for e in series.entries:
        assert e.lambda0 >= free[e.h] - 0.8 - 1e-12  # max V = 0.8
        assert e.epsilon == 0.01
    # lambda0 non-increasing in k at fixed h
    for h in (1 / 16, 1 / 32):
        lams = [e.lambda0 for e in series.entries if e.h == h]
        assert all(b <= a + 1e-12 for a, b in zip(lams, lams[1:]))


def test_refinement_series_supercritical_decreasing():
    from fracheat import hardy_sharp_constant

    c = 2.0 * hardy_sharp_constant(1, 0.5)
    series = _series(
        DomainSpec.interval(1.0), 0.5, PotentialSpec.hardy_interior(c),
        [1 / 64, 1 / 128, 1 / 256], [math.inf],
    )
    lams = [e.lambda0 for e in series.entries]
    assert all(b < a for a, b in zip(lams, lams[1:]))
    diffs = [a - b for a, b in zip(lams, lams[1:])]
    assert diffs[1] > diffs[0]  # accelerating descent, no stabilization


def test_refinement_series_subcritical_stabilizes():
    from fracheat import hardy_sharp_constant

    c = 0.5 * hardy_sharp_constant(1, 0.5)
    series = _series(
        DomainSpec.interval(1.0), 0.5, PotentialSpec.hardy_interior(c),
        [1 / 32, 1 / 64, 1 / 128], [math.inf],
    )
    lams = [e.lambda0 for e in series.entries]
    diffs = [abs(a - b) for a, b in zip(lams, lams[1:])]
    assert diffs[1] < diffs[0]


def test_series_csv_format(tmp_path):
    series = _series(
        DomainSpec.interval(1.0), 0.5, PotentialSpec.bounded("1"), [1 / 8], [1.0, math.inf]
    )
    path = tmp_path / "series.csv"
    series.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "h,k,epsilon,lambda0,iterations"
    assert len(lines) == 3
    assert lines[2].split(",")[1] == "inf"


def _dense_bottom(op, V):
    """Oracle: the dense symmetric eigensolver on L - diag(V), sign fixed
    so the ground vector sums to a nonnegative value."""
    w, vecs = linalg.eigh(op.apply(np.eye(op.n)) - np.diag(V), subset_by_index=[0, 0])
    v = vecs[:, 0]
    return float(w[0]), (v if v.sum() >= 0 else -v)


SOLVER_CASES = {
    "interval_bounded": (DomainSpec.interval(1.0), 1 / 64, 0.5, PotentialSpec.bounded("0.5 + 0.3*cos(3*x)")),
    "interval_hardy": (DomainSpec.interval(1.0), 1 / 64, 0.5,
                       PotentialSpec.hardy_interior(2.0 * hardy_sharp_constant(1, 0.5))),
    "disk_bounded": (DomainSpec.disk(1.0), 1 / 8, 1.0, PotentialSpec.bounded("1.5 + x*y - 0.5*r")),
    "disk_hardy": (DomainSpec.disk(1.0), 1 / 8, 1.0,
                   PotentialSpec.hardy_interior(2.0 * hardy_sharp_constant(2, 1.0))),
}


@pytest.mark.parametrize("case", sorted(SOLVER_CASES))
def test_solver_matches_dense_oracle(case):
    domain, h, alpha, potential = SOLVER_CASES[case]
    op = assemble_operator(build_grid(domain, h), alpha)
    fld = sample_potential(potential, op.grid, alpha)
    top = float(fld.max())
    warm = None
    for k in (0.25 * top, 0.5 * top, math.inf):
        V = truncate(fld, k)
        lam, vec = _dense_bottom(op, V)
        # cold start, then warm from the eigenvector of the previous k
        for v0 in (None, warm):
            res = spectral_bottom(op, V, v0=v0)
            assert res.lambda0 == pytest.approx(lam, rel=1e-12)
            assert np.linalg.norm(res.eigvec - vec) <= 1e-10
            assert res.iterations >= 1
        warm = res.eigvec


FOLD_CASES = {  # mirror-symmetric problems; the disk at a finer spacing
    "interval_bounded": SOLVER_CASES["interval_bounded"],
    "interval_hardy": SOLVER_CASES["interval_hardy"],
    "disk_bounded": (DomainSpec.disk(1.0), 1 / 16, 1.0, PotentialSpec.bounded("1.5 + x*x*y*y - 0.5*r")),
    "disk_hardy": (DomainSpec.disk(1.0), 1 / 16, 1.0,
                   PotentialSpec.hardy_interior(2.0 * hardy_sharp_constant(2, 1.0))),
}


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_folded_bottom_matches_unfolded_solver(case):
    domain, h, alpha, potential = FOLD_CASES[case]
    op = assemble_operator(build_grid(domain, h), alpha)
    V = sample_potential(potential, op.grid, alpha)
    assert len(op.fold(V)[0]) == (8 if domain.kind == "disk" else 2)  # the disk's square group
    L = op.apply(np.eye(op.n))
    full = spectral._ground_states(L, [V])[0]
    folded = spectral_bottom(op, V)
    assert folded.lambda0 == pytest.approx(full.lambda0, rel=1e-12)
    assert np.linalg.norm(folded.eigvec - full.eigvec) <= 1e-10
    assert np.linalg.norm(L @ folded.eigvec - V * folded.eigvec
                          - folded.lambda0 * folded.eigvec) <= spectral.RESIDUAL_TOL


@pytest.mark.parametrize("h", [1 / 12, 1 / 16])
def test_square_group_bottom_matches_dense_eigh(h):
    # the disk's whole group folds a radial V: 60 or 107 unknowns, among
    # them the orbits of 4 on the diagonals, against the full matrix
    op = assemble_operator(build_grid(DomainSpec.disk(1.0), h), 1.0)
    V = sample_potential(FOLD_CASES["disk_hardy"][3], op.grid, 1.0)
    orbits = op.fold(V)[0]
    assert orbits.shape == ((8, 60) if h == 1 / 12 else (8, 107))
    L = replace(op).fold(np.arange(op.n, dtype=float))[1]  # L in node order
    w, vecs = linalg.eigh(L - np.diag(V), subset_by_index=[0, 0])
    want = vecs[:, 0] * np.sign(vecs[:, 0].sum())
    for v0 in (None, np.ones(op.n)):
        res = spectral_bottom(op, V, v0=v0)
        assert res.lambda0 == pytest.approx(w[0], rel=1e-12)
        assert np.linalg.norm(res.eigvec - want) <= 1e-10
        assert np.linalg.norm(res.eigvec) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("h, expr", [(1 / 64, "1 + 0.5*x"), (0.03, "0.5 + 0.3*cos(3*x)")])
def test_asymmetric_problem_solves_on_the_full_matrix(h, expr):
    # no mirror applies: group order 1, and the solve is the unfolded one on
    # the whole matrix in the fold's order, V's, returned in node order.  At
    # h = 1/64 V is fixed by no mirror; at h = 0.03 the grid has none
    op = assemble_operator(build_grid(DomainSpec.interval(1.0), h), 0.5)
    V = sample_potential(PotentialSpec.bounded(expr), op.grid, 0.5)
    orbits = op.fold(V)[0]
    assert len(orbits) == 1
    order = orbits[0]
    assert np.array_equal(order, np.argsort(V, kind="stable"))
    # L in node order, bit for bit: a fold by a vector no mirror fixes, on a
    # copy of op without the fold by V cached
    L = replace(op).fold(np.arange(op.n, dtype=float))[1]
    lam, vec = _dense_bottom(op, V)
    profile = boundary_distance(op.grid) ** (op.alpha / 2)  # the default start
    warm = np.random.default_rng(4).uniform(0.5, 1.0, op.n)
    for v0, start in ((None, profile), (warm, warm)):
        full = spectral._ground_states(L[np.ix_(order, order)], [V[order]], start[order])[0]
        res = spectral_bottom(op, V, v0=v0)
        assert res.lambda0 == full.lambda0
        assert np.array_equal(res.eigvec[order], full.eigvec)
        assert np.linalg.norm(L @ res.eigvec - V * res.eigvec - res.lambda0 * res.eigvec) <= spectral.RESIDUAL_TOL
        assert res.lambda0 == pytest.approx(lam, rel=1e-12)
        assert np.linalg.norm(res.eigvec - vec) <= 1e-10


def test_operator_folded_once_per_subgroup():
    # solves on one operator share one fold per mirror subgroup, ordered by
    # the first solve's potential, and give the floats of solves that each
    # fold a freshly assembled operator first by that potential
    domain, h, alpha, potential = FOLD_CASES["disk_hardy"]
    grid = build_grid(domain, h)
    V = sample_potential(potential, grid, alpha)
    Vs = [V, 0.5 * V, np.minimum(V, 1.0), V + 0.1 * (grid.points[:, 0] > 0)]
    fresh = []
    for W in Vs:
        op = assemble_operator(grid, alpha)
        op.fold(V)
        fresh.append(spectral_bottom(op, W))
    op = assemble_operator(grid, alpha)
    cached = [spectral_bottom(op, W) for W in Vs]
    assert len(op._folds) == 2
    assert [len(op.fold(W)[0]) for W in Vs] == [8, 8, 8, 2]
    assert len(op._folds) == 2
    for W, got, want in zip(Vs, cached, fresh):
        assert got.lambda0 == want.lambda0
        assert np.array_equal(got.eigvec, want.eigvec)
        # a fold in W's own order rounds differently
        own = spectral_bottom(assemble_operator(grid, alpha), W)
        assert got.lambda0 == pytest.approx(own.lambda0, rel=1e-12)
        assert np.linalg.norm(got.eigvec - own.eigvec) <= 1e-10


def test_solver_warm_start_validated(interval_op):
    with pytest.raises(DimensionMismatch):
        spectral_bottom(interval_op, v0=np.ones(interval_op.n + 1))
    for bad in (np.zeros(interval_op.n), np.full(interval_op.n, np.nan)):
        with pytest.raises(ValueError):
            spectral_bottom(interval_op, v0=bad)


START_CASES = {
    "interval": (DomainSpec.interval(1.0), 1 / 64, 0.5, PotentialSpec.bounded("0.5 + 0.3*cos(3*x)")),
    "disk": (DomainSpec.disk(1.0), 1 / 12, 1.0,
             PotentialSpec.hardy_interior(2.0 * hardy_sharp_constant(2, 1.0))),
    "rectangle": (DomainSpec.rectangle(1.0, 0.5), 1 / 16, 0.8, PotentialSpec.bounded("1 + x*x - 0.5*y*y")),
}


@pytest.mark.parametrize("case", sorted(START_CASES))
def test_boundary_profile_start_matches_constant_start(case):
    # without v0 the solve starts from delta^(alpha/2); the bottom is that
    # of a start from the constant vector
    domain, h, alpha, potential = START_CASES[case]
    op = assemble_operator(build_grid(domain, h), alpha)
    V = sample_potential(potential, op.grid, alpha)
    for W in (V, None):
        res = spectral_bottom(op, W)
        const = spectral_bottom(op, W, v0=np.ones(op.n))
        assert res.lambda0 == pytest.approx(const.lambda0, rel=1e-12)
        assert np.linalg.norm(res.eigvec - const.eigvec) <= 1e-10


def test_cold_families_take_no_more_solves_from_the_boundary_profile():
    # the cold families of a disk run: each mesh's first (scaled) family,
    # the free bottom and the shrinking-ball bottom
    from fracheat.diagnostics import default_ball_schedule

    disk = DomainSpec.disk(1.0)
    potential = PotentialSpec.hardy_interior(2.0 * hardy_sharp_constant(2, 1.0))
    scale = 1.0 - potential.epsilon
    for h in (1 / 8, 1 / 12):
        level = mesh_level(disk, 1.0, potential, h)
        [(ball, V)] = probe_balls(disk, 1.0, potential, default_ball_schedule(disk, h), h)
        families = [(level.op, [scale * truncate(level.potential, k) for k in (math.inf, 4, 1)]),
                    (level.op, [None]), (assemble_operator(ball, 1.0), [scale * V])]
        for op, potentials in families:
            profile = spectral.spectral_bottoms(op, potentials)
            const = spectral.spectral_bottoms(op, potentials, v0=np.ones(op.n))
            assert sum(r.iterations for r in profile) <= sum(r.iterations for r in const)


def test_disk_factors_take_the_fold_in_its_order(monkeypatch):
    # the mesh's fold is ordered by V, so every factor of the mesh (scaled
    # and unscaled bottoms, truncated and free steppers, the free bottom)
    # copies its trailing blocks from it without an index gather
    level = mesh_level(DomainSpec.disk(1.0), 1.0, FOLD_CASES["disk_hardy"][3], 1 / 12)
    ks = (1, 4, math.inf)
    op = level.op
    assert len(op.fold(level.potential)[0]) == 8
    gathers = _counting(monkeypatch, np, "ix_")
    factors = _counting(monkeypatch, spectral._SortedFactor, "_trailing")
    level.bottoms(ks)
    level.lambda0s(ks)
    u0 = initial_state(op.grid)
    monotone_family(level, ks, u0, 0.25, 1 / 64)
    evolution.ImplicitStepper(op, None, 1 / 64).step(u0)
    spectral_bottom(op)
    assert len(factors) > 10 and gathers == []


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _folded_direction(v, orbits, order):
    """The unit direction of v's representatives' values in a family's
    sorted order, as its Lanczos runs see them."""
    w = v[orbits[0]][order]
    return w / np.linalg.norm(w)


def test_mesh_level_solves_each_family_deepest_first(monkeypatch):
    families = _counting(monkeypatch, spectral, "spectral_bottoms")
    starts = _counting(monkeypatch, spectral, "_lanczos_top")
    level = mesh_level(DomainSpec.interval(1.0), 0.5, PotentialSpec.bounded("0.5 + 0.3*cos(3*x)"), 1 / 32)
    ks = (0.25, 0.5, math.inf)
    series = refinement_series([level], ks)
    assert len(families) == 1  # the series needs only the scaled bottoms: one family
    # unscaled bottoms are solved on demand, as one more family
    lambdas = level.lambda0s(ks)
    assert len(families) == 2
    eps = level.epsilon
    orbits = level.op.fold(level.potential)[0]
    assert len(orbits) == 2
    for i, ((op, potentials), kwargs, results) in enumerate(families):
        # each effective level once per scale, deepest first
        scale = 1.0 - eps if i == 0 else 1.0
        assert op is level.op and len(potentials) == len(results) == 3
        for V, k in zip(potentials, (math.inf, 0.5, 0.25)):
            np.testing.assert_array_equal(V, scale * truncate(level.potential, k))
        # a family starts from the deepest eigenvector of the one before
        assert kwargs["v0"] is (None if i == 0 else families[0][2][0].eigvec)
        order = np.argsort(potentials[0][orbits[0]], kind="stable")
        first = starts[3 * i][0][1]
        if i == 0:  # the boundary profile delta^(alpha/2)
            profile = boundary_distance(level.op.grid) ** (level.op.alpha / 2)
            np.testing.assert_allclose(first, _folded_direction(profile, orbits, order), atol=1e-15)
        else:
            np.testing.assert_allclose(first, _folded_direction(kwargs["v0"], orbits, order), atol=1e-15)
        # and each later level from the eigenvector of the level before
        for j in (1, 2):
            start = starts[3 * i + j][0][1]
            want = _folded_direction(results[j - 1].eigvec, orbits, order)
            np.testing.assert_allclose(start / np.linalg.norm(start), want, atol=1e-15)
    assert len(starts) == 6
    # series entries and later calls read the cached bottoms
    assert [e.lambda0 for e in series.entries] == [r.lambda0 for r in families[0][2][::-1]]
    assert [e.iterations for e in series.entries] == [r.iterations for r in families[0][2][::-1]]
    assert all(a is b for a, b in zip(level.bottoms(ks), families[0][2][::-1]))
    assert lambdas == [r.lambda0 for r in families[1][2][::-1]]
    assert level.lambda0s(ks) == lambdas
    assert [level.lambda0s([k])[0] for k in ks] == lambdas
    assert level.lambda0s([max(ks)])[0] == lambdas[-1]
    assert len(families) == 2 and len(starts) == 6


def test_truncated_bottoms_do_not_increase_with_k():
    # min(V, k) grows with k, so L - min(V, k) decreases in the form order
    hardy = PotentialSpec.hardy_interior(2.0 * hardy_sharp_constant(1, 0.5))
    for potential in (hardy, PotentialSpec.bounded("0.5 + 0.3*cos(3*x)")):
        level = mesh_level(DomainSpec.interval(1.0), 0.5, potential, 1 / 64)
        ks = [0.25, 0.5, 1, 2, 4, 8, 16, math.inf]
        lambdas = [level.lambda0s([k])[0] for k in ks]
        assert all(l2 <= l1 for l1, l2 in zip(lambdas, lambdas[1:]))
        assert level.lambda0s([max(ks)])[0] == min(lambdas)


def test_shared_truncations_solve_and_evolve_once(monkeypatch):
    families = _counting(monkeypatch, spectral, "spectral_bottoms")
    evolves = _counting(monkeypatch, evolution, "evolve")
    # max V = 0.8, so k = 1, 2 and inf all give the untruncated potential
    level = mesh_level(DomainSpec.interval(1.0), 0.5, PotentialSpec.bounded("0.5 + 0.3*cos(3*x)"), 1 / 32)
    ks = [0.25, 1, 2.0, math.inf]
    assert [level.effective_k(k) for k in ks] == [0.25, math.inf, math.inf, math.inf]
    u0 = initial_state(level.op.grid)
    family = monotone_family(level, ks, u0, 0.25, 1 / 32)
    # the deepest unscaled bottom bounds every level: a family of one
    assert [len(potentials) for (_, potentials), _, _ in families] == [1]
    # one evolve per effective level, deepest first
    assert [traj.k for _, _, traj in evolves] == [math.inf, 0.25]
    for k, (_, _, traj) in zip([math.inf, 0.25], evolves):
        assert np.array_equal(traj.potential, truncate(level.potential, k))
    # one scaled family, in which one solve serves every name of the untruncated potential
    scaled = level.bottoms(ks)
    assert [len(potentials) for (_, potentials), _, _ in families] == [1, 2]
    assert scaled[1] is scaled[2] is scaled[3] is level.bottoms([1])[0] is level.bottoms([math.inf])[0]
    assert len(families) == 2
    assert [traj.k for traj in family] == [0.25, 1.0, 2.0, math.inf]
    # the shared levels hold one stored array of representatives' states
    assert family[1].rep_states is family[2].rep_states is family[3].rep_states is evolves[0][2].rep_states
    assert family[0].rep_states is evolves[1][2].rep_states
    assert family[0].rep_states is not family[1].rep_states
    for k, traj in zip(ks, family):
        V = level.potential if k == math.inf else truncate(level.potential, k)
        stepper = evolution.ImplicitStepper(level.op, V, 1 / 32)  # a fresh stepper's factor
        stepper.truncate(k)
        direct = evolve(stepper, u0, 0.25)
        assert traj.k == direct.k
        if level.effective_k(k) == math.inf:
            # the deepest level's factor is a fresh one
            assert np.array_equal(unfolded_states(traj), unfolded_states(direct))
            assert np.array_equal(traj.l2_norms, direct.l2_norms)
        else:
            # a refactored trailing block rounds differently
            np.testing.assert_allclose(unfolded_states(traj), unfolded_states(direct), rtol=1e-13, atol=0)
            np.testing.assert_allclose(traj.l2_norms, direct.l2_norms, rtol=1e-13, atol=0)


HARDY_1D = PotentialSpec.hardy_interior(2.0 * hardy_sharp_constant(1, 0.5))
FAMILY_CASES = {
    # V fixed by the one mirror of the interval
    "interval_hardy": (DomainSpec.interval(1.0), 1 / 128, 0.5, HARDY_1D, [0.5, 1, 2, 4, math.inf]),
    # a schedule without null: the deepest level is a finite truncation
    "interval_hardy_finite": (DomainSpec.interval(1.0), 1 / 128, 0.5, HARDY_1D, [0.5, 1, 2]),
    # V fixed by both mirrors of the disk
    "disk_hardy": (DomainSpec.disk(1.0), 1 / 16, 1.0,
                   PotentialSpec.hardy_interior(2.0 * hardy_sharp_constant(2, 1.0)), [1, 4, math.inf]),
    # 0.2 <= V <= 0.8: k = 0.25 truncates almost every representative
    "interval_bounded": (DomainSpec.interval(1.0), 1 / 64, 0.5,
                         PotentialSpec.bounded("0.5 + 0.3*cos(3*x)"), [0.25, 0.5, math.inf]),
}


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_bottoms_match_single_level_solves(case):
    domain, h, alpha, potential, ks = FAMILY_CASES[case]
    level = mesh_level(domain, alpha, potential, h)
    op, scale = level.op, 1.0 - level.epsilon
    assert len(op.fold(level.potential)[0]) == (8 if domain.kind == "disk" else 2)
    keys = [level.effective_k(k) for k in ks]
    assert len(set(keys)) == len(ks)
    truncated = [np.sum(level.potential > k) / op.n for k in keys]
    assert truncated[0] > (0.8 if case == "interval_bounded" else 0.0)
    for s in (scale, 1.0):  # the series' bottoms, then the unscaled ones
        for k, res in zip(ks, level._solve(ks, s)):
            single = spectral_bottom(op, s * truncate(level.potential, k))
            assert res.lambda0 == pytest.approx(single.lambda0, rel=1e-12)
            assert np.linalg.norm(res.eigvec - single.eigvec) <= 1e-10
            assert np.linalg.norm(op.apply(res.eigvec) - s * truncate(level.potential, k) * res.eigvec
                                  - res.lambda0 * res.eigvec) <= spectral.RESIDUAL_TOL


