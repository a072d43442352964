"""Positivity-preserving implicit evolution of the truncated heat problems.

One backward-Euler step solves (I + dt (L - diag(V))) w = u.  Under the step
restriction dt * max(0, -lambda0) < 1/2 the system matrix is a Stieltjes
matrix (symmetric positive definite with nonpositive off-diagonals), so its
inverse is entrywise nonnegative and nonnegative states stay nonnegative.
Backward Euler is used instead of a second-order scheme precisely because
blow-up classification leans on this sign structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assembly import OperatorMatrix
from .errors import SolveFailure, StepTooLarge
from .geometry import Grid, stabilizers
from .potentials import truncate
from .spectral import MeshLevel, _potential_vector, _SortedFactor, spectral_bottom

STEP_RESTRICTION = 0.5
STEP_MARGIN = 0.45  # monotone_family halves dt until dt * max(0, -lambda0) is below it


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-indexed states of one truncated problem, and the problem: its
    operator, potential values (read-only) and step.

    The states are stored folded: rep_states, read-only of shape
    (len(times), m), holds their values at the representatives orbits[0]
    of the orbit table of the fold that stepped them (the mirrors that fix
    V and u0 fix every state), m = orbits.shape[1].  unfold and state_at
    carry rows over into a new read-only array of width n; every entry is
    >= 0.  l2_norms holds the discrete L2 norms sqrt(sum u_i^2 h^d) per
    stored time.
    """

    times: np.ndarray
    rep_states: np.ndarray
    orbits: np.ndarray
    k: float
    dt: float
    operator: OperatorMatrix
    potential: np.ndarray
    l2_norms: np.ndarray

    @property
    def grid(self) -> Grid:
        return self.operator.grid

    @property
    def max_values(self) -> np.ndarray:
        return self.rep_states.max(axis=1)

    def unfold(self, rows: np.ndarray) -> np.ndarray:
        """Rows of representatives' values, each carried over its orbits
        to all n nodes: a new read-only array."""
        out = np.empty(rows.shape[:-1] + (self.operator.n,))
        out[..., self.orbits] = rows[..., None, :]
        out.setflags(write=False)
        return out

    def index_of_time(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if not np.isclose(self.times[idx], t, rtol=1e-9, atol=1e-12):
            raise ValueError(f"time {t} is not on the trajectory's time grid")
        return idx

    def state_at(self, t: float) -> np.ndarray:
        return self.unfold(self.rep_states[self.index_of_time(t)])


class ImplicitStepper:
    """Backward-Euler stepper with the factorizations reused across steps.

    The step restriction is enforced with lambda0, any lower bound of the
    spectral bottom of L - diag(V) (such as a deeper truncation's), computed
    here when not given.  potential is its own read-only copy of V, k the
    least level truncate has applied (math.inf before any).  Each state u is
    stepped on the group of V's mirrors that leave u exactly invariant: the
    system I + dt (L - diag(V)) maps such states to such states, so it is
    solved with the block folded by that group (OperatorMatrix.fold), on
    one unknown per orbit, the representative's value over sqrt(s), s its
    stabilizer order.  One factor is kept per group met; a state under a V
    that the whole group fixes needs one block of about n / |group|
    unknowns, and the result is invariant under the same group, so evolve
    folds once for the whole trajectory.  truncate lowers V to min(V, k),
    refactoring only the trailing blocks where the two differ.
    """

    def __init__(self, M: OperatorMatrix, V, dt: float, lambda0: float | None = None):
        if not 0 < dt < np.inf:
            raise ValueError(f"time step must be positive and finite, got {dt}")
        vals = _potential_vector(M, V)
        # With V = 0 the restriction always holds: L has nonpositive
        # off-diagonals and row sums kappa > 0, so lambda0 >= min kappa > 0.
        if lambda0 is None and np.any(vals):
            lambda0 = spectral_bottom(M, vals).lambda0
        if lambda0 is not None and dt * max(0.0, -lambda0) >= STEP_RESTRICTION:
            raise StepTooLarge(
                f"dt={dt} violates dt * max(0, -lambda0) < {STEP_RESTRICTION} "
                f"with lambda0={lambda0:.6g}; need dt < {STEP_RESTRICTION / -lambda0:.6g}"
            )
        if vals.flags.writeable or vals.base is not None:  # the caller may change it
            vals = vals.copy()
            vals.setflags(write=False)
        self.M = M
        self.dt = float(dt)
        self.potential = vals
        self.k = math.inf
        self._factors = {}  # orbit table's bytes -> (table, factor)

    def _solver(self, *vectors) -> tuple:
        """The orbit table of the mirrors that fix V and every vector (or
        stack of them), the square roots of its stabilizer orders, and the
        factor of I + dt (L - diag(V)) folded by them: dt times L's cached
        block B (OperatorMatrix.fold, its rows sorted by V) with the
        diagonal set to 1 + dt (B_ii - V_i).  A representatives' vector
        taken with the table is in the factor's order."""
        orbits, block = self.M.fold(self.potential, *vectors)
        key = orbits.tobytes()
        if key not in self._factors:
            V = self.potential[orbits[0]]
            try:
                system = _SortedFactor(block, self.dt, 1.0 + self.dt * (np.diag(block) - V))
            except np.linalg.LinAlgError as exc:
                raise SolveFailure(f"factorization of the implicit system failed: {exc}")
            self._factors[key] = orbits, np.sqrt(stabilizers(orbits)), system
        return self._factors[key]

    def truncate(self, k: float) -> None:
        """Make this the stepper of min(V, k), in place.  min(V, k) <= V, so
        V's step restriction covers it.  Its rows sort by V, so each kept
        factor changes only in the trailing block of the representatives
        with V > k, and only that block is refactored."""
        self.potential = truncate(self.potential, k)
        self.k = min(self.k, float(k))
        for orbits, _, system in self._factors.values():
            system.update(1.0 + self.dt * (np.diag(system.B) - self.potential[orbits[0]]))

    def step(self, u: np.ndarray) -> np.ndarray:
        u = _checked_state(u, self.M.n)
        orbits, root, system = self._solver(u)
        w = np.empty(self.M.n)
        w[orbits] = _advance(system, root, u[orbits[0]])
        return w


def _checked_state(u, n: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise ValueError(f"state must have length {n}")
    if not np.all(np.isfinite(u)) or np.any(u < 0):
        raise ValueError("state must be finite and componentwise nonnegative")
    return u


def _node_columns(orbits: np.ndarray, n: int) -> np.ndarray:
    """Each node's column in rows of the representatives' values."""
    column = np.empty(n, dtype=int)
    column[orbits] = np.arange(orbits.shape[1])
    return column


def _advance(system: _SortedFactor, root: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One step on the representatives' values, in the factor's order: the
    solve with a stepper's factor on the folded unknowns u / root, clipped
    at 0, times root.  Raises SolveFailure on a non-finite value or a
    genuinely negative one."""
    w = system.solve(u / root)
    low, top = float(w.min()), float(w.max())  # max |w| is max(top, -low)
    if not (math.isfinite(low) and math.isfinite(top)) or low < -1e-10 * max(1.0, top, -low):
        raise SolveFailure(f"solver produced a non-finite or genuinely negative entry {low:.3e}")
    # inverse positivity holds exactly; clip roundoff-level negatives
    np.maximum(w, 0.0, out=w)
    w *= root
    return w


def evolve(stepper: ImplicitStepper, u0, t_final: float) -> Trajectory:
    """Evolve u0 to t_final by repeated steps of stepper, storing every
    state at the representatives of its fold (Trajectory).  t_final must
    be an integer multiple of the stepper's dt (to 1e-9 relative).  The
    trajectory carries the stepper's operator, dt, potential and
    truncation level k.
    """
    M, dt = stepper.M, stepper.dt
    u = _checked_state(u0, M.n)
    if not np.any(u > 0):
        raise ValueError("initial state must not be identically zero")
    steps = int(round(t_final / dt))
    if steps < 1 or abs(steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError(f"t_final={t_final} is not a positive multiple of dt={dt}")
    # the mirrors that fix V and u0 fix every later state: one fold
    orbits, root, system = stepper._solver(u)
    reps = np.empty((steps + 1, orbits.shape[1]))
    reps[0] = u[orbits[0]]
    for i in range(steps):
        reps[i + 1] = _advance(system, root, reps[i])
    reps.setflags(write=False)
    # the norms sum over every node: each state unfolded in turn into one buffer
    column = _node_columns(orbits, M.n)
    sums = np.empty(steps + 1)
    state = np.empty(M.n)
    for i, row in enumerate(reps):
        row.take(column, out=state)
        state *= state
        sums[i] = state.sum()
    return Trajectory(
        times=dt * np.arange(steps + 1),
        rep_states=reps,
        orbits=orbits,
        k=stepper.k,
        dt=dt,
        operator=M,
        potential=stepper.potential,
        l2_norms=np.sqrt(M.cell_volume * sums),
    )


def monotone_family(level: MeshLevel, k_schedule, u0, t_final: float, dt: float) -> list:
    """Trajectories of the truncated problems min(V, k) of one mesh level for
    every k in k_schedule (increasing; math.inf is untruncated), on one shared
    time grid; deeper truncations dominate shallower ones pointwise.  The
    step is the largest dt / 2^j with dt * max(0, -lambda0) < STEP_MARGIN at
    every level: min(V, k) grows with k, so the deepest level has the least
    lambda0, a lower bound for them all, which also enforces the step
    restriction.  One stepper serves the family: it is factored at the
    deepest level and truncated level by level towards the shallowest
    (ImplicitStepper.truncate).  Levels that share one potential
    (k >= max V) are evolved once; each trajectory carries its own k."""
    floor = level.lambda0s([max(k_schedule)])[0]
    while dt * max(0.0, -floor) >= STEP_MARGIN:
        dt *= 0.5
    deepest_first = sorted({level.effective_k(k) for k in k_schedule}, reverse=True)
    stepper = ImplicitStepper(level.op, truncate(level.potential, deepest_first[0]), dt, lambda0=floor)
    runs = {}
    for key in deepest_first:
        stepper.truncate(key)
        runs[key] = evolve(stepper, u0, t_final)
    return [replace(runs[level.effective_k(k)], k=float(k)) for k in k_schedule]


def duhamel_residual(traj: Trajectory, free: ImplicitStepper) -> float:
    """Defect of the trajectory against its free-evolution-plus-source
    reconstruction.

    The reconstruction R(t_n) = S^n u0 + dt * sum_{m=1..n} S^(n-m) (V u(t_m))
    applies free, the V = 0 stepper of the trajectory's operator and dt, for
    the free flow S, with V the trajectory's potential and a right-endpoint
    quadrature for the source integral, so the residual decays at the first
    order of the stepper.  Returns the maximum over stored times of
    ||u(t_n) - R(t_n)|| / ||u(t_n)|| in the discrete L2 norm.  The first
    free step, S u0, is ImplicitStepper.step on u0's own mirrors, as a
    state-by-state loop takes it (perfbench's traced run times that
    method); after it R is stepped on the representatives of the mirrors
    that fix V and every state, one fold as in evolve, and unfolded once
    per step for the norms.  The mirrors of the trajectory's orbit table
    fix every state, so the fold is by those of them that fix V: the
    mirrors that fix V and the vector of each node's column in the stored
    rows, which give the source.  When V stepped the trajectory, that is
    the trajectory's own fold.
    """
    M, vals = traj.operator, traj.potential
    if free.M is not M or free.dt != traj.dt or np.any(free.potential):
        raise ValueError("free stepper was factored for another operator, time step or a potential")
    column = _node_columns(traj.orbits, M.n)
    orbits, root, system = free._solver(vals, column)
    reps = orbits[0]
    source = traj.dt * vals[reps] * traj.rep_states[:, column[reps]]
    acc = traj.unfold(traj.rep_states[0])
    unfolded = np.empty(M.n)
    worst = 0.0
    for n in range(1, len(traj.times)):
        acc = (free.step(acc)[reps] if n == 1 else _advance(system, root, acc)) + source[n]
        unfolded[orbits] = acc
        state = traj.unfold(traj.rep_states[n])
        diff = np.linalg.norm(state - unfolded)
        denom = np.linalg.norm(state)
        if denom > 0:
            worst = max(worst, float(diff / denom))
    return worst


def initial_state(grid: Grid, kind: str = "inradius_ball", radius: float | None = None) -> np.ndarray:
    """Default nonnegative initial data, normalized to unit discrete L2 norm.

    kinds: "inradius_ball" (indicator of the largest origin-centered ball),
    "ball" (indicator of |x| < radius), "constant".
    """
    if kind == "constant":
        u = np.ones(grid.n)
    elif kind in ("inradius_ball", "ball"):
        r = grid.domain.inradius if kind == "inradius_ball" else radius
        if r is None or r <= 0:
            raise ValueError("ball initial state needs a positive radius")
        u = (np.linalg.norm(grid.points, axis=1) < r).astype(float)
        if not np.any(u > 0):
            raise ValueError(f"no grid node inside the ball of radius {r}")
    else:
        raise ValueError(f"unknown initial state kind {kind!r}")
    return u / np.sqrt(grid.cell_volume * np.sum(u * u))
