"""Discrete form energies and the spectral bottom of the Schroedinger matrix.

The spectral bottom of L - diag(V) is the discrete stand-in for the infimum
of the Rayleigh quotient (form energy minus potential mass over L2 mass);
its behaviour under mesh refinement and truncation deepening is the raw
evidence the classifier consumes.

The grid's axis mirrors that also leave V invariant generate a group Z2^m
that commutes with L - diag(V).  Since L - diag(V) is an irreducible
Z-matrix, its ground vector is positive (Perron-Frobenius), so invariant
under every mirror of the group: it is found from the values at one
representative of each orbit, on the n / 2^m block OperatorMatrix.fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _lapack
from .assembly import OperatorMatrix, assemble_operator
from .errors import ConvergenceFailure, DimensionMismatch
from .geometry import DomainSpec, boundary_distance, build_grid
from .potentials import PotentialField, PotentialSpec, sample_potential, truncate

RESIDUAL_TOL = 1e-8
SHIFT_TRIES = 40
LANCZOS_VECTORS = 8  # Lanczos vectors per cycle
LANCZOS_TOL = 1e-14  # Ritz residual bound, relative to the Ritz value
LANCZOS_RESTARTS = 100  # cycles; the shipped configs need at most 4


class SpectralResult(NamedTuple):
    lambda0: float
    eigvec: np.ndarray
    iterations: int


def _potential_vector(M: OperatorMatrix, V) -> np.ndarray:
    if V is None:
        return np.zeros(M.n)
    vals = getattr(V, "values", V)
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (M.n,):
        raise DimensionMismatch(f"potential has shape {vals.shape}, operator size {M.n}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("potential vector must be finite")
    if np.any(vals < 0):
        raise ValueError("potential vector must be nonnegative")
    return vals


def _fix_sign(v: np.ndarray) -> np.ndarray:
    s = v.sum()
    if s < 0 or (s == 0 and v[np.argmax(np.abs(v))] < 0):
        return -v
    return v


def spectral_bottom(M: OperatorMatrix, V=None, v0=None) -> SpectralResult:
    """Smallest eigenvalue and unit ground vector of M - diag(V).

    Solved on M.fold(V), the block folded by the mirrors that leave V
    invariant (the whole matrix when none does), by shift-invert Lanczos
    about a shift that a Cholesky factorization certifies to lie below the
    spectrum; v0 is the
    warm start (default the constant vector), summed over each orbit.  The
    returned pair, unfolded, always satisfies ||(M - V) v - lambda v|| <=
    RESIDUAL_TOL on the full matrix; otherwise ConvergenceFailure is raised.
    iterations counts the shift-invert solves.  The eigenvector sign is
    fixed so its sum is nonnegative.
    """
    vals = _potential_vector(M, V)
    if v0 is not None:
        v0 = np.asarray(v0, dtype=float)
        if v0.shape != (M.n,):
            raise DimensionMismatch(f"expected a vector of length {M.n}, got shape {v0.shape}")
        if not (np.all(np.isfinite(v0)) and np.any(v0)):
            raise ValueError("warm start must be finite and nonzero")
    orbits, block = M.fold(vals)
    warm = None if v0 is None else v0[orbits].sum(axis=0)
    res = _ground_state(block, vals[orbits[0]], warm)
    if len(orbits) == 1:
        return res
    v = np.empty(M.n)
    v[orbits] = res.eigvec / math.sqrt(len(orbits))
    return _checked_pair(M.apply(v), vals, v, res.iterations)


def _ground_state(B: np.ndarray, d: np.ndarray, v0=None) -> SpectralResult:
    """Bottom eigenpair of A = B - diag(d), B dense symmetric.

    From the warm vector's Rayleigh quotient rho and residual r, the shift
    sigma = rho - delta starts at delta = max(1.01 ||r||, 1e-6 max(1, |rho|))
    and delta grows fourfold until A - sigma I factors.  A successful Cholesky
    proves sigma < lambda0, so the dominant eigenpair of (A - sigma I)^-1 is
    the bottom one.  lambda is returned as the Rayleigh quotient v.Av.
    """
    n = B.shape[0]
    if n == 1:  # a 1 x 1 matrix is its own bottom
        return SpectralResult(lambda0=float(B[0, 0] - d[0]), eigvec=np.ones(1), iterations=0)
    v = np.ones(n) if v0 is None else np.array(v0, dtype=float)
    v /= np.linalg.norm(v)
    Av = B @ v - d * v
    rho = float(v @ Av)
    delta = max(1.01 * float(np.linalg.norm(Av - rho * v)), 1e-6 * max(1.0, abs(rho)))
    for _ in range(SHIFT_TRIES):
        sigma = rho - delta
        shifted = B.copy()
        shifted.flat[:: n + 1] -= d + sigma
        try:
            factor = _lapack.cholesky(shifted)
            break
        except np.linalg.LinAlgError:
            delta *= 4.0
    else:
        raise ConvergenceFailure(
            f"no shift below the spectrum found in {SHIFT_TRIES} factorizations", iterations=0
        )
    v, solves = _lanczos_top(lambda b: _lapack.solve(factor, b), v)
    v = _fix_sign(v / np.linalg.norm(v))
    return _checked_pair(B @ v, d, v, solves)


def _lanczos_top(solve, v: np.ndarray) -> tuple:
    """Top eigenvector of the symmetric positive definite operator solve,
    started from v: explicitly restarted Lanczos with LANCZOS_VECTORS
    vectors per cycle, full reorthogonalization (two Gram-Schmidt passes)
    and a restart from the top Ritz vector.  After every step the top Ritz
    pair (theta, s) of the tridiagonal T_j is tested for
    |beta_j s_j| <= LANCZOS_TOL theta, the residual norm of the Ritz pair;
    beta_j is 0 once the cycle spans the whole space.  Returns the Ritz
    vector and the number of solves; ConvergenceFailure after
    LANCZOS_RESTARTS cycles."""
    n = len(v)
    m = min(LANCZOS_VECTORS, n)
    Q = np.empty((m, n))
    T = np.zeros((m, m))
    solves = 0
    for _ in range(LANCZOS_RESTARTS):
        Q[0] = v / np.linalg.norm(v)
        for j in range(m):
            w = solve(Q[j])
            solves += 1
            T[j, j] = Q[j] @ w
            w -= T[j, j] * Q[j]
            if j:
                w -= T[j, j - 1] * Q[j - 1]
            for _ in range(2):
                w -= (Q[: j + 1] @ w) @ Q[: j + 1]
            beta = float(np.linalg.norm(w)) if j + 1 < n else 0.0
            # a 1 x 1 tridiagonal is its own Ritz pair
            theta, S = np.linalg.eigh(T[: j + 1, : j + 1]) if j else (T[0, :1], np.ones((1, 1)))
            converged = abs(beta * S[j, -1]) <= LANCZOS_TOL * theta[-1]
            if converged or j + 1 == m:
                break
            T[j + 1, j] = T[j, j + 1] = beta
            Q[j + 1] = w / beta
        v = S[:, -1] @ Q[: j + 1]
        if converged:
            return v, solves
    raise ConvergenceFailure(
        f"shift-invert Lanczos did not converge in {LANCZOS_RESTARTS} restarts", iterations=solves
    )


def _checked_pair(Bv: np.ndarray, d: np.ndarray, v: np.ndarray, solves: int) -> SpectralResult:
    """The Rayleigh quotient of B - diag(d) at the unit vector v, given
    Bv = B v, once the residual of the pair is within RESIDUAL_TOL."""
    Av = Bv - d * v
    lam = float(v @ Av)
    residual = float(np.linalg.norm(Av - lam * v))
    if residual > RESIDUAL_TOL:
        raise ConvergenceFailure(
            f"eigen residual {residual:.3e} above tolerance {RESIDUAL_TOL:.1e}",
            iterations=solves,
        )
    return SpectralResult(lambda0=lam, eigvec=v, iterations=solves)


def estimate_boundary_hardy_constant(operators) -> dict:
    """Discrete sharp coupling for the boundary-distance potential.

    No closed form is available for the coupling that separates existence
    from blow-up when the potential is coupling / dist(x, boundary)^alpha.
    This estimates it as the infimum of form energy over potential mass,
    i.e. the smallest generalized eigenvalue of (L, D), D = diag(delta^-alpha),
    on each operator of a refinement schedule.  It is the spectral bottom of
    D^-1/2 L D^-1/2, again a symmetric Z-matrix, found by the same solver as
    every ground state, on the block folded by the mirrors that fix delta
    (its ground vector is positive, so invariant under them).  Returns
    {"series": [(h, value), ...], "estimate": last value}; the limit is
    observed, not certified.
    """
    series = []
    for op in operators:
        delta = boundary_distance(op.grid)
        orbits, block = op.fold(delta)
        root = delta[orbits[0]] ** (0.5 * op.alpha)  # the diagonal of D^-1/2
        block = root[:, None] * block * root
        mu = _ground_state(block, np.zeros(len(root))).lambda0
        series.append((float(op.grid.h), float(mu)))
    return {"series": series, "estimate": series[-1][1]}


@dataclass(frozen=True)
class SpectralEntry:
    h: float
    k: float  # truncation level; math.inf is the untruncated potential
    epsilon: float
    lambda0: float
    iterations: int


@dataclass
class SpectralSeries:
    """Spectral bottoms over a (mesh, truncation) schedule for one potential."""

    entries: list

    def deepest_per_mesh(self) -> list:
        """One entry per spacing, at the deepest truncation level recorded,
        in the order the spacings first appear."""
        out = {}
        for e in self.entries:
            if e.h not in out or e.k >= out[e.h].k:
                out[e.h] = e
        return list(out.values())

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("h,k,epsilon,lambda0,iterations\n")
            for e in self.entries:
                fh.write(f"{e.h!r},{e.k!r},{e.epsilon!r},{e.lambda0!r},{e.iterations}\n")


class MeshLevel:
    """One spacing h: grid, operator, the untruncated sampled potential, and
    each distinct truncation min(V, k) with its spectral bottoms, computed
    once.  The level k = math.inf is the untruncated field; every k >= max V
    leaves the field bit-for-bit unchanged and shares its results.
    """

    def __init__(self, op: OperatorMatrix, fld: PotentialField):
        self.h = op.grid.h
        self.op = op
        self.field = fld
        self._fields = {}
        self._bottoms = {}  # (effective k, potential scale) -> SpectralResult
        self._warm = None  # eigenvector of the latest solve on this mesh

    @classmethod
    def build(cls, domain: DomainSpec, alpha: float, potential: PotentialSpec, h: float):
        grid = build_grid(domain, h)
        op = assemble_operator(grid, alpha)
        return cls(op, sample_potential(potential, grid, alpha))

    def effective_k(self, k):
        """The truncation level that min(V, k) actually applies: math.inf
        when k >= max V."""
        return math.inf if k >= self.field.max_value else k

    def field_at(self, k) -> PotentialField:
        key = self.effective_k(k)
        if key not in self._fields:
            self._fields[key] = self.field if key == math.inf else truncate(self.field, key)
        return self._fields[key]

    def bottom(self, k) -> SpectralResult:
        """Spectral bottom of the (1 - epsilon)-scaled truncation at level k."""
        return self._solve(k, 1.0 - self.field.spec.epsilon)

    def lambda0(self, k) -> float:
        """Spectral bottom of the unscaled L - min(V, k), solved only when
        asked for: the step restriction and the exponential bound need it."""
        return self._solve(k, 1.0).lambda0

    def lambda0_floor(self, k_schedule) -> float:
        """min over k_schedule of lambda0(k), solved at the deepest level
        only: min(V, k) grows with k, so the bottom does not increase."""
        return self.lambda0(max(k_schedule))

    def _solve(self, k, scale: float) -> SpectralResult:
        """The bottom for scale * min(V, k), solved once, warm-started from
        the latest eigenvector on this mesh (the first from the constant)."""
        key = (self.effective_k(k), scale)
        if key not in self._bottoms:
            res = spectral_bottom(self.op, scale * self.field_at(k).values, v0=self._warm)
            self._warm = res.eigvec
            self._bottoms[key] = res
        return self._bottoms[key]


def refinement_series(levels, k_schedule) -> SpectralSeries:
    """Spectral bottoms of the (1 - epsilon)-scaled truncations min(V, k) at
    every MeshLevel of levels and every k of k_schedule, mesh-major; epsilon
    is that of each level's potential."""
    entries = []
    for lv in levels:
        for k in k_schedule:
            res = lv.bottom(k)
            entries.append(
                SpectralEntry(lv.h, float(k), lv.field.spec.epsilon, res.lambda0, res.iterations)
            )
    return SpectralSeries(entries)
