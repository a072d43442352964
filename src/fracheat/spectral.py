"""Discrete form energies and the spectral bottom of the Schroedinger matrix.

The spectral bottom of L - diag(V) is the discrete stand-in for the infimum
of the Rayleigh quotient (form energy minus potential mass over L2 mass);
its behaviour under mesh refinement and truncation deepening is the raw
evidence the classifier consumes.

The grid's mirrors that also leave V invariant (of the axes and, on a
square lattice, of the diagonal) generate a group that commutes with L -
diag(V).  Since L - diag(V) is an irreducible Z-matrix, its ground vector
is positive (Perron-Frobenius), so invariant under every mirror of the
group: it is found from one unknown per orbit, on the block
OperatorMatrix.fold, about n / |group| across.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _lapack
from .assembly import OperatorMatrix
from .errors import ConvergenceFailure, DimensionMismatch
from .geometry import boundary_distance, stabilizers
from .potentials import truncate

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
    vals = np.asarray(V, dtype=float)
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
    """Smallest eigenvalue and unit ground vector of M - diag(V): the family
    of one of spectral_bottoms, which says how it is solved and checked.  v0
    is the warm start (default the boundary profile delta^(alpha/2))."""
    return spectral_bottoms(M, [V], v0)[0]


def spectral_bottoms(M: OperatorMatrix, potentials, v0=None) -> list:
    """spectral_bottom of each V of potentials, a family whose first member
    is the deepest: every later V is at most the first entrywise, as
    min(V, k) is at most V.

    Solved by _ground_states on M.fold(*potentials), the block folded by
    the mirrors that fix every V (the whole matrix when none does), whose
    unknowns are the values at the representatives over sqrt(s), s their
    stabilizer orders; v0, summed over each orbit's row of images and so
    over sqrt(s), warm-starts the first member; by default it is
    delta^(alpha/2), delta the distance to the boundary, as ground states
    vanish like it (Ros-Oton & Serra 2014).  Each pair, unfolded, satisfies
    ||(M - V) v - lambda v|| <= RESIDUAL_TOL on the full matrix, else
    ConvergenceFailure is raised.  iterations counts the shift-invert
    solves; the eigenvector sums to a nonnegative value.
    """
    vals = [_potential_vector(M, V) for V in potentials]
    if v0 is None:
        v0 = boundary_distance(M.grid) ** (M.alpha / 2.0)
    else:
        v0 = np.asarray(v0, dtype=float)
        if v0.shape != (M.n,):
            raise DimensionMismatch(f"expected a vector of length {M.n}, got shape {v0.shape}")
        if not (np.all(np.isfinite(v0)) and np.any(v0)):
            raise ValueError("warm start must be finite and nonzero")
    orbits, block = M.fold(*vals)
    root = np.sqrt(stabilizers(orbits))
    results = _ground_states(block, [d[orbits[0]] for d in vals], v0[orbits].sum(axis=0) / root)
    checked = []
    for res, d in zip(results, vals):
        v = np.empty(M.n)
        v[orbits] = root * res.eigvec / math.sqrt(len(orbits))
        whole = len(orbits) == 1  # the block is the whole matrix, reordered: residual checked
        checked.append(res._replace(eigvec=v) if whole else _checked_pair(M.apply(v), d, v, res.iterations))
    return checked


class _SortedFactor:
    """Cholesky factor (_lapack.cholesky) of the matrix with off-diagonal
    entries scale * B and the given diagonal, in B's order, which
    OperatorMatrix.fold sorts by the potential: a new diagonal that
    differs only where the potential is largest changes a trailing block,
    and update refactors from its first changed row on
    (_lapack.refactor), which is correct in any order."""

    def __init__(self, B: np.ndarray, scale: float, diagonal: np.ndarray):
        self.B, self.scale = B, scale
        self.diagonal = diagonal
        self.factor = _lapack.cholesky(self._trailing(0))

    def _trailing(self, t: int) -> np.ndarray:
        """The matrix's trailing block from row t on, a new array."""
        block = self.B[t:, t:] * self.scale
        block.flat[:: len(block) + 1] = self.diagonal[t:]
        return block

    def update(self, diagonal: np.ndarray) -> None:
        """Refactor in place for a new diagonal from its first change on."""
        changed = np.flatnonzero(diagonal != self.diagonal)
        self.diagonal = diagonal
        if changed.size:
            _lapack.refactor(self.factor, self._trailing(changed[0]))

    def solve(self, b: np.ndarray) -> np.ndarray:
        return _lapack.solve(self.factor, b)


def _ground_states(B: np.ndarray, ds, v0=None) -> list:
    """Bottom eigenpairs of A = B - diag(d) for each d of ds, B dense
    symmetric and every d at most ds[0] entrywise.

    From the warm vector's Rayleigh quotient rho for ds[0] and its residual
    r, the shift sigma = rho - delta starts at delta = max(1.01 ||r||, 1e-6
    max(1, |rho|)) and delta grows fourfold until B - diag(ds[0]) - sigma I
    factors.  A successful Cholesky proves sigma below the bottom for ds[0],
    hence for every d, so the dominant eigenpair of (A - sigma I)^-1 is the
    bottom one.  B's rows sorted by ds[0] (OperatorMatrix.fold), the
    factor (_SortedFactor) serves the family: a truncation differs from
    the member before only on a trailing block, which alone is
    refactored.  Each member's Lanczos starts from the previous member's
    eigenvector, the first from v0; lambda is the Rayleigh quotient v.Av.
    """
    if any(np.any(d > ds[0]) for d in ds):
        raise ValueError("every diagonal of a family must be at most its first")
    n = B.shape[0]
    if n == 1:  # a 1 x 1 matrix is its own bottom
        return [SpectralResult(lambda0=float(B[0, 0] - d[0]), eigvec=np.ones(1), iterations=0)
                for d in ds]
    v = np.ones(n) if v0 is None else np.array(v0, dtype=float)
    v /= np.linalg.norm(v)
    Av = B @ v - ds[0] * v
    rho = float(v @ Av)
    delta = max(1.01 * float(np.linalg.norm(Av - rho * v)), 1e-6 * max(1.0, abs(rho)))
    diagonal = np.diag(B)
    for _ in range(SHIFT_TRIES):
        sigma = rho - delta
        try:
            system = _SortedFactor(B, 1.0, diagonal - (ds[0] + sigma))
            break
        except np.linalg.LinAlgError:
            delta *= 4.0
    else:
        raise ConvergenceFailure(
            f"no shift below the spectrum found in {SHIFT_TRIES} factorizations", iterations=0
        )
    results = []
    for d in ds:
        system.update(diagonal - (d + sigma))
        v, solves = _lanczos_top(system.solve, v)
        v = _fix_sign(v / np.linalg.norm(v))
        results.append(_checked_pair(B @ v, d, v, solves))
    return results


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
    (its ground vector is positive, so invariant under them); D is constant
    on each orbit, so it commutes with the fold's sqrt(s) weights.  Returns
    {"series": [(h, value), ...], "estimate": last value}; the limit is
    observed, not certified.
    """
    series = []
    for op in operators:
        delta = boundary_distance(op.grid)
        orbits, block = op.fold(delta)
        root = delta[orbits[0]] ** (0.5 * op.alpha)  # the diagonal of D^-1/2
        block = root[:, None] * block * root
        mu = _ground_states(block, [np.zeros(len(root))])[0].lambda0
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
    """One spacing h: grid, operator, the untruncated sampled potential V
    (read-only), its scaling reserve epsilon, and the spectral bottoms of
    each distinct truncation min(V, k), computed once.  The level
    k = math.inf is the untruncated potential; every k >= max V leaves it
    bit-for-bit unchanged and shares its results.
    """

    def __init__(self, op: OperatorMatrix, potential, epsilon: float):
        self.h = op.grid.h
        self.op = op
        self.potential = np.array(potential, dtype=float)  # a private copy
        self.potential.setflags(write=False)
        self.epsilon = epsilon
        self._top = float(np.max(self.potential))  # max V, for effective_k
        self._bottoms = {}  # (effective k, potential scale) -> SpectralResult
        self._warm = None  # deepest eigenvector of the latest family on this mesh

    def effective_k(self, k):
        """The truncation level that min(V, k) actually applies: math.inf
        when k >= max V."""
        return math.inf if k >= self._top else k

    def bottoms(self, k_schedule) -> list:
        """Spectral bottoms of the (1 - epsilon)-scaled truncations at the
        levels of k_schedule."""
        return self._solve(k_schedule, 1.0 - self.epsilon)

    def lambda0s(self, k_schedule) -> list:
        """Spectral bottoms of the unscaled L - min(V, k) at the levels of
        k_schedule, solved only when asked for: the step restriction and
        the exponential bounds need them.  lambda0s([max(ks)])[0] is the
        least over ks, as min(V, k) grows with k."""
        return [res.lambda0 for res in self._solve(k_schedule, 1.0)]

    def _solve(self, k_schedule, scale: float) -> list:
        """The bottoms for scale * min(V, k), k in k_schedule.  The
        effective levels not solved yet are solved once, as one family
        (spectral_bottoms), deepest first; the family starts from the
        deepest eigenvector of the latest family on this mesh (the first
        from spectral_bottoms' default, the boundary profile)."""
        keys = [(self.effective_k(k), scale) for k in k_schedule]
        new = sorted({k for k, _ in keys if (k, scale) not in self._bottoms}, reverse=True)
        if new:
            potentials = [scale * truncate(self.potential, k) for k in new]
            results = spectral_bottoms(self.op, potentials, v0=self._warm)
            self._warm = results[0].eigvec
            self._bottoms.update(((k, scale), res) for k, res in zip(new, results))
        return [self._bottoms[key] for key in keys]


def refinement_series(levels, k_schedule) -> SpectralSeries:
    """Spectral bottoms of the (1 - epsilon)-scaled truncations min(V, k) at
    every MeshLevel of levels and every k of k_schedule, mesh-major; epsilon
    is that of each level's potential."""
    entries = []
    for lv in levels:
        for k, res in zip(k_schedule, lv.bottoms(k_schedule)):
            entries.append(
                SpectralEntry(lv.h, float(k), lv.epsilon, res.lambda0, res.iterations)
            )
    return SpectralSeries(entries)
