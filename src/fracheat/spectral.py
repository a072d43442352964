"""Discrete form energies and the spectral bottom of the Schroedinger matrix.

The spectral bottom of L - diag(V) is the discrete stand-in for the infimum
of the Rayleigh quotient (form energy minus potential mass over L2 mass);
its behaviour under mesh refinement and truncation deepening is the raw
evidence the classifier consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import linalg

from .assembly import OperatorMatrix, assemble_operator
from .errors import ConvergenceFailure, DimensionMismatch
from .geometry import DomainSpec, build_grid
from .potentials import PotentialField, PotentialSpec, sample_potential, truncate

RESIDUAL_TOL = 1e-8


def _as_state(M: OperatorMatrix, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (M.n,):
        raise DimensionMismatch(f"expected a vector of length {M.n}, got shape {f.shape}")
    return f


def form_energy(M: OperatorMatrix, f) -> float:
    """Discrete form energy <L f, f> h^d of a grid function."""
    f = _as_state(M, f)
    return float(M.cell_volume * f @ (M.entries @ f))


def form_bilinear(M: OperatorMatrix, f, g) -> float:
    """Discrete bilinear form <L f, g> h^d; symmetric in (f, g)."""
    f = _as_state(M, f)
    g = _as_state(M, g)
    return float(M.cell_volume * g @ (M.entries @ f))


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


def spectral_bottom(M: OperatorMatrix, V=None) -> SpectralResult:
    """Smallest eigenvalue and unit ground vector of M - diag(V).

    One dense symmetric solve; assembly caps n at DENSE_SIZE_CAP.  The
    returned pair always satisfies ||(M - V) v - lambda v|| <= RESIDUAL_TOL;
    otherwise ConvergenceFailure is raised.  The eigenvector sign is fixed
    so its sum is nonnegative.
    """
    vals = _potential_vector(M, V)
    A = M.entries - np.diag(vals)
    w, vecs = linalg.eigh(A, subset_by_index=[0, 0])
    lam = float(w[0])
    v = _fix_sign(vecs[:, 0])
    residual = float(np.linalg.norm(A @ v - lam * v))
    if residual > RESIDUAL_TOL:
        raise ConvergenceFailure(
            f"eigen residual {residual:.3e} above tolerance {RESIDUAL_TOL:.1e}",
            iterations=1,
        )
    return SpectralResult(lambda0=lam, eigvec=v, iterations=1)


@dataclass(frozen=True)
class SpectralEntry:
    h: float
    k: float | None  # truncation level; None means untruncated
    epsilon: float
    lambda0: float
    iterations: int


@dataclass
class SpectralSeries:
    """Spectral bottoms over a (mesh, truncation) schedule for one potential."""

    entries: list = field(default_factory=list)
    potential_id: str = ""

    @classmethod
    def from_levels(cls, levels, potential: PotentialSpec, k_schedule) -> "SpectralSeries":
        """Spectral bottoms of the (1 - epsilon)-scaled truncations at every
        mesh level, mesh-major."""
        eps = potential.epsilon
        series = cls(potential_id=potential.label())
        for lv in levels:
            for k in k_schedule:
                res = spectral_bottom(lv.op, (1.0 - eps) * lv.field_at(k).values)
                series.entries.append(
                    SpectralEntry(
                        h=lv.h,
                        k=None if k is None else float(k),
                        epsilon=eps,
                        lambda0=res.lambda0,
                        iterations=res.iterations,
                    )
                )
        return series

    def mesh_levels(self) -> list:
        """Distinct spacings in schedule order."""
        seen = []
        for e in self.entries:
            if e.h not in seen:
                seen.append(e.h)
        return seen

    def deepest_per_mesh(self) -> list:
        """One entry per spacing, at the deepest truncation level recorded."""
        out = {}
        for e in self.entries:
            cur = out.get(e.h)
            if cur is None or _k_order(e.k) >= _k_order(cur.k):
                out[e.h] = e
        return [out[h] for h in self.mesh_levels()]

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("h,k,epsilon,lambda0,iterations\n")
            for e in self.entries:
                k = "inf" if e.k is None else repr(e.k)
                fh.write(f"{e.h!r},{k},{e.epsilon!r},{e.lambda0!r},{e.iterations}\n")


def _k_order(k) -> float:
    return math.inf if k is None else float(k)


def _validate_schedules(h_schedule, k_schedule) -> None:
    if len(h_schedule) == 0 or len(k_schedule) == 0:
        raise ValueError("schedules must be nonempty")
    if any(h2 >= h1 for h1, h2 in zip(h_schedule, h_schedule[1:])):
        raise ValueError("h schedule must be strictly decreasing")
    ks = [_k_order(k) for k in k_schedule]
    if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        raise ValueError("k schedule must be strictly increasing (None/inf last)")


class MeshLevel:
    """One spacing h: grid, operator, the untruncated sampled potential, and
    each truncation min(V, k) with its unscaled spectral bottom, computed once.
    A truncation level k of None means the untruncated field."""

    def __init__(self, op: OperatorMatrix, fld: PotentialField):
        self.h = op.grid.h
        self.op = op
        self.field = fld
        self._fields = {}
        self._lambdas = {}

    @classmethod
    def build(cls, domain: DomainSpec, alpha: float, potential: PotentialSpec, h: float):
        grid = build_grid(domain, h)
        op = assemble_operator(grid, alpha)
        return cls(op, sample_potential(potential, grid, alpha))

    def field_at(self, k) -> PotentialField:
        if k not in self._fields:
            self._fields[k] = self.field if k is None else truncate(self.field, k)
        return self._fields[k]

    def lambda0(self, k) -> float:
        """Spectral bottom of L - min(V, k), the one the step restriction needs."""
        if k not in self._lambdas:
            self._lambdas[k] = spectral_bottom(self.op, self.field_at(k).values).lambda0
        return self._lambdas[k]


def refinement_series(
    domain: DomainSpec,
    alpha: float,
    potential: PotentialSpec,
    h_schedule,
    k_schedule,
) -> SpectralSeries:
    """Probe the spectral bottom across refining meshes and deepening
    truncations.  Entries are ordered mesh-major, matching the schedules;
    a k of None means the untruncated sampled potential."""
    _validate_schedules(h_schedule, k_schedule)
    levels = [MeshLevel.build(domain, alpha, potential, h) for h in h_schedule]
    return SpectralSeries.from_levels(levels, potential, k_schedule)
