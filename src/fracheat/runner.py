"""Configuration-driven experiment orchestration with reproducible reports.

A run executes the full pipeline in two phases.  The first reads every mesh:
spectral refinement series, the monotone truncated family at every mesh, the
classifier and the CSV files (series, trajectories, curves, state checkpoints).
The second runs the inequality certificates with the finest mesh alone in
memory and writes report.json last.  With a fixed seed the report is
byte-stable across runs and across BLAS thread counts.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import _lapack
from ._hashes import sha256, shake_256
from .assembly import assemble_operator
from .config import ExperimentConfig
from .diagnostics import (
    ClassifierThresholds,
    classify,
    energy_inequality_all_pairs,
    exponential_bound_certificate,
    ground_state_comparability,
    log_estimate_certificate,
    shrinking_ball_certificate,
)
from .evolution import ImplicitStepper, duhamel_residual, monotone_family
from .spectral import MeshLevel, SpectralSeries, estimate_boundary_hardy_constant, refinement_series

@contextmanager
def _one_blas_thread():
    """Run with numpy's bundled OpenBLAS, which every kernel of the run
    calls, at one thread, then restore the caller's count, also when the
    body raises.  A build without the library is left as it is."""
    lib = _lapack.library()
    if lib is None:
        yield
        return
    saved = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(saved)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@_one_blas_thread()
def run_experiment(config: ExperimentConfig, out_dir=None, seed: int | None = None) -> dict:
    """Execute the full pipeline; write the CSV files, then report.json.

    Returns a dict with the output paths and the verdict label.  The exit
    status of the CLI does not depend on the verdict; configuration problems
    raise ConfigError before any computation starts.  The meshes run one
    after another, and OpenBLAS on one thread for the whole run, so the
    report does not depend on the machine's BLAS thread count.
    """
    out = Path(out_dir or config.output_dir or "fracheat_run")
    out.mkdir(parents=True, exist_ok=True)

    # the grids, potentials and initial states that validation built
    levels = [MeshLevel(assemble_operator(grid, config.alpha), V, config.potential.epsilon)
              for grid, V, _ in config.meshes]
    series = refinement_series(levels, config.k_schedule)
    finest = levels[-1]
    # the finest mesh's unscaled levels, one family: the exponential bounds
    # read them all, its step restriction the deepest
    lambdas = finest.lambda0s(config.k_schedule)

    u0s = [u0 for _, _, u0 in config.meshes]
    families = [
        monotone_family(lv, config.k_schedule, u0, config.t_final, config.dt) for lv, u0 in zip(levels, u0s)
    ]

    probe = config.probe_time
    thresholds = ClassifierThresholds(
        rel_tol=config.thresholds["rel_tol"],
        divergence_ratio=config.thresholds["divergence_ratio"],
        growth_ratio=config.thresholds["growth_ratio"],
        probe_time=probe,
    )
    verdict = classify(series, [traj for family in families for traj in family], thresholds)

    # the order of the mirror group that folds each mesh's potential
    extras = {"mirror_group_order": [[lv.h, len(lv.op.fold(lv.potential)[0])] for lv in levels]}
    if config.potential.kind == "hardy_boundary":
        extras["boundary_hardy_constant"] = estimate_boundary_hardy_constant([lv.op for lv in levels])

    series_path = out / "series.csv"
    series.write_csv(series_path)
    traj_path = out / "trajectories.csv"
    _write_trajectories(traj_path, families)
    curves_path = out / "curves.csv"
    _write_curves(curves_path, series, verdict)
    if config.state_checkpoints:
        _write_states(out / "states.csv", families, config.state_checkpoints)

    # the certificates read the finest mesh alone: let the coarser ones go
    family = families[-1]
    del levels, families
    seed = config.seed if seed is None else seed
    deepest = family[-1]
    # one factorization of I + dt L serves both free-flow checks
    free = ImplicitStepper(finest.op, None, deepest.dt)
    certificates = _certificates(config, finest, family, u0s[-1], lambdas, probe, seed, free)
    residuals = {"duhamel": duhamel_residual(deepest, free)}

    digest = sha256(config.canonical_json().encode()).hexdigest()[:16]
    report = {
        "schema_version": 1,
        "config_digest": digest,
        "flags": config.flags,
        "verdict": {
            "label": verdict.label,
            "thresholds": _jsonable(asdict(verdict.thresholds)),
            "epsilon": _jsonable(verdict.epsilon),
            "evidence": _jsonable(verdict.evidence),
        },
        "certificates": [_jsonable(asdict(c)) for c in certificates],
        "residuals": _jsonable(residuals),
        "extras": _jsonable(extras),
        "series_file": series_path.name,
        "trajectories_file": traj_path.name,
        "curves_file": curves_path.name,
    }
    report_path = out / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return {
        "report": report_path,
        "series": series_path,
        "trajectories": traj_path,
        "curves": curves_path,
        "verdict": verdict.label,
    }


def _abs_normal(seed: int, shape: tuple) -> np.ndarray:
    """|N(0, 1)| draws for the seed: Box-Muller on uniforms in (0, 1) cut
    from the SHAKE-256 stream of the seed's digits, 53 bits each.  A run
    loads no numpy.random, whose lazy import takes about ten extension
    modules and 2 MB."""
    count = math.prod(shape)
    bits = np.frombuffer(shake_256(str(seed).encode()).digest(16 * count), dtype="<u8")
    u = ((bits >> 11) + 0.5) * 2.0 ** -53
    return (np.sqrt(-2.0 * np.log(u[:count])) * np.abs(np.cos(2.0 * np.pi * u[count:]))).reshape(shape)


def _certificates(config, finest: MeshLevel, family, u0, lambdas, probe, seed, free) -> list:
    certs = [exponential_bound_certificate(traj, lam) for traj, lam in zip(family, lambdas)]

    # reported as energy_inequality_sweep, the name the benchmark's references check
    certs.append(replace(energy_inequality_all_pairs(finest.op), name="energy_inequality_sweep"))

    traj = family[-1]
    t1 = max(traj.dt, math.floor(probe / (2.0 * traj.dt)) * traj.dt)
    phis = config.sweeps["log_phis"]
    if phis:
        raw = _abs_normal(seed, (phis, finest.op.n)) + 0.05
        Phi = raw / np.sqrt(finest.op.cell_volume * np.sum(raw * raw, axis=1, keepdims=True))
        worst = log_estimate_certificate(traj, Phi, t1, probe)
        certs.append(
            replace(worst, name="log_estimate_sweep", details={**worst.details, "phis": phis})
        )

    certs.append(
        ground_state_comparability(
            free, u0, probe, ratio_bound=config.thresholds["comparability_ratio_bound"]
        )
    )

    # the radii and balls validate built, [] for hardy_boundary (boundary_hardy_constant in extras)
    if config.ball_schedule:
        certs.append(shrinking_ball_certificate(
            config.balls, config.alpha, config.potential, config.ball_schedule, finest.h))
    return certs


def _write_trajectories(path, families) -> None:
    with open(path, "w") as fh:
        fh.write("h,k,t,l2_norm,max_value\n")
        for family in families:
            for traj in family:
                for t, nrm, mx in zip(traj.times, traj.l2_norms, traj.max_values):
                    fh.write(f"{traj.grid.h!r},{traj.k!r},{float(t)!r},{float(nrm)!r},{float(mx)!r}\n")


def _write_states(path, families, checkpoints) -> None:
    with open(path, "w") as fh:
        fh.write("h,k,t,index,value\n")
        for family in families:
            for traj in family:
                for t in checkpoints:
                    state = traj.state_at(t)
                    for i, v in enumerate(state):
                        fh.write(f"{traj.grid.h!r},{traj.k!r},{float(t)!r},{i},{float(v)!r}\n")


def _write_curves(path, series: SpectralSeries, verdict) -> None:
    with open(path, "w") as fh:
        fh.write("curve,x,y\n")
        for h, k, lam in verdict.evidence["lambda0"]:
            fh.write(f"lambda0_vs_h,{h!r},{lam!r}\n")
        for h, sup in verdict.evidence["sup_norms"]:
            fh.write(f"sup_norm_vs_h,{h!r},{sup!r}\n")
        for e in series.entries:
            fh.write(f"lambda0_vs_k@h={e.h!r},{e.k!r},{e.lambda0!r}\n")
