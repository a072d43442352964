"""Experiment configuration: a single JSON document, statically validatable.

The schema is versioned so runs stay reproducible across tool versions.  All
quantities that the pipeline consumes (schedules, steps, thresholds, sweep
sizes, seed) live here; nothing is invented at run time.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .assembly import DENSE_SIZE_CAP, check_order
from .diagnostics import BALL_PROBE_KINDS, MIN_BALL_NODES, MIN_BALLS, MIN_MESH_LEVELS
from .diagnostics import ball_meshes, default_ball_schedule
from .errors import ConfigError, DomainError, SingularNode
from .evolution import initial_state
from .geometry import DomainSpec, build_grid
from .potentials import PotentialSpec, hardy_sharp_constant, parse_bounded_expr, sample_potential

SCHEMA_VERSION = 1

_DEFAULT_THRESHOLDS = {
    "rel_tol": 0.02,
    "divergence_ratio": 1.15,
    "growth_ratio": 1.5,
    "comparability_ratio_bound": 25.0,
}
# energy_trials is validated, then unread: the energy check is exact
_DEFAULT_SWEEPS = {"energy_trials": 200, "log_phis": 20}
_TOP_KEYS = ("schema_version", "domain", "alpha", "potential", "h_schedule", "k_schedule", "dt",
             "t_final", "probe_times", "state_checkpoints", "thresholds", "sweeps", "initial_state",
             "ball_schedule", "output_dir", "seed")


@dataclass(eq=False)  # meshes holds arrays
class ExperimentConfig:
    """A validated config.  meshes holds what validation built, one (grid,
    sampled potential, initial state) per spacing, both vectors read-only;
    ball_schedule the probe's radii and balls one (grid, read-only sampled
    potential) per ball the probe solves, both [] when it does not run."""

    raw: dict
    domain: DomainSpec
    alpha: float
    potential: PotentialSpec
    h_schedule: list
    meshes: list
    k_schedule: list
    dt: float
    t_final: float
    probe_time: float
    thresholds: dict
    sweeps: dict
    ball_schedule: list
    balls: list
    output_dir: str | None
    seed: int
    state_checkpoints: list
    flags: list = field(default_factory=list)

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))


def _is_number(value, kind=(int, float)) -> bool:
    """Whether value is a JSON number (an integer for kind=int) within the
    range of a finite double; a bool is neither."""
    return isinstance(value, kind) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _closed(obj: dict, where: str, keys, errors: list) -> None:
    """An error naming each key of the config object obj outside keys."""
    errors.extend(f"{where}{key}: unknown key" for key in obj if key not in keys)


_DOMAIN_SIZES = {"interval": ("R",), "rectangle": ("a", "b"), "disk": ("R",)}
_POTENTIAL_FIELDS = {
    "hardy_interior": ("c", "c_over_cstar"), "hardy_boundary": ("kappa",), "bounded": ("expr",),
}


def _domain_from_dict(d: dict, errors: list) -> DomainSpec | None:
    kind = d.get("kind")
    names = _DOMAIN_SIZES.get(kind)
    if names is None:
        errors.append(f"domain.kind: unknown kind {kind!r}")
        return None
    _closed(d, "domain.", ("kind", *names), errors)
    missing = [name for name in names if name not in d]
    mistyped = [name for name in names if name in d and not _is_number(d[name])]
    if missing:
        errors.append(f"domain: missing size parameter {missing[0]!r}")
    elif mistyped:
        errors.append(f"domain.{mistyped[0]}: must be a number")
    else:
        try:
            return DomainSpec(kind, tuple(float(d[name]) for name in names))
        except DomainError as exc:
            errors.append(f"domain: {exc}")
    return None


def _potential_from_dict(p: dict, d: int, alpha: float, errors: list) -> PotentialSpec | None:
    kind = p.get("kind")
    if kind not in _POTENTIAL_FIELDS:
        errors.append(f"potential.kind: unknown kind {kind!r}")
        return None
    _closed(p, "potential.", ("kind", "epsilon", *_POTENTIAL_FIELDS[kind]), errors)
    eps = p.get("epsilon", 0.01)
    if not _is_number(eps) or not 0.0 <= eps < 1.0:
        errors.append(f"potential.epsilon: must be a number in [0, 1), got {eps!r}")
        return None
    mistyped = [name for name in ("c", "c_over_cstar", "kappa") if name in p and not _is_number(p[name])]
    if mistyped:
        errors.append(f"potential.{mistyped[0]}: must be a number")
        return None
    try:
        if kind == "hardy_interior":
            has_c = "c" in p
            has_ratio = "c_over_cstar" in p
            if has_c == has_ratio:
                errors.append("potential: give exactly one of 'c' and 'c_over_cstar'")
                return None
            c = p["c"] if has_c else p["c_over_cstar"] * hardy_sharp_constant(d, alpha)
            return PotentialSpec.hardy_interior(c, epsilon=eps)
        if kind == "hardy_boundary":
            return PotentialSpec.hardy_boundary(p["kappa"], epsilon=eps)
        parse_bounded_expr(p["expr"], d)
        return PotentialSpec.bounded(p["expr"], epsilon=eps)
    except KeyError as exc:
        errors.append(f"potential: missing field {exc}")
    except Exception as exc:
        errors.append(f"potential: {exc}")
    return None


def _object(doc: dict, key: str, errors: list, default=None) -> dict | None:
    """doc[key] if it is a JSON object, else default; an error unless the
    key is absent and has a default."""
    value = doc.get(key, default)
    if isinstance(value, dict):
        return value
    errors.append(f"{key}: must be a JSON object" if key in doc else f"{key}: missing")
    return default


def _is_multiple(t: float, dt: float) -> bool:
    q = t / dt
    return math.isfinite(q) and abs(q - round(q)) <= 1e-9 * max(1.0, abs(q)) and round(q) >= 1


def _parse(doc: dict) -> tuple:
    """Full static validation of a config document, and the config it
    describes: (a list of 'field: problem' strings, the ExperimentConfig
    or None when the list is not empty)."""
    errors: list = []
    if not isinstance(doc, dict):
        return ["document: top level must be a JSON object"], None
    _closed(doc, "", _TOP_KEYS, errors)
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version: must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}"
        )
    domain_doc = _object(doc, "domain", errors)
    domain = None if domain_doc is None else _domain_from_dict(domain_doc, errors)

    alpha = doc.get("alpha")
    if not _is_number(alpha):
        errors.append("alpha: missing or not a number")
        alpha = None
    elif domain is not None:
        try:
            check_order(domain.dimension, alpha)
            alpha = float(alpha)
        except DomainError as exc:
            errors.append(f"alpha: {exc}")
            alpha = None

    pot = None
    pot_doc = _object(doc, "potential", errors)
    if pot_doc is not None and domain is not None and alpha is not None:
        pot = _potential_from_dict(pot_doc, domain.dimension, alpha, errors)

    levels = []
    hs = doc.get("h_schedule")
    if not isinstance(hs, list) or not hs:
        errors.append("h_schedule: missing or empty")
    else:
        if len(hs) < MIN_MESH_LEVELS:
            errors.append(f"h_schedule: needs at least {MIN_MESH_LEVELS} spacings, got {len(hs)}")
        if any(not _is_number(h) or not 0 < h < math.inf for h in hs):
            errors.append("h_schedule: entries must be positive numbers")
        elif any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
            errors.append("h_schedule: must be strictly decreasing")
        elif domain is not None:
            lattice = math.prod(np.floor(2.0 * w / hs[-1]) + 1.0 for w in domain.half_widths)
            if hs[0] >= domain.min_extent:
                errors.append("h_schedule: coarsest spacing is not below the domain extent")
            # a disk keeps about pi/4 of its box, so a box lattice above four
            # times the cap cannot fit and is rejected without being built
            elif lattice > 4 * DENSE_SIZE_CAP or (finest := build_grid(domain, float(hs[-1]))).n > DENSE_SIZE_CAP:
                errors.append(
                    f"h_schedule: finest grid exceeds the dense-size cap of {DENSE_SIZE_CAP} nodes"
                )
            else:
                levels = [(f"h={h}", build_grid(domain, float(h)) if h != hs[-1] else finest) for h in hs]

    ks = doc.get("k_schedule")
    if not isinstance(ks, list) or not ks:
        errors.append("k_schedule: missing or empty")
    elif any(not _is_number(k) and k is not None for k in ks):
        errors.append("k_schedule: entries must be numbers or null")
    else:
        ks = [math.inf if k is None else float(k) for k in ks]  # null: untruncated
        if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
            errors.append("k_schedule: must be strictly increasing (null last)")
        elif any(k < 0 for k in ks):
            errors.append("k_schedule: levels must be nonnegative")

    dt = doc.get("dt")
    tf = doc.get("t_final")
    probe_steps = None
    if not _is_number(dt) or dt <= 0:
        errors.append("dt: missing or not a positive number")
    if not _is_number(tf) or tf <= 0:
        errors.append("t_final: missing or not a positive number")
    if _is_number(dt) and _is_number(tf) and dt > 0 and tf > 0:
        if not _is_multiple(tf, dt):
            errors.append("t_final: must be a positive integer multiple of dt")
        probes = doc.get("probe_times", [tf])
        if not isinstance(probes, list) or len(probes) != 1:
            errors.append("probe_times: must be a list of one time")
        elif not _is_number(probes[0]) or not (0 < probes[0] <= tf) or not _is_multiple(probes[0], dt):
            errors.append(f"probe_times: {probes[0]} must be a multiple of dt inside (0, t_final]")
        else:
            probe_steps = round(probes[0] / dt)
        checkpoints = doc.get("state_checkpoints")
        if checkpoints is None:
            checkpoints = []
        elif not isinstance(checkpoints, list):
            errors.append("state_checkpoints: must be a list of times or null")
            checkpoints = []
        for t in checkpoints:
            if not _is_number(t) or not (0 <= t <= tf) or (t > 0 and not _is_multiple(t, dt)):
                errors.append(
                    f"state_checkpoints: {t} must be a multiple of dt inside [0, t_final]"
                )
                break

    thresholds = _object(doc, "thresholds", errors, {})
    _closed(thresholds, "thresholds.", _DEFAULT_THRESHOLDS, errors)
    thresholds = {**_DEFAULT_THRESHOLDS, **thresholds}
    mistyped = [k for k in _DEFAULT_THRESHOLDS if not _is_number(thresholds[k])]
    errors.extend(f"thresholds.{k}: must be a number" for k in mistyped)
    if not mistyped:
        if not (0.0 < thresholds["rel_tol"] < 1.0):
            errors.append("thresholds.rel_tol: must lie in (0, 1)")
        if thresholds["divergence_ratio"] <= 1.0:
            errors.append("thresholds.divergence_ratio: must exceed 1")
        if thresholds["growth_ratio"] <= 1.0:
            errors.append("thresholds.growth_ratio: must exceed 1")
        if thresholds["comparability_ratio_bound"] < 1.0:  # r_max / r_min >= 1
            errors.append("thresholds.comparability_ratio_bound: must be at least 1")

    sweeps = _object(doc, "sweeps", errors, {})
    _closed(sweeps, "sweeps.", _DEFAULT_SWEEPS, errors)
    sweeps = {**_DEFAULT_SWEEPS, **sweeps}
    for key in ("energy_trials", "log_phis"):
        if not _is_number(sweeps[key], int) or sweeps[key] < 0:
            errors.append(f"sweeps.{key}: must be a nonnegative integer")
    # the log estimate reads the state at an earlier step than the probe
    if probe_steps == 1 and _is_number(sweeps["log_phis"], int) and sweeps["log_phis"] > 0:
        errors.append("probe_times: must be at least 2*dt when sweeps.log_phis > 0")

    u0s = []
    init = _object(doc, "initial_state", errors, {"kind": "inradius_ball"})
    _closed(init, "initial_state.", ("kind", "radius"), errors)
    if init.get("kind") not in ("inradius_ball", "ball", "constant"):
        errors.append(f"initial_state.kind: unknown kind {init.get('kind')!r}")
    elif init.get("kind") == "ball" and not (_is_number(init.get("radius")) and init["radius"] > 0):
        errors.append("initial_state.radius: ball initial state needs a positive radius")
    else:
        # the initial state on every grid, which run evolves: it must hold a node
        for where, grid in levels:
            try:
                u0s.append(initial_state(grid, kind=init["kind"], radius=init.get("radius")))
                u0s[-1].setflags(write=False)
            except ValueError as exc:
                errors.append(f"initial_state.radius: {exc} ({where})")
                break

    balls = doc.get("ball_schedule")
    n_errors = len(errors)
    if balls is not None:
        if not isinstance(balls, list) or any(not _is_number(r) or r <= 0 for r in balls):
            errors.append("ball_schedule: must be a list of positive radii or null")
        elif any(r2 >= r1 for r1, r2 in zip(balls, balls[1:])):
            errors.append("ball_schedule: must be strictly decreasing")
        elif len(balls) < MIN_BALLS:
            errors.append(f"ball_schedule: needs at least {MIN_BALLS} radii, got {len(balls)}")
        elif domain is not None and balls[0] > domain.inradius:
            errors.append(f"ball_schedule: radius {balls[0]} above the inradius {domain.inradius}")
    radii, probe = [], []
    if pot is not None and pot.kind in BALL_PROBE_KINDS and levels and len(errors) == n_errors:
        # the radii of run's ball probe and the grids of the balls it solves, none for
        # a default schedule too short to probe; every ball holds as many nodes as the largest
        radii = balls or default_ball_schedule(domain, finest.h)
        radii = radii if len(radii) >= MIN_BALLS else []
        probe = [(f"ball r={ball.inradius}", build_grid(ball, hb))
                 for ball, hb in (ball_meshes(domain, radii, finest.h, pot.kind) if radii else [])]
        if probe and probe[0][1].n < MIN_BALL_NODES:
            errors.append(f"ball_schedule: the ball of radius {radii[0]} holds {probe[0][1].n} "
                          f"nodes, fewer than {MIN_BALL_NODES}")

    samples = []
    if pot is not None:
        # the potential on every grid, which run evolves and probes: no node
        # may be singular, and a bounded expression must be finite and nonnegative
        name = "potential.expr" if pot.kind == "bounded" else "potential"
        for where, grid in levels + probe:
            try:
                samples.append(sample_potential(pot, grid, alpha))
            except (DomainError, SingularNode) as exc:
                errors.append(f"{name}: {exc} ({where})")
                break

    if not isinstance(doc.get("output_dir"), (str, type(None))):
        errors.append("output_dir: must be a string or null")
    seed = doc.get("seed", 0)
    if not _is_number(seed, int):
        errors.append("seed: must be an integer")
    if errors:
        return errors, None
    flags = []
    if not pot.boundary_theory_holds(domain.dimension, alpha):
        flags.append(
            "outside_theory: boundary-singular potential is validated only for "
            "d >= 2 with alpha != 1"
        )
    return errors, ExperimentConfig(
        raw=doc,
        domain=domain,
        alpha=alpha,
        potential=pot,
        h_schedule=[float(h) for h in hs],
        meshes=[(grid, V, u0) for (_, grid), V, u0 in zip(levels, samples, u0s)],
        k_schedule=ks,
        dt=float(dt),
        t_final=float(tf),
        probe_time=float(probes[0]),
        thresholds=thresholds,
        sweeps=sweeps,
        ball_schedule=[float(r) for r in radii],
        balls=[(grid, V) for (_, grid), V in zip(probe, samples[len(levels):])],
        output_dir=doc.get("output_dir"),
        seed=seed,
        state_checkpoints=checkpoints,
        flags=flags,
    )


def validate_dict(doc: dict) -> list:
    """Full static validation; returns a list of 'field: problem' strings."""
    return _parse(doc)[0]


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse and validate; raises ConfigError naming the offending field."""
    errors, config = _parse(doc)
    if errors:
        raise ConfigError("; ".join(errors))
    return config


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"config file: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file: not UTF-8 text ({exc})")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file: invalid JSON ({exc})")
    except RecursionError:
        raise ConfigError("config file: JSON nested too deeply")


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_json(path))


def validate_config(path) -> list:
    """Static validation of a config file; returns the list of violations."""
    try:
        doc = _read_json(path)
    except ConfigError as exc:
        return [str(exc)]
    return validate_dict(doc)
