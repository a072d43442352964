"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The bundled experiment configs are executed once per session and
shared by the criteria that consume their reports.
"""

import json
import math
import time
from importlib import resources

import mpmath
import numpy as np
import pytest

from fracheat import (
    DomainSpec,
    ImplicitStepper,
    PotentialSpec,
    assemble_operator,
    build_grid,
    duhamel_residual,
    energy_inequality_certificate,
    evolve,
    exponential_bound_certificate,
    hardy_sharp_constant,
    initial_state,
    load_config,
    log_estimate_certificate,
    monotone_family,
    normalization_constant,
    run_experiment,
    sample_potential,
    spectral_bottom,
)
from fracheat.spectral import MeshLevel
from oracles import fourier_form_check, unfolded_states

ALPHA = 0.5
DOM = DomainSpec.interval(1.0)
CSTAR = hardy_sharp_constant(1, ALPHA)


def _passed(n, message):
    print(f"\nACCEPTANCE {n} PASS: {message}")


@pytest.fixture(scope="module")
def bundled_runs(tmp_path_factory):
    """Execute every bundled config once; criterion tests share the reports."""
    out = {}
    for name in ("bounded_1d", "hardy_subcritical_1d", "hardy_supercritical_1d"):
        cfg_path = resources.files("fracheat") / "configs" / f"{name}.json"
        cfg = load_config(str(cfg_path))
        run_dir = tmp_path_factory.mktemp(name)
        paths = run_experiment(cfg, out_dir=run_dir)
        out[name] = {
            "config": cfg,
            "paths": paths,
            "report": json.loads(paths["report"].read_text()),
        }
    return out


def test_criterion_1_constants():
    start = time.time()
    assert normalization_constant(1, 0.5) == pytest.approx(
        1.0 / (2.0 * math.sqrt(2.0 * math.pi)), abs=1e-10
    )
    assert normalization_constant(2, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-10)
    mpmath.mp.dps = 40
    for d, a in [(1, 0.5), (2, 1.0)]:
        am = mpmath.mpf(a)
        oracle = 2 ** am * mpmath.gamma((d + am) / 4) ** 2 / mpmath.gamma((d - am) / 4) ** 2
        assert hardy_sharp_constant(d, a) == pytest.approx(float(oracle), abs=1e-10)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _passed(1, f"kernel and Hardy constants match the high-precision oracle ({elapsed:.2f}s)")


@pytest.mark.parametrize(
    "d,alpha", [(1, 0.05), (1, 0.5), (1, 0.95), (2, 0.1), (2, 0.75), (2, 1.0), (2, 1.5), (2, 1.95)]
)
def test_constants_to_full_precision(d, alpha):
    with mpmath.workdps(40):
        am = mpmath.mpf(alpha)
        kernel = am * mpmath.gamma((d + am) / 2) / (
            2 ** (1 - am) * mpmath.pi ** (mpmath.mpf(d) / 2) * mpmath.gamma(1 - am / 2)
        )
        cstar = 2 ** am * mpmath.gamma((d + am) / 4) ** 2 / mpmath.gamma((d - am) / 4) ** 2
        kernel, cstar = float(kernel), float(cstar)
    assert normalization_constant(d, alpha) == pytest.approx(kernel, rel=1e-14)
    assert hardy_sharp_constant(d, alpha) == pytest.approx(cstar, rel=1e-14)


def test_criterion_2_fourier_identity():
    start = time.time()
    f = lambda x: np.exp(-8.0 * x * x) * (np.abs(x) < 1.0)
    gaps = []
    for h in (1.0 / 128.0, 1.0 / 256.0, 1.0 / 512.0, 1.0 / 1024.0):
        grid = build_grid(DOM, h)
        assert grid.n <= 4096
        e_d, e_f = fourier_form_check(f, ALPHA, grid)
        gaps.append(abs(e_d - e_f) / e_f)
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.02
    elapsed = time.time() - start
    assert elapsed < 60.0
    _passed(2, f"form/Fourier gaps {['%.2e' % g for g in gaps]} decrease and end below 2% ({elapsed:.1f}s)")


def test_criterion_3_energy_inequality():
    grid = build_grid(DOM, 1.0 / 64.0)
    op = assemble_operator(grid, ALPHA)
    rng = np.random.default_rng(314159)
    min_slack = math.inf
    for _ in range(1000):
        u = rng.uniform(0.1, 1.1, op.n)
        phi = rng.standard_normal(op.n)
        cert = energy_inequality_certificate(op, u, phi)
        min_slack = min(min_slack, cert.slack)
        assert cert.slack >= -1e-12
    _passed(3, f"1000 randomized energy-inequality trials, min slack {min_slack:.3e} >= -1e-12")


def test_criterion_4_monotone_family():
    start = time.time()
    grid = build_grid(DOM, 1.0 / 256.0)
    op = assemble_operator(grid, ALPHA)
    u0 = initial_state(grid)
    level = MeshLevel(op, sample_potential(PotentialSpec.hardy_interior(0.5 * CSTAR), grid, ALPHA), 0.01)
    family = monotone_family(level, [1, 2, 4, 8, 16], u0, 0.5, 1.0 / 64.0)
    worst = -math.inf
    for lower, higher in zip(family, family[1:]):
        worst = max(worst, float(np.max(unfolded_states(lower) - unfolded_states(higher))))
        assert np.all(unfolded_states(higher) >= unfolded_states(lower) - 1e-10)
    elapsed = time.time() - start
    assert elapsed < 120.0
    _passed(4, f"truncation family is pointwise monotone, worst gap {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_5_exponential_bound(bundled_runs):
    for name, run in bundled_runs.items():
        certs = [c for c in run["report"]["certificates"] if c["name"] == "exponential_bound"]
        assert certs, name
        for cert in certs:
            assert cert["satisfied"], (name, cert)
            assert cert["lhs"] <= 1.0 + 1e-6
    # equality when u0 is the ground eigenvector and V = 0
    grid = build_grid(DOM, 1.0 / 64.0)
    op = assemble_operator(grid, ALPHA)
    res = spectral_bottom(op)
    phi0 = res.eigvec / math.sqrt(grid.cell_volume)
    traj = evolve(ImplicitStepper(op, None, 1.0 / 64.0, lambda0=res.lambda0), phi0, 0.5)
    cert = exponential_bound_certificate(traj, res.lambda0)
    assert abs(cert.lhs - 1.0) <= 1e-8
    _passed(5, "discrete exponential bound holds on all bundled runs, with ground-mode equality")


def test_criterion_6_log_estimate():
    grid = build_grid(DOM, 1.0 / 256.0)
    op = assemble_operator(grid, ALPHA)
    fld = sample_potential(PotentialSpec.hardy_interior(0.5 * CSTAR), grid, ALPHA)
    lam = spectral_bottom(op, fld).lambda0
    u0 = initial_state(grid)
    rng = np.random.default_rng(271828)
    slacks = {}
    for dt in (1.0 / 64.0, 1.0 / 128.0):
        traj = evolve(ImplicitStepper(op, fld, dt, lambda0=lam), u0, 0.5)
        worst = math.inf
        for _ in range(20):
            raw = np.abs(rng.standard_normal(op.n)) + 0.05
            Phi = raw / math.sqrt(grid.cell_volume * np.sum(raw * raw))
            cert = log_estimate_certificate(traj, Phi, 0.25, 0.5)
            assert cert.satisfied
            # the discrete inequality is exact: slack never dips below rounding,
            # so satisfaction cannot hinge on the dt-scaled tolerance term
            assert cert.slack >= -1e-9 * (1.0 + abs(cert.lhs) + abs(cert.rhs))
            worst = min(worst, cert.slack)
        slacks[dt] = worst
    _passed(6, f"log-estimate satisfied for 20 random weights at two steps, min slacks {slacks}")


def test_criterion_7_dichotomy(bundled_runs):
    start = time.time()
    sub = bundled_runs["hardy_subcritical_1d"]["report"]
    sup = bundled_runs["hardy_supercritical_1d"]["report"]
    assert sub["verdict"]["label"] == "EXISTS"
    assert sup["verdict"]["label"] == "BLOW_UP"

    lams = [lam for _, _, lam in sup["verdict"]["evidence"]["lambda0"]]
    assert all(b < a for a, b in zip(lams, lams[1:]))
    neg_ratios = [b / a for a, b in zip(lams, lams[1:]) if a < 0 and b < 0]
    assert neg_ratios and all(r >= 1.15 for r in neg_ratios)

    ball = next(c for c in sup["certificates"] if c["name"] == "shrinking_ball")
    assert ball["satisfied"]
    exponent = ball["details"]["fitted_exponent"]
    assert abs(exponent - ALPHA) <= 0.3 * ALPHA
    elapsed = time.time() - start
    _passed(
        7,
        f"verdicts EXISTS/BLOW_UP as required; descent ratios {['%.2f' % r for r in neg_ratios]}, "
        f"ball exponent {exponent:.3f} vs {ALPHA}",
    )


def test_criterion_8_duhamel_first_order():
    grid = build_grid(DOM, 1.0 / 64.0)
    op = assemble_operator(grid, ALPHA)
    fld = sample_potential(PotentialSpec.bounded("0.5 + 0.3*cos(3*x)"), grid, ALPHA)
    u0 = initial_state(grid)
    residuals = []
    for dt in (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0):
        traj = evolve(ImplicitStepper(op, fld, dt), u0, 0.5)
        residuals.append(duhamel_residual(traj, ImplicitStepper(op, None, dt)))
    ratios = [a / b for a, b in zip(residuals, residuals[1:])]
    for r in ratios:
        assert 1.6 <= r <= 2.4  # halving +-20%
    _passed(8, f"reconstruction residual halves with dt: ratios {['%.3f' % r for r in ratios]}")


def test_criterion_9_positivity_and_determinism(bundled_runs, tmp_path):
    # positivity across a mixed set of fresh evolutions, including the
    # deepest supercritical configuration at the finest bundled mesh
    checks = []
    for ratio, h, dt in [(0.5, 1.0 / 256.0, 1.0 / 64.0), (2.0, 1.0 / 512.0, 1.0 / 64.0)]:
        grid = build_grid(DOM, h)
        op = assemble_operator(grid, ALPHA)
        fld = sample_potential(PotentialSpec.hardy_interior(ratio * CSTAR), grid, ALPHA)
        lam = spectral_bottom(op, fld).lambda0
        traj = evolve(ImplicitStepper(op, fld, dt, lambda0=lam), initial_state(grid), 0.5)
        checks.append(float(np.min(unfolded_states(traj))))
    assert all(c >= 0.0 for c in checks)

    cfg = bundled_runs["bounded_1d"]["config"]
    first = run_experiment(cfg, out_dir=tmp_path / "a")
    second = run_experiment(cfg, out_dir=tmp_path / "b")
    blob_a = first["report"].read_bytes()
    blob_b = second["report"].read_bytes()
    assert blob_a == blob_b
    assert blob_a == bundled_runs["bounded_1d"]["paths"]["report"].read_bytes()
    _passed(9, f"state minima {checks} stay nonnegative; reports byte-identical across runs")
