import hashlib
import json
import math
import os
import subprocess
import sys
import weakref
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from fracheat import (
    DomainSpec,
    MissingLibrary,
    SolveFailure,
    assemble_operator,
    build_grid,
    hardy_sharp_constant,
    initial_state,
    load_config,
    monotone_family,
    normalization_constant,
    refinement_series,
    run_experiment,
)
from oracles import mesh_level, unfolded_states
import fracheat
from fracheat.cli import main
from fracheat.config import validate_config

FAST_CONFIG = {
    "schema_version": 1,
    "domain": {"kind": "interval", "R": 1.0},
    "alpha": 0.5,
    "potential": {"kind": "bounded", "expr": "0.5", "epsilon": 0.01},
    "h_schedule": [0.125, 0.0625, 0.03125],
    "k_schedule": [0.25, None],
    "dt": 0.0625,
    "t_final": 0.5,
    "probe_times": [0.5],
    "sweeps": {"log_phis": 5},
    "initial_state": {"kind": "inradius_ball"},
    "seed": 11,
}


def write_config(tmp_path, doc=FAST_CONFIG):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class Invocation(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self):
        return self.stdout + self.stderr


def invoke(capsys, argv):
    """main(argv) in this process, as the console script calls it: it always
    exits, with the command's status."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out, err = capsys.readouterr()
    return Invocation(exit_.value.code, out, err)


@pytest.mark.parametrize("argv, problem", [([], "required"), (["solve"], "invalid choice: 'solve'")],
                         ids=["no_command", "unknown_command"])
def test_missing_or_unknown_command_is_a_usage_error(capsys, argv, problem):
    result = invoke(capsys, argv)
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.startswith("usage: fracheat") and problem in result.stderr


def test_main_returns_unless_standalone(tmp_path, capsys):
    # perfbench's child process calls main(argv, standalone_mode=False): a
    # success returns, and a failure still raises SystemExit with its status
    assert main(["validate", "--config", str(write_config(tmp_path))], standalone_mode=False) is None
    assert capsys.readouterr().out == "ok\n"
    bad = str(write_config(tmp_path, dict(FAST_CONFIG, dt=-1.0)))
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--config", bad, "--out", str(tmp_path / "out")], standalone_mode=False)
    assert exit_.value.code == 2 and "config error: dt" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_constants_subcommand(capsys):
    result = invoke(capsys, ["constants", "--d", "1", "--alpha", "0.5"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert float(lines[0].split("=")[1]) == pytest.approx(normalization_constant(1, 0.5), rel=1e-11)
    assert float(lines[1].split("=")[1]) == pytest.approx(hardy_sharp_constant(1, 0.5), rel=1e-11)
    bad = invoke(capsys, ["constants", "--d", "1", "--alpha", "1.5"])
    assert bad.exit_code == 2


def test_validate_subcommand(tmp_path, capsys):
    ok = invoke(capsys, ["validate", "--config", str(write_config(tmp_path))])
    assert ok.exit_code == 0
    assert "ok" in ok.output

    bad_doc = dict(FAST_CONFIG, alpha=1.5)
    bad = invoke(capsys, ["validate", "--config", str(write_config(tmp_path, bad_doc))])
    assert bad.exit_code == 1
    assert "alpha" in bad.output

    for expr in ("x +", "().__class__.__mro__[1].__subclasses__().__len__()"):
        bad_doc = dict(FAST_CONFIG, potential={"kind": "bounded", "expr": expr})
        bad = invoke(capsys, ["validate", "--config", str(write_config(tmp_path, bad_doc))])
        assert bad.exit_code == 1
        assert "potential" in bad.output

    # well formed but not samplable: negative on the grid, overflowing, or
    # singular at a node (h = 0.4 puts a node at the origin)
    for field, change in (
        ("potential.expr", {"potential": {"kind": "bounded", "expr": "x"}}),
        ("potential.expr", {"potential": {"kind": "bounded", "expr": "0.5 + 0*10**10**7"}}),
        ("origin", {"potential": {"kind": "hardy_interior", "c": 0.1}, "h_schedule": [0.4, 0.125]}),
    ):
        path = str(write_config(tmp_path, dict(FAST_CONFIG, **change)))
        bad = invoke(capsys, ["validate", "--config", path])
        assert bad.exit_code == 1
        assert field in bad.output
        run = invoke(capsys, ["run", "--config", path, "--out", str(tmp_path / "out")])
        assert run.exit_code == 2
        assert field in run.output

    # an overflowing expression is reported once, without numpy's own warning;
    # a fresh process, because pytest captures warnings before they print
    doc = dict(FAST_CONFIG, potential={"kind": "bounded", "expr": "exp(1000*x*x)"})
    src = str(Path(fracheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "fracheat.cli", "validate", "--config", str(write_config(tmp_path, doc))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert "potential.expr" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_finest_grid_above_dense_cap_rejected(tmp_path, capsys):
    # n = 10000 from a 101 x 101 box lattice, and a 201 x 201 lattice that is
    # rejected before any grid is built
    for hs in ([0.1, 0.05, 0.02], [0.1, 0.01]):
        doc = dict(FAST_CONFIG, domain={"kind": "rectangle", "a": 1, "b": 1}, h_schedule=hs)
        path = str(write_config(tmp_path, doc))
        bad = invoke(capsys, ["validate", "--config", path])
        assert bad.exit_code == 1
        assert "h_schedule" in bad.output
        run = invoke(capsys, ["run", "--config", path, "--out", str(tmp_path / "out")])
        assert run.exit_code == 2
        assert "h_schedule" in run.output


def test_run_rejects_bad_config(tmp_path, capsys):
    bad_doc = dict(FAST_CONFIG, dt=-1.0)
    result = invoke(capsys, ["run", "--config", str(write_config(tmp_path, bad_doc)),
                             "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "dt" in result.output


@pytest.mark.parametrize(
    "content, problem",
    [(b'{"schema_version": "\xff"}', "config file: not UTF-8 text"),
     (b"[" * 200_000, "config file: JSON nested too deeply")],
    ids=["byte_ff", "deep_nesting"],
)
def test_unreadable_config_file_is_a_config_error(tmp_path, content, problem, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert [v.split(" (")[0] for v in validate_config(path)] == [problem]
    bad = invoke(capsys, ["validate", "--config", str(path)])
    assert bad.exit_code == 1 and problem in bad.output
    run = invoke(capsys, ["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert run.exit_code == 2 and problem in run.output
    assert not (tmp_path / "out").exists()


def test_threads_is_a_hidden_option_of_one_value(tmp_path, capsys):
    # kept so that callers passing --threads 1 still run; the run is serial
    config = str(write_config(tmp_path))
    ok = invoke(capsys, ["run", "--config", config, "--threads", "1", "--out", str(tmp_path / "a")])
    assert ok.exit_code == 0 and "verdict: EXISTS" in ok.output
    bad = invoke(capsys, ["run", "--config", config, "--threads", "2", "--out", str(tmp_path / "b")])
    assert bad.exit_code == 2 and "--threads" in bad.output
    assert not (tmp_path / "b").exists()
    assert "--threads" not in invoke(capsys, ["run", "--help"]).output


def test_probe_of_one_step_runs_without_the_log_sweep(tmp_path):
    # one step to the probe leaves the log estimate no earlier time
    # (test_validate_rejects_what_run_cannot_execute); without the sweep it
    # runs, and so does a probe two steps in
    dt = FAST_CONFIG["dt"]
    for name, change in (("no_sweep", {"probe_times": [dt], "sweeps": {"log_phis": 0}}),
                         ("two_steps", {"probe_times": [2 * dt]})):
        path = write_config(tmp_path, dict(FAST_CONFIG, **change))
        assert validate_config(path) == []
        report = json.loads(Path(run_experiment(load_config(path), out_dir=tmp_path / name)["report"]).read_text())
        names = [c["name"] for c in report["certificates"]]
        assert ("log_estimate_sweep" in names) == (name == "two_steps")


def test_run_end_to_end(tmp_path, capsys):
    out = tmp_path / "out"
    result = invoke(capsys, ["run", "--config", str(write_config(tmp_path)),
                             "--out", str(out)])
    assert result.exit_code == 0
    assert "verdict: EXISTS" in result.output
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1
    assert set(report) >= {
        "config_digest", "verdict", "certificates", "series_file",
        "trajectories_file", "flags", "residuals",
    }
    assert report["verdict"]["label"] == "EXISTS"
    assert report["extras"]["mirror_group_order"] == [[h, 2] for h in FAST_CONFIG["h_schedule"]]
    for cert in report["certificates"]:
        assert set(cert) >= {"name", "inputs_digest", "lhs", "rhs", "satisfied", "slack"}
    assert (out / report["series_file"]).read_text().startswith("h,k,epsilon,lambda0,iterations")
    traj_text = (out / report["trajectories_file"]).read_text()
    assert traj_text.startswith("h,k,t,l2_norm,max_value")
    assert "np.float64" not in traj_text
    assert (out / report["curves_file"]).read_text().startswith("curve,x,y")


def test_asymmetric_potential_reports_no_fold(tmp_path):
    doc = dict(FAST_CONFIG, potential={"kind": "bounded", "expr": "0.5 + 0.1*x", "epsilon": 0.01})
    paths = run_experiment(load_config(write_config(tmp_path, doc)), out_dir=tmp_path / "out")
    report = json.loads(Path(paths["report"]).read_text())
    assert report["extras"]["mirror_group_order"] == [[h, 1] for h in FAST_CONFIG["h_schedule"]]


def test_disk_reports_the_order_of_the_group_that_folds_its_potential(tmp_path):
    # disk_2d's radial potential: the square's whole group on every mesh;
    # x y on the same meshes: the diagonal mirror alone.  Unbracketed,
    # 0.2*x*y evaluates as (0.2*x)*y, which the swap x <-> y keeps only to
    # the last bit at h = 1/12 and 1/24; sample_potential averages it with
    # its mirror image, so it too folds by the diagonal mirror.
    disk = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "disk_2d.json").read_text())
    for name, potential, orders in (("radial", disk["potential"], [8, 8, 8]),
                                    ("xy", {"kind": "bounded", "expr": "0.5 + 0.2*(x*y)"}, [2, 2, 2]),
                                    ("unbracketed", {"kind": "bounded", "expr": "0.5 + 0.2*x*y"}, [2, 2, 2])):
        doc = dict(disk, potential=potential)
        paths = run_experiment(load_config(write_config(tmp_path, doc)), out_dir=tmp_path / name)
        report = json.loads(Path(paths["report"]).read_text())
        assert report["extras"]["mirror_group_order"] == [list(pair) for pair in zip(disk["h_schedule"], orders)]


def test_reports_byte_stable(tmp_path):
    cfg = load_config(write_config(tmp_path))
    blobs = []
    for i in (1, 2):
        paths = run_experiment(cfg, out_dir=tmp_path / f"run{i}")
        blobs.append(Path(paths["report"]).read_bytes())
    assert blobs[0] == blobs[1]


def test_energy_certificate_ignores_the_seed_and_energy_trials(tmp_path):
    # the energy check is exact: only the log-estimate sweep draws from the seed
    reports = {}
    for name, doc, seed in (
        ("seed7", FAST_CONFIG, 7),
        ("seed8", FAST_CONFIG, 8),
        ("trials", dict(FAST_CONFIG, sweeps={"energy_trials": 70, "log_phis": 5}), 8),
    ):
        cfg = load_config(write_config(tmp_path, doc))
        paths = run_experiment(cfg, out_dir=tmp_path / name, seed=seed)
        report = json.loads(Path(paths["report"]).read_text())
        reports[name] = {c["name"]: c for c in report["certificates"]}, report
    (a, _), (b, seed8), (_, trials) = reports.values()
    assert a["energy_inequality_sweep"] == b["energy_inequality_sweep"]
    assert a["log_estimate_sweep"]["inputs_digest"] != b["log_estimate_sweep"]["inputs_digest"]
    # energy_trials is validated but read by nothing
    assert seed8["config_digest"] != trials["config_digest"]
    assert {**seed8, "config_digest": None} == {**trials, "config_digest": None}


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    # without the in-run pin this config's reports differ in their last bits
    # between one and two OpenBLAS threads; fresh processes, because the
    # environment value is read when OpenBLAS loads
    config = write_config(tmp_path, dict(FAST_CONFIG, h_schedule=[1 / 32, 1 / 64, 1 / 128]))
    src = str(Path(fracheat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "fracheat.cli", "run", "--config", str(config),
             "--out", str(tmp_path / count)],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=count),
            stdout=subprocess.DEVNULL,
        )
        for count in ("1", "2")
    ]
    try:
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
    finally:
        for proc in procs:
            proc.kill()
    assert (tmp_path / "1" / "report.json").read_bytes() == (tmp_path / "2" / "report.json").read_bytes()


def test_run_restores_the_callers_blas_threads(tmp_path, monkeypatch):
    import fracheat.runner
    from fracheat import _lapack

    lib = _lapack.library()
    if lib is None:
        pytest.skip("this numpy build does not bundle OpenBLAS")
    get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    seen = []
    real = fracheat.runner.classify

    def spy(*args):
        seen.append(get())
        return real(*args)

    monkeypatch.setattr(fracheat.runner, "classify", spy)
    before = get()
    try:
        put(2)
        callers = get()
        run_experiment(load_config(write_config(tmp_path)), out_dir=tmp_path / "out")
        assert seen == [1]
        assert get() == callers

        def fail(*args):
            raise RuntimeError("stop")

        monkeypatch.setattr(fracheat.runner, "classify", fail)
        with pytest.raises(RuntimeError):
            run_experiment(load_config(write_config(tmp_path)), out_dir=tmp_path / "out")
        assert get() == callers
    finally:
        put(before)


def test_missing_library_fails_the_first_factorization(tmp_path, monkeypatch):
    from fracheat import _lapack

    # the BLAS pin leaves a build without the library alone
    monkeypatch.setattr(_lapack, "library", lambda: None)
    path = write_config(tmp_path)
    assert validate_config(path) == []
    with pytest.raises(MissingLibrary, match="libscipy_openblas64_"):
        run_experiment(load_config(path), out_dir=tmp_path / "out")


def _abs_normal_oracle(seed, rows, n):
    """runner._abs_normal word by word: the SHAKE-256 stream of the seed's
    digits, cut into little-endian 64-bit words; word i's top 53 bits give
    the uniform (m + 1/2) 2^-53, the first rows * n of them the radii and
    the next rows * n the angles of Box-Muller."""
    count = rows * n
    stream = hashlib.shake_256(str(seed).encode()).digest(16 * count)
    words = [int.from_bytes(stream[8 * i : 8 * i + 8], "little") for i in range(2 * count)]
    u = np.array([((w >> 11) + 0.5) * 2.0 ** -53 for w in words])
    assert np.all((0.0 < u) & (u < 1.0))
    radius, angle = u[:count].reshape(rows, n), u[count:].reshape(rows, n)
    return np.sqrt(-2.0 * np.log(radius)) * np.abs(np.cos(2.0 * np.pi * angle))


def test_log_sweep_draws_are_half_normal():
    from fracheat.runner import _abs_normal

    draws = _abs_normal(11, (40, 1000))
    assert np.array_equal(draws, _abs_normal_oracle(11, 40, 1000))
    assert not np.array_equal(draws, _abs_normal(12, (40, 1000)))
    # |N(0, 1)|: mean sqrt(2 / pi), P(< 1) = erf(1 / sqrt 2), each to 6 standard errors
    assert abs(draws.mean() - math.sqrt(2.0 / math.pi)) <= 6 * 0.6028 / 200
    assert abs(np.mean(draws < 1.0) - math.erf(0.5 ** 0.5)) <= 6 * 0.4655 / 200


def test_log_sweep_batch_keeps_draws_and_worst_row(tmp_path, monkeypatch):
    import fracheat.runner

    logs = []
    real_log = fracheat.runner.log_estimate_certificate

    def log_spy(traj, Phi, t1, t2):
        logs.append((traj, Phi.copy(), t1, t2))
        return real_log(traj, Phi, t1, t2)

    monkeypatch.setattr(fracheat.runner, "log_estimate_certificate", log_spy)
    paths = run_experiment(load_config(write_config(tmp_path)), out_dir=tmp_path / "out")
    report = json.loads(Path(paths["report"]).read_text())
    # one batch of the seed's first five rows of draws, reported by its worst row
    ((traj, Phi, t1, t2),) = logs
    draws = _abs_normal_oracle(FAST_CONFIG["seed"], *Phi.shape)
    vol = traj.operator.cell_volume
    singles = []
    for row, raw in zip(Phi, draws + 0.05):
        assert np.array_equal(row, raw / math.sqrt(vol * np.sum(raw * raw)))
        singles.append(real_log(traj, row, t1, t2))
    (log,) = [c for c in report["certificates"] if c["name"] == "log_estimate_sweep"]
    assert log["inputs_digest"] == min(singles, key=lambda c: c.slack).inputs_digest
    assert set(log["details"]) == {"t1", "t2", "dt", "phis"}


def test_one_free_flow_factor_per_run(tmp_path, monkeypatch):
    from fracheat.evolution import ImplicitStepper

    free = []
    real_init = ImplicitStepper.__init__

    def counting(self, M, V, dt, lambda0=None):
        if V is None:
            free.append((M.n, dt))
        real_init(self, M, V, dt, lambda0=lambda0)

    monkeypatch.setattr(ImplicitStepper, "__init__", counting)
    cfg = load_config(write_config(tmp_path))
    run_experiment(cfg, out_dir=tmp_path / "out")
    assert len(free) == 1
    assert free[0][0] == assemble_operator(build_grid(cfg.domain, cfg.h_schedule[-1]), cfg.alpha).n


HARDY_3_MESHES = dict(FAST_CONFIG, potential={"kind": "hardy_interior", "c_over_cstar": 2.0, "epsilon": 0.01},
                      h_schedule=[0.0625, 0.03125, 0.015625], k_schedule=[0.5, 1, 2, None])


def test_certificates_run_with_the_finest_operator_alone(tmp_path, monkeypatch):
    # the coarser meshes' operators, with their folds and trajectories, are
    # freed by refcounting before the battery, not kept until the run returns
    from fracheat import runner

    refs, alive = [], []
    real_assemble, real_comparability = runner.assemble_operator, runner.ground_state_comparability

    def assemble(grid, alpha):
        op = real_assemble(grid, alpha)
        refs.append(weakref.ref(op))
        return op

    def comparability(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return real_comparability(*args, **kwargs)

    monkeypatch.setattr(runner, "assemble_operator", assemble)
    monkeypatch.setattr(runner, "ground_state_comparability", comparability)
    run_experiment(load_config(write_config(tmp_path, HARDY_3_MESHES)), out_dir=tmp_path / "out")
    assert alive == [[False, False, True]]


def test_report_is_written_after_the_certificates(tmp_path, monkeypatch):
    # the CSV files come from the phase that reads every mesh, report.json
    # last: a battery that fails leaves the CSV files and no report
    from fracheat import runner

    def failing(*args, **kwargs):
        raise SolveFailure("factorization of the implicit system failed")

    monkeypatch.setattr(runner, "ground_state_comparability", failing)
    out = tmp_path / "out"
    with pytest.raises(SolveFailure):
        run_experiment(load_config(write_config(tmp_path, HARDY_3_MESHES)), out_dir=out)
    assert sorted(p.name for p in out.iterdir()) == ["curves.csv", "series.csv", "trajectories.csv"]


def test_one_factorization_per_family_at_the_finest_order(tmp_path, monkeypatch):
    from fracheat import _lapack

    orders = []
    real = _lapack.cholesky

    def counting(a):
        orders.append(len(a))
        return real(a)

    monkeypatch.setattr(_lapack, "cholesky", counting)
    cfg = load_config(write_config(tmp_path, HARDY_3_MESHES))
    run_experiment(cfg, out_dir=tmp_path / "out")
    level = mesh_level(cfg.domain, cfg.alpha, cfg.potential, cfg.h_schedule[-1])
    assert [level.effective_k(k) for k in cfg.k_schedule] == [0.5, 1, 2, math.inf]
    reps = level.op.fold(level.potential)[0][0]
    m = len(reps)
    assert m == level.op.n // 2  # the one mirror of the interval fixes V
    # the scaled bottoms, the unscaled bottoms and the steppers are one
    # family each; the free bottom and the free stepper add one each
    assert orders.count(m) == 5
    # the shallower levels refactor trailing blocks of the representatives above k
    above = [int(np.sum(level.potential[reps] > k)) for k in (2, 1, 0.5)]
    assert 0 < above[0] < above[-1] < m
    assert orders.count(above[0]) >= 3


def _the_four_configs():
    bundled = [resources.files("fracheat") / "configs" / f"{name}.json"
               for name in ("bounded_1d", "hardy_subcritical_1d", "hardy_supercritical_1d")]
    disk = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "disk_2d.json"
    return [load_config(str(p)) for p in (*bundled, disk)]


def test_default_ball_schedule_builds_no_grid(monkeypatch):
    from fracheat.diagnostics import default_ball_schedule

    configs = _the_four_configs()
    calls = []
    for name, mod in list(sys.modules.items()):
        if name.startswith("fracheat") and hasattr(mod, "build_grid"):
            real = mod.build_grid
            monkeypatch.setattr(mod, "build_grid", lambda *a, real=real: calls.append(a) or real(*a))
    counts = [len(default_ball_schedule(c.domain, c.h_schedule[-1])) for c in configs]
    assert counts == [5, 7, 7, 3]
    assert calls == []


def test_config_parse_builds_every_grid_the_run_solves(tmp_path, monkeypatch):
    # load_config builds every mesh's grid, potential and initial state and
    # every ball the probe solves: none for the boundary potential, the
    # largest ball alone for hardy_interior (the others scale its bottom) and
    # every ball for bounded.  The run builds and samples nothing.
    parsed, ran, schedules = {}, {}, {}
    for name in ("hardy_boundary_2d", "hardy_subcritical_1d", "bounded_1d"):
        calls = []
        with monkeypatch.context() as patch:
            for modname, mod in list(sys.modules.items()):
                for fn in ("build_grid", "sample_potential"):
                    if modname.startswith("fracheat") and hasattr(mod, fn):
                        real = getattr(mod, fn)
                        patch.setattr(mod, fn, lambda *a, fn=fn, real=real: calls.append(fn) or real(*a))
            cfg = load_config(str(resources.files("fracheat") / "configs" / f"{name}.json"))
            parsed[name], schedules[name] = calls.count("build_grid"), cfg.ball_schedule
            calls.clear()
            run_experiment(cfg, out_dir=tmp_path / name)
            ran[name] = calls
    assert ran == {"hardy_boundary_2d": [], "hardy_subcritical_1d": [], "bounded_1d": []}
    assert parsed == {"hardy_boundary_2d": 3, "hardy_subcritical_1d": 5, "bounded_1d": 8}
    assert schedules["hardy_boundary_2d"] == []


def test_ball_probe_runs_where_r0_is_not_whole_cells(tmp_path):
    # r0 = 0.5 at the finest h = 1/33 is 16.5 cells: a ball at that spacing
    # would put a node at the origin of the Hardy potential
    doc = dict(FAST_CONFIG)
    doc["potential"] = {"kind": "hardy_interior", "c_over_cstar": 2.0, "epsilon": 0.01}
    doc["h_schedule"] = [0.0625, 0.04, 0.030303030303030304]
    path = write_config(tmp_path, doc)
    assert validate_config(path) == []
    paths = run_experiment(load_config(path), out_dir=tmp_path / "out")
    report = json.loads(Path(paths["report"]).read_text())
    ball = next(c for c in report["certificates"] if c["name"] == "shrinking_ball")
    assert ball["details"]["radii"] == [0.5, 0.25, 0.125]


def test_import_leaves_out_quadrature_and_special_functions(tmp_path):
    # a fresh process: importing scipy took about 0.35 s of every run's
    # set-up; the run's kernels are numpy's and its bundled OpenBLAS's, and
    # the killing density's quadrature is the package's own, for the disk and
    # the rectangle alike.  bounded_1d runs, and so does disk_2d on a square.
    # Nor does a run load concurrent.futures (about 9 ms of a cold import
    # with the logging it loads), or numpy.random for the log-estimate sweep
    # (about ten extension modules).  Nor does the command line load click,
    # about 1 MB of peak RSS and 10-17 ms of import to parse argv.  Nor does
    # a run call a numpy.linalg LAPACK driver: the Lanczos Ritz pairs come
    # from _lapack's stev and the probe's slope is in closed form; the first
    # eigh and polyfit calls mapped LAPACK code a run does not otherwise touch.
    configs = [str(resources.files("fracheat") / "configs" / f"{name}.json")
               for name in ("bounded_1d", "hardy_subcritical_1d", "hardy_supercritical_1d")]
    disk = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "disk_2d.json"
    square = tmp_path / "square.json"
    doc = dict(json.loads(disk.read_text()), domain={"kind": "rectangle", "a": 1, "b": 1})
    square.write_text(json.dumps(doc))
    configs += [str(disk), str(square)]
    code = (
        "import sys, numpy, fracheat, fracheat.cli\n"
        "def driver(*args, **kwargs): raise AssertionError('a run called a numpy.linalg driver')\n"
        "numpy.linalg.eigh = numpy.linalg.lstsq = numpy.polyfit = driver\n"
        "for path in sys.argv[2:]: fracheat.load_config(path)\n"
        "for i, path in enumerate((sys.argv[2], sys.argv[-1])):\n"
        "    fracheat.run_experiment(fracheat.load_config(path), out_dir=f'{sys.argv[1]}/{i}')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'click')\n"
        "             or m == 'concurrent.futures' or m.startswith('numpy.random')))"
    )
    src = str(Path(fracheat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), *configs],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "0" / "report.json").exists() and (tmp_path / "1" / "report.json").exists()


def _run_loading_hashes(tmp_path, name, blocked=()):
    """`fracheat run` on FAST_CONFIG in a fresh process with the modules in
    `blocked` made unimportable; returns its report bytes and which of
    hashlib and OpenSSL's _hashlib it loaded."""
    code = (
        "import sys\n"
        f"for m in {list(blocked)!r}: sys.modules[m] = None\n"
        "import fracheat.cli\n"
        "fracheat.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]], standalone_mode=False)\n"
        "print(*sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))"
    )
    src = str(Path(fracheat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = tmp_path / name
    proc = subprocess.run([sys.executable, "-c", code, str(write_config(tmp_path)), str(out)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    return (out / "report.json").read_bytes(), proc.stdout.splitlines()[-1].split()


def _has_built_in_hashes():
    from importlib.util import find_spec

    return bool((find_spec("_sha2") or find_spec("_sha256")) and find_spec("_sha3"))


@pytest.mark.skipif(not _has_built_in_hashes(), reason="no built-in SHA-256 and SHAKE-256")
def test_run_loads_no_openssl(tmp_path):
    # import hashlib loads OpenSSL's _hashlib, about 3.5 MB of peak RSS; the
    # digests and the log-sweep draws come from CPython's built-in modules
    _, loaded = _run_loading_hashes(tmp_path, "built_in")
    assert loaded == []


def test_run_without_built_in_hashes_falls_back_to_hashlib(tmp_path):
    # the same digests and draws, byte for byte, through hashlib
    report, _ = _run_loading_hashes(tmp_path, "built_in")
    fallback, loaded = _run_loading_hashes(tmp_path, "fallback", ("_sha2", "_sha256", "_sha3"))
    assert "hashlib" in loaded
    assert fallback == report


def test_runner_dt_matches_min_over_k_rule():
    from fracheat.evolution import STEP_MARGIN

    for cfg in _the_four_configs():
        def coarsest():
            return mesh_level(cfg.domain, cfg.alpha, cfg.potential, cfg.h_schedule[0])

        level = coarsest()
        worst = min(level.lambda0s([k])[0] for k in cfg.k_schedule)
        dt = cfg.dt
        while dt * max(0.0, -worst) >= STEP_MARGIN:
            dt *= 0.5
        assert level.lambda0s([max(cfg.k_schedule)])[0] == worst
        u0 = initial_state(level.op.grid)
        family = monotone_family(coarsest(), cfg.k_schedule, u0, cfg.t_final, cfg.dt)
        assert {traj.dt for traj in family} == {dt}


def test_runner_builds_on_one_level_pipeline(tmp_path, monkeypatch):
    import fracheat.runner

    captured = {}
    real_classify = fracheat.runner.classify

    def spy(series, family, thresholds):
        captured["family"] = family
        return real_classify(series, family, thresholds)

    monkeypatch.setattr(fracheat.runner, "classify", spy)
    cfg = load_config(write_config(tmp_path))
    paths = run_experiment(cfg, out_dir=tmp_path / "out")

    levels = [mesh_level(cfg.domain, cfg.alpha, cfg.potential, h) for h in cfg.h_schedule]
    series = refinement_series(levels, cfg.k_schedule)
    rows = [line.split(",") for line in Path(paths["series"]).read_text().splitlines()[1:]]
    parsed = [
        (float(h), float(k), float(eps), float(lam), int(its)) for h, k, eps, lam, its in rows
    ]
    assert parsed == [(e.h, e.k, e.epsilon, e.lambda0, e.iterations) for e in series.entries]

    family = captured["family"]
    assert len(family) == len(cfg.h_schedule) * len(cfg.k_schedule)
    for i, h in enumerate(cfg.h_schedule):
        level = mesh_level(cfg.domain, cfg.alpha, cfg.potential, h)
        runner_family = family[i * len(cfg.k_schedule):(i + 1) * len(cfg.k_schedule)]
        expected = monotone_family(
            level, cfg.k_schedule, initial_state(level.op.grid), cfg.t_final, runner_family[0].dt
        )
        for got, want in zip(runner_family, expected):
            assert got.grid.h == h and got.k == want.k
            assert np.array_equal(unfolded_states(got), unfolded_states(want))


def test_bundled_configs_validate():
    for name in ("hardy_subcritical_1d", "hardy_supercritical_1d", "bounded_1d", "hardy_boundary_2d"):
        path = resources.files("fracheat") / "configs" / f"{name}.json"
        assert validate_config(str(path)) == []


def test_validate_bounds_the_log_sweep_draws(tmp_path):
    # the sweep's draws and Phi take 24 bytes per entry of its (log_phis, n)
    # block at once: validate refuses a count whose block exceeds
    # LOG_DRAW_BUDGET on the finest grid and accepts every shipped and
    # benchmark config.  Only validate runs here, so nothing is drawn
    from fracheat.config import LOG_DRAW_BUDGET

    n = build_grid(DomainSpec.interval(1.0), FAST_CONFIG["h_schedule"][-1]).n
    most = LOG_DRAW_BUDGET // (24 * n)
    doc = dict(FAST_CONFIG, sweeps={"log_phis": most})
    assert validate_config(str(write_config(tmp_path, doc))) == []
    for phis in (most + 1, 10 ** 12):
        doc = dict(FAST_CONFIG, sweeps={"log_phis": phis})
        (problem,) = validate_config(str(write_config(tmp_path, doc)))
        assert problem.startswith(f"sweeps.log_phis: {phis} test functions")
    shipped = [resources.files("fracheat") / "configs" / f"{name}.json" for name in
               ("hardy_subcritical_1d", "hardy_supercritical_1d", "bounded_1d", "hardy_boundary_2d")]
    benchmark = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "configs").glob("*.json"))
    assert benchmark
    for path in shipped + benchmark:
        assert validate_config(str(path)) == []


def test_state_checkpoint_dump(tmp_path):
    doc = dict(FAST_CONFIG)
    doc["state_checkpoints"] = [0.25, 0.5]
    cfg = load_config(write_config(tmp_path, doc))
    run_experiment(cfg, out_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "states.csv").read_text().strip().splitlines()
    assert lines[0] == "h,k,t,index,value"
    # 3 meshes x 2 truncation levels x 2 checkpoints x n nodes
    ns = [16, 32, 64]
    assert len(lines) - 1 == sum(2 * 2 * n for n in ns)
    assert "np.float64" not in lines[1]
    bad = dict(FAST_CONFIG)
    bad["state_checkpoints"] = [0.3]
    assert any("state_checkpoints" in v for v in validate_config(write_config(tmp_path, bad)))


def test_untruncated_level_is_inf_in_csv_and_null_in_json(tmp_path):
    cfg = load_config(write_config(tmp_path, dict(FAST_CONFIG, state_checkpoints=[0.5])))
    assert cfg.k_schedule == [0.25, math.inf]  # JSON null, the untruncated level
    paths = run_experiment(cfg, out_dir=tmp_path / "out")

    def levels(name, column, curve=""):
        rows = [line.split(",") for line in (tmp_path / "out" / name).read_text().splitlines()[1:]]
        return {row[column] for row in rows if row[0].startswith(curve)}

    assert levels("trajectories.csv", 1) == {"0.25", "inf"}
    assert levels("states.csv", 1) == {"0.25", "inf"}
    assert levels("curves.csv", 1, "lambda0_vs_k") == {"0.25", "inf"}
    text = Path(paths["report"]).read_text()
    assert "Infinity" not in text
    evidence = json.loads(text)["verdict"]["evidence"]["lambda0"]
    assert [k for _, k, _ in evidence] == [None] * len(cfg.h_schedule)


def test_config_parsed_once(tmp_path, monkeypatch):
    # load_config builds the config from the values that validation checked
    from fracheat import config

    calls = []
    real = config._potential_from_dict
    monkeypatch.setattr(config, "_potential_from_dict", lambda *args: calls.append(args) or real(*args))
    cfg = load_config(write_config(tmp_path, dict(FAST_CONFIG, state_checkpoints=[0.25])))
    assert len(calls) == 1
    assert (cfg.alpha, cfg.probe_time, cfg.state_checkpoints) == (0.5, 0.5, [0.25])
    assert cfg.h_schedule == [0.125, 0.0625, 0.03125] and cfg.k_schedule == [0.25, math.inf]


def test_boundary_hardy_run_reports_flag_and_estimate(tmp_path):
    doc = dict(FAST_CONFIG)
    doc["potential"] = {"kind": "hardy_boundary", "kappa": 0.1, "epsilon": 0.01}
    cfg = load_config(write_config(tmp_path, doc))
    paths = run_experiment(cfg, out_dir=tmp_path / "out")
    report = json.loads(Path(paths["report"]).read_text())
    assert any("outside_theory" in f for f in report["flags"])  # d = 1
    est = report["extras"]["boundary_hardy_constant"]
    assert est["estimate"] > 0
    assert len(est["series"]) == len(FAST_CONFIG["h_schedule"])
    # the shrinking-ball probe would test another potential on its balls
    assert "shrinking_ball" not in [c["name"] for c in report["certificates"]]


@pytest.mark.parametrize(
    "change, problem",
    [
        ({"h_schedule": [0.125, 0.0625]}, "h_schedule: needs at least 3 spacings"),
        ({"h_schedule": None}, "h_schedule: missing or empty"),
        ({"h_schedule": 0.125}, "h_schedule: missing or empty"),
        ({"potential": {"kind": "custom", "table": "t.csv"}}, "unknown kind 'custom'"),
        # the probe's radii follow from the domain and the finest spacing alone
        ({"ball_schedule": [0.3, 0.15, 0.075]}, "ball_schedule: unknown key"),
        ({"ball_schedule": None}, "ball_schedule: unknown key"),
        # the default radii are 0.5, 0.25 and 0.125 at the finest h = 1/32, and
        # |x| = 3/128 is a node of the r = 0.25 ball (spacing 1/64), none of the
        # h_schedule grids (odd multiples of 1/64 and coarser) or the other balls
        ({"potential": {"kind": "bounded", "expr": "1 - 2*maximum(0, 1 - 1e6*abs(abs(x) - 0.0234375))"}},
         "potential.expr: potential must be nonnegative (ball r=0.25)"),
        ({"initial_state": {"kind": "ball", "radius": 0.001}}, "initial_state.radius: no grid node"),
        # only a ball initial state reads a radius: the others ran with it ignored
        ({"initial_state": {"kind": "constant", "radius": "x"}}, "initial_state.radius: unknown key"),
        ({"initial_state": {"kind": "inradius_ball", "radius": 0.3}}, "initial_state.radius: unknown key"),
        ({"domain": [1.0]}, "domain: must be a JSON object"),
        ({"sweeps": 5}, "sweeps: must be a JSON object"),
        ({"potential": {"kind": "bounded", "expr": "0.5", "epsilon": "x"}}, "potential.epsilon"),
        ({"thresholds": {"comparability_ratio_bound": "x"}}, "thresholds.comparability_ratio_bound"),
        # r_max / r_min is never below 1, so this bound could never hold
        ({"thresholds": {"comparability_ratio_bound": 0.5}},
         "thresholds.comparability_ratio_bound: must be at least 1"),
        ({"state_checkpoints": 0.5}, "state_checkpoints: must be a list"),
        # falsy values that are not lists were read as no checkpoints
        ({"state_checkpoints": 0}, "state_checkpoints: must be a list"),
        ({"state_checkpoints": False}, "state_checkpoints: must be a list"),
        ({"state_checkpoints": ""}, "state_checkpoints: must be a list"),
        ({"state_checkpoints": {}}, "state_checkpoints: must be a list"),
        ({"output_dir": 5}, "output_dir: must be a string"),
        ({"t_final": 1e308}, "t_final: must be a positive integer multiple of dt"),
        # a bool is not a JSON number: each of these ran as 1, 0 or the string's float
        ({"domain": {"kind": "disk", "R": 1.0}, "alpha": True, "h_schedule": [0.25, 0.125, 0.0625]},
         "alpha: missing or not a number"),
        ({"sweeps": {"energy_trials": True}}, "sweeps.energy_trials: must be a nonnegative integer"),
        ({"domain": {"kind": "disk", "R": "1.0"}, "h_schedule": [0.25, 0.125, 0.0625]},
         "domain.R: must be a number"),
        ({"potential": {"kind": "hardy_boundary", "kappa": "0.26"}}, "potential.kappa: must be a number"),
        ({"h_schedule": [True, 0.5, 0.25]}, "h_schedule: entries must be positive numbers"),
        ({"k_schedule": [True, None]}, "k_schedule: entries must be numbers or null"),
        ({"potential": {"kind": "bounded", "expr": "0.5", "epsilon": False}}, "potential.epsilon"),
        ({"seed": True}, "seed: must be an integer"),
        # integers beyond a double's range crashed validate or run on float()
        ({"dt": 1, "t_final": 10 ** 400}, "t_final: missing or not a positive number"),
        ({"k_schedule": [10 ** 400, None]}, "k_schedule: entries must be numbers or null"),
        # the schedule rules
        ({"h_schedule": []}, "h_schedule: missing or empty"),
        ({"h_schedule": [0.03125, 0.0625, 0.125]}, "h_schedule: must be strictly decreasing"),
        ({"k_schedule": [0.5, 0.25, None]}, "k_schedule: must be strictly increasing (null last)"),
        ({"k_schedule": [0.25, None, 0.5]}, "k_schedule: must be strictly increasing (null last)"),
        # run reads one probe time
        ({"probe_times": [0.25, 0.5]}, "probe_times: must be a list of one time"),
        # the log estimate's earlier time would be the probe time itself
        ({"probe_times": [0.0625]}, "probe_times: must be at least 2*dt when sweeps.log_phis > 0"),
        # misspelled keys ran with the defaults in their place
        ({"ball_schedul": [0.3, 0.15, 0.075]}, "ball_schedul: unknown key"),
        ({"thresholds": {"growth_ratoi": 3.0}}, "thresholds.growth_ratoi: unknown key"),
        ({"sweeps": {"energy_trails": 1, "log_phis": 10}}, "sweeps.energy_trails: unknown key"),
        ({"potential": {"kind": "bounded", "expr": "0.5", "epsilom": 0.2}}, "potential.epsilom: unknown key"),
        # each kind names its own keys
        ({"potential": {"kind": "hardy_interior", "c": 0.1, "kappa": 0.1}}, "potential.kappa: unknown key"),
        ({"domain": {"kind": "interval", "R": 1.0, "b": 1.0}}, "domain.b: unknown key"),
        ({"initial_state": {"kind": "ball", "radius": 0.5, "center": 0.1}}, "initial_state.center: unknown key"),
    ],
    ids=[
        "two_meshes", "h_schedule_null", "h_schedule_number", "custom", "ball_schedule", "ball_schedule_null",
        "negative_on_a_ball", "tiny_initial_ball", "constant_radius", "inradius_ball_radius",
        "domain_list", "sweeps_number", "epsilon_string", "comparability_string", "comparability_below_one",
        "checkpoints_number",
        "checkpoints_zero", "checkpoints_false", "checkpoints_empty_string", "checkpoints_empty_object",
        "output_dir_number", "t_final_overflow", "alpha_true", "trials_true", "domain_R_string",
        "kappa_string", "h_true", "k_true", "epsilon_false", "seed_true", "t_final_huge_int",
        "k_huge_int", "h_empty", "h_increasing", "k_decreasing", "k_null_before_number",
        "two_probe_times", "probe_one_step", "ball_schedul", "growth_ratoi", "energy_trails", "epsilom",
        "interior_kappa", "interval_b", "initial_center",
    ],
)
def test_validate_rejects_what_run_cannot_execute(tmp_path, change, problem, capsys):
    path = str(write_config(tmp_path, dict(FAST_CONFIG, **change)))
    bad = invoke(capsys, ["validate", "--config", path])
    assert bad.exit_code == 1
    assert problem in bad.output
    run = invoke(capsys, ["run", "--config", path, "--out", str(tmp_path / "out")])
    assert run.exit_code == 2
    assert problem in run.output


def test_ball_schedule_bounds_that_run_accepts(tmp_path):
    from fracheat.diagnostics import default_ball_schedule

    # a default schedule of two radii (finest h = 1/16) is skipped without a word
    doc = dict(FAST_CONFIG, h_schedule=[0.25, 0.125, 0.0625])
    cfg = load_config(write_config(tmp_path, doc))
    assert len(default_ball_schedule(cfg.domain, cfg.h_schedule[-1])) == 2
    assert cfg.ball_schedule == []
    report = json.loads(Path(run_experiment(cfg, out_dir=tmp_path / "out")["report"]).read_text())
    assert "shrinking_ball" not in [c["name"] for c in report["certificates"]]
