"""fracheat benchmark: time to a verdict of `fracheat run` on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports fracheat from the checkout's
`src` and writes only under `.perfbench_runs/`.  Every sample starts fresh
processes (perfbench/child.py) that call the `fracheat run --threads 1
--seed N` entry point on the workload's configs, as a user would.  BLAS
threading is left at the library default.

--trace 0 (end-to-end, tracing off):
  run_s        wall time of the run command, config path to report.json
               written; summed over the workload's configs per sample.
  setup_s      interpreter start to imported package and loaded, validated
               config, in the same fresh process; also taken from extra
               set-up-only processes.
  peak_rss_mb  peak resident memory of the largest process of a sample.
  Each is the median over the samples that fit in --seconds, which also
  covers validation and the set-up-only processes.  failed_runs
  is printed too; it is the final line's failed / attempted.
--trace 1 (per layer): one traced sample (spans from spans.py), then
  untraced samples for the rest of --seconds to give the tracing overhead.

Every sample's outputs are checked against perfbench/reference/ (see
`check_outputs`).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; metric names and units are those of
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SHIPPED = SRC / "fracheat" / "configs"

# Relative tolerance for series lambda0 and verdict evidence against the
# reference.  Reports differ by ~3e-14 between BLAS thread counts; 1e-6 also
# admits a change of eigen-solver that meets the 1e-8 residual contract.
REL_TOL = 1e-6
SETUP_PROBES = 3
# Every child is killed by this many seconds after this process started, so
# that a hung run still ends the benchmark inside its 180 s limit.
DEADLINE_S = 170.0
STARTED = time.monotonic()

WORKLOADS = {
    # ROADMAP's own end-to-end set: the dense-eigh path at n <= 1024 and the
    # only workload with both EXISTS and BLOW_UP verdicts.
    "bundled_1d": [SHIPPED / "bounded_1d.json",
                   SHIPPED / "hardy_subcritical_1d.json",
                   SHIPPED / "hardy_supercritical_1d.json"],
    # 2-D disk: the only workload where killing-density quadrature and 2-D
    # assembly do real work; the 1-D density is closed-form.
    "disk_2d": [BENCH / "configs" / "disk_2d.json"],
    # Finest n = 2304 is above DENSE_EIG_CUTOFF: iterative spectral branch,
    # the largest operator, and the only states.csv writer.  Not listed in
    # BENCHMARK.json: its memory-bound solves made run_s too unsteady on a
    # shared 2-core box to gate on (see README.md).
    "above_cutoff_1d": [BENCH / "configs" / "above_cutoff_1d.json"],
}

# Spans every workload must record at least once in the traced run.  Kernel
# counters (linalg.*, hashlib.*) may legitimately drop to zero.
EXPECTED_SPANS = (
    "geometry.build_grid", "assembly.killing_density", "assembly.assemble_operator",
    "potentials.sample_potential", "potentials.truncate", "spectral.spectral_bottom",
    "evolution.evolve", "evolution.ImplicitStepper.__init__", "evolution.ImplicitStepper.step",
    "evolution.duhamel_residual", "diagnostics.energy_inequality_certificate",
    "diagnostics.log_estimate_certificate", "diagnostics.exponential_bound_certificate",
    "diagnostics.ground_state_comparability", "diagnostics.shrinking_ball_certificate",
    "diagnostics.classify", "runner.run_experiment",
)
LAYERS = ("cli", "config", "geometry", "assembly", "potentials", "spectral",
          "evolution", "diagnostics", "runner", "linalg", "hashlib")


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _time_left() -> float:
    return max(1.0, STARTED + DEADLINE_S - time.monotonic())


def run_child(config: Path, out: Path, seed: int, result: Path, *, trace: Path | None = None,
              setup_only: bool = False) -> dict:
    """Start one fresh process and return what it measured plus exit status."""
    shutil.rmtree(out, ignore_errors=True)
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--config", str(config), "--out", str(out),
           "--seed", str(seed), "--result", str(result), "--src", str(SRC)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=_time_left())
    rec = json.loads(result.read_text()) if result.exists() else {}
    rec["config"] = config.stem
    rec["exit_code"] = proc.returncode
    if proc.returncode != 0:
        rec["problems"] = [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    return rec


def validate(configs) -> None:
    """`fracheat validate` on each config before anything is timed."""
    for cfg in configs:
        proc = subprocess.run([sys.executable, "-m", "fracheat.cli", "validate", "--config", str(cfg)],
                              cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=_time_left())
        if proc.returncode != 0:
            raise BenchError(f"fracheat validate failed on {cfg}: {proc.stderr.strip()}")


# --- correctness -------------------------------------------------------------


def _k(text: str):
    return None if text == "inf" else float(text)


def read_outputs(out: Path) -> dict:
    """The checked parts of one run's outputs, in the reference file's layout."""
    report = json.loads((out / "report.json").read_text())
    series = []
    with open(out / "series.csv") as fh:
        next(fh)
        for line in fh:
            h, k, _eps, lam, _its = line.strip().split(",")
            series.append([float(h), _k(k), float(lam)])
    verdict = report["verdict"]
    return {
        "label": verdict["label"],
        "certificates": [[c["name"], c["satisfied"]] for c in report["certificates"]],
        "series_lambda0": series,
        "evidence": {"lambda0": verdict["evidence"]["lambda0"],
                     "sup_norms": verdict["evidence"]["sup_norms"]},
    }


def _close_rows(name, got, want, problems) -> None:
    if len(got) != len(want):
        problems.append(f"{name}: {len(got)} rows, reference has {len(want)}")
        return
    for g, w in zip(got, want):
        keys_g, keys_w = g[:-1], w[:-1]
        if keys_g != keys_w or not math.isclose(g[-1], w[-1], rel_tol=REL_TOL, abs_tol=1e-12):
            problems.append(f"{name}: got {g}, reference {w} (rel tol {REL_TOL})")
            return


def check_outputs(out: Path, stem: str) -> tuple[list, dict]:
    """Compare one run with perfbench/reference/<stem>.json.

    Checked: verdict label, each certificate's satisfied flag in order, the
    series.csv lambda0 values and the verdict evidence (lambda0 and probe sup
    norms) within REL_TOL.  report.json bytes and inputs_digest differ with
    the BLAS thread count and certificate lhs/rhs are expected to change, so
    they are recorded only.
    """
    want = json.loads((BENCH / "reference" / f"{stem}.json").read_text())
    try:
        got = read_outputs(out)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable outputs: {exc}"], {}
    problems = []
    if got["label"] != want["label"]:
        problems.append(f"verdict {got['label']}, expected {want['label']}")
    if got["certificates"] != want["certificates"]:
        problems.append(f"certificate flags {got['certificates']}, expected {want['certificates']}")
    _close_rows("series.csv lambda0", got["series_lambda0"], want["series_lambda0"], problems)
    for key in ("lambda0", "sup_norms"):
        _close_rows(f"evidence {key}", got["evidence"][key], want["evidence"][key], problems)
    report = json.loads((out / "report.json").read_text())
    recorded = {
        "report_sha256": hashlib.sha256((out / "report.json").read_bytes()).hexdigest(),
        "inputs_digests": [c["inputs_digest"] for c in report["certificates"]],
    }
    return problems, recorded


def run_sample(workload: str, seed: int, trace: bool = False) -> list:
    """One sample: each of the workload's configs in a fresh process, checked."""
    base = RUNS / workload
    procs = []
    for cfg in WORKLOADS[workload]:
        out = base / "out" / cfg.stem
        spans = base / "spans" / f"{cfg.stem}.json" if trace else None
        if spans is not None:
            spans.parent.mkdir(parents=True, exist_ok=True)
        rec = run_child(cfg, out, seed, base / f"child_{cfg.stem}.json", trace=spans)
        if rec["exit_code"] == 0:
            rec["problems"], rec["recorded"] = check_outputs(out, cfg.stem)
            rec["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        if spans is not None:
            rec["spans_file"] = str(spans.relative_to(ROOT))
        procs.append(rec)
    return procs


def sample_ok(sample: list) -> bool:
    return all(not p.get("problems") for p in sample)


# --- statistics and environment ----------------------------------------------


def summary(values: list) -> dict:
    """Median, quartiles and sample count.  A tail percentile is given only
    when at least ten samples lie beyond it (p90 from 100 samples)."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def environment(children: list) -> dict:
    blas = next((c["blas"] for c in children if "blas" in c), {})
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        **blas.get("versions", {}),
        "blas_threads": {k: blas[k] for k in ("numpy", "scipy") if k in blas},
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def declared_metrics(kind: str) -> dict:
    """name -> unit for the end_to_end or per_layer list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# --- per-layer metrics from spans --------------------------------------------


def span_stats(spans: list) -> dict:
    """name -> calls, inclusive seconds and self seconds (span minus the part
    its direct children cover)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _parent) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["s"] += end - start
        st["self_s"] += end - start - child_time[i]
    return stats


def layer_metrics(doc: dict, config_dt: float, run_s: float) -> dict:
    """Per-layer numbers of one traced process."""
    stats = span_stats(doc["spans"])
    c = doc["counters"]

    def calls(name):
        return stats[name]["calls"] if name in stats else 0

    def secs(name, key="s"):
        return stats[name][key] if name in stats else 0.0

    layers = {layer: 0.0 for layer in LAYERS}
    for name, st in stats.items():
        layers[name.split(".")[0]] += st["self_s"]
    m = {
        "geometry.build_grid.calls": calls("geometry.build_grid"),
        "geometry.build_grid.s": secs("geometry.build_grid"),
        "assembly.killing_density.calls": calls("assembly.killing_density"),
        "assembly.killing_density.s": secs("assembly.killing_density"),
        "assembly.killing_density.nodes": c.get("killing_density.nodes", 0),
        "assembly.killing_density.radii": c.get("killing_density.radii", 0),
        "assembly.assemble_operator.calls": calls("assembly.assemble_operator"),
        "assembly.assemble_operator.self_s": secs("assembly.assemble_operator", "self_s"),
        "assembly.assemble_operator.bytes": c.get("assemble_operator.bytes", 0),
        "potentials.sample_potential.s": secs("potentials.sample_potential"),
        "potentials.truncate.calls": calls("potentials.truncate"),
        "spectral.spectral_bottom.calls": calls("spectral.spectral_bottom"),
        "spectral.spectral_bottom.s": secs("spectral.spectral_bottom"),
        "spectral.spectral_bottom.iterations": c.get("spectral_bottom.iterations", 0),
        "spectral.spectral_bottom.max_n": c.get("spectral_bottom.max_n", 0),
        "evolution.evolve.calls": calls("evolution.evolve"),
        "evolution.evolve.steps": c.get("evolve.steps", 0),
        "evolution.evolve.s": secs("evolution.evolve"),
        "evolution.stepper.factorizations": calls("evolution.ImplicitStepper.__init__"),
        "evolution.stepper.init_s": secs("evolution.ImplicitStepper.__init__"),
        "evolution.stepper.step_s": secs("evolution.ImplicitStepper.step"),
        "evolution.dt_halvings": sum(math.log2(config_dt / dt) for _h, dt in doc["mesh_dt"]),
        "evolution.duhamel_residual.s": secs("evolution.duhamel_residual"),
        "diagnostics.energy_inequality.calls": calls("diagnostics.energy_inequality_certificate"),
        "diagnostics.energy_inequality.s": secs("diagnostics.energy_inequality_certificate"),
        "diagnostics.log_estimate.s": secs("diagnostics.log_estimate_certificate"),
        "diagnostics.exponential_bound.s": secs("diagnostics.exponential_bound_certificate"),
        "diagnostics.ground_state_comparability.s": secs("diagnostics.ground_state_comparability"),
        "diagnostics.shrinking_ball.s": secs("diagnostics.shrinking_ball_certificate"),
        "diagnostics.classify.s": secs("diagnostics.classify"),
        "diagnostics.hash_bytes": sum(v for k, v in c.items() if k.startswith("hash_bytes.")),
        "diagnostics.energy_inequality.hash_bytes":
            c.get("hash_bytes.diagnostics.energy_inequality_certificate", 0),
        "diagnostics.hash_s": secs("hashlib.sha256"),
        "runner.run_experiment.self_s": secs("runner.run_experiment", "self_s"),
        "trace.run_s": run_s,
        "trace.accounted_share": sum(v for k, v in layers.items() if k != "cli") / run_s,
    }
    for name in ("eigh", "cho_factor", "cho_solve"):
        m[f"linalg.{name}.calls"] = calls(f"linalg.{name}")
        m[f"linalg.{name}.s"] = secs(f"linalg.{name}")
    m["linalg.cho_factor.flops"] = c.get("cho_factor.flops", 0.0)
    m["linalg.cho_solve.flops"] = c.get("cho_solve.flops", 0.0)
    for layer, value in layers.items():
        m[f"layer.{layer}.self_s"] = value
    return m


def combine(per_config: dict) -> dict:
    """Workload totals: sums, except maxima and the recomputed share."""
    total = defaultdict(float)
    for m in per_config.values():
        for k, v in m.items():
            total[k] = max(total[k], v) if k.endswith("max_n") else total[k] + v
    accounted = sum(m["trace.accounted_share"] * m["trace.run_s"] for m in per_config.values())
    total["trace.accounted_share"] = accounted / total["trace.run_s"]
    return dict(total)


def check_expected_spans(docs: dict) -> None:
    """Guard: each expected fracheat span is recorded at least once."""
    seen = set()
    for doc in docs.values():
        seen.update(name for name, *_ in doc["spans"])
    missing = [s for s in EXPECTED_SPANS if s not in seen]
    if missing:
        raise BenchError(f"traced run recorded no call of expected span(s): {', '.join(missing)}")


# --- the two modes -----------------------------------------------------------


def timed_samples(workload: str, seed: int, deadline: float) -> list:
    """At least one sample; a further one starts only if it should end by
    the deadline (monotonic clock)."""
    samples, longest = [], 0.0
    while True:
        t0 = time.monotonic()
        samples.append(run_sample(workload, seed))
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() + longest > deadline:
            return samples


def end_to_end(workload: str, seed: int, deadline: float) -> dict:
    cfg = WORKLOADS[workload][0]
    probes = [run_child(cfg, RUNS / workload / "probe", seed, RUNS / workload / "probe.json",
                        setup_only=True)
              for _ in range(SETUP_PROBES)]
    samples = timed_samples(workload, seed, deadline)
    procs = [p for s in samples for p in s]
    good = [s for s in samples if sample_ok(s)]
    setups = [p["setup_s"] for p in probes + procs if "setup_s" in p]
    stats = {}
    if good:
        stats["run_s"] = summary([sum(p["run_s"] for p in s) for s in good])
        stats["peak_rss_mb"] = summary([max(p["peak_rss_mb"] for p in s) for s in good])
    if setups:
        stats["setup_s"] = summary(setups)
    return {"samples": samples, "probes": probes, "stats": stats, "children": procs}


def per_layer(workload: str, seed: int, deadline: float) -> dict:
    traced = run_sample(workload, seed, trace=True)
    if not sample_ok(traced):
        return {"samples": [traced], "stats": {}, "children": traced}
    docs, per_config = {}, {}
    for cfg, rec in zip(WORKLOADS[workload], traced):
        docs[cfg.stem] = json.loads((ROOT / rec["spans_file"]).read_text())
        config_dt = json.loads(cfg.read_text())["dt"]
        m = layer_metrics(docs[cfg.stem], config_dt, rec["run_s"])
        m["runner.output_bytes"] = rec["output_bytes"]
        per_config[cfg.stem] = m
    check_expected_spans(docs)
    metrics = combine(per_config)
    untraced = timed_samples(workload, seed, deadline)
    good = [s for s in untraced if sample_ok(s)]
    if good:
        metrics["trace.untraced_run_s"] = statistics.median(sum(p["run_s"] for p in s) for s in good)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
        metrics["process.cpu_s"] = statistics.median(sum(p["cpu_s"] for p in s) for s in good)
    metrics["process.blas_threads"] = max(
        max(p["blas"].get("numpy", 0), p["blas"].get("scipy", 0)) for p in traced)
    samples = [traced] + untraced
    return {"samples": samples, "per_config": per_config, "stats": metrics,
            "children": [p for s in samples for p in s]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [str(p) for p in [SRC / "fracheat" / "__init__.py", *WORKLOADS[args.workload]]
               if not p.is_file()]
    if missing:
        print(f"not a fracheat checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    (RUNS / args.workload).mkdir(parents=True, exist_ok=True)
    try:
        validate(WORKLOADS[args.workload])
        deadline = STARTED + args.seconds
        res = (per_layer if args.trace else end_to_end)(args.workload, args.seed, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    procs = res["children"]
    failed = sum(1 for p in procs if p.get("problems"))
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    stats = res["stats"]
    for p in procs:
        for problem in p.get("problems", []):
            print(f"FAILED {p['config']}: {problem}")
    env = environment(procs)
    print(f"workload {args.workload}  seed {args.seed}  samples {len(res['samples'])}  "
          f"processes {len(procs)}")
    if args.trace:
        metrics = {k: {"value": stats[k], "unit": u} for k, u in units.items() if k in stats}
        for k, v in metrics.items():
            print(f"  {k:44s} {v['value']:.6g} {v['unit']}")
    else:
        metrics = {k: {"value": stats[k]["median"], "unit": u} for k, u in units.items() if k in stats}
        for k in metrics:
            st = stats[k]
            quart = f", q1 {st['q1']:.4f}, q3 {st['q3']:.4f}" if "q1" in st else ""
            tail = f", p90 {st['p90']:.4f}" if "p90" in st else ", no tail percentile (fewer than 100 samples)"
            print(f"  {k:12s} median {st['median']:.4f} {units[k]} (n={st['n']}{quart}{tail})")
    print(f"  failed_runs  {failed / max(1, len(procs)):.4f} share ({failed} of {len(procs)} runs)")
    print(f"env: {json.dumps(env, sort_keys=True)}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "metrics": stats, "failed": failed,
              "attempted": len(procs), "per_config": res.get("per_config"),
              "samples": res["samples"], "probes": res.get("probes")}
    (RUNS / args.workload / f"result_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    if set(metrics) != set(units):
        absent = sorted(set(units) - set(metrics))
        print(f"benchmark failed: no value for {', '.join(absent)}", file=sys.stderr)
        return 1
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": len(procs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
