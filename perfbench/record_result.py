"""Run every workload the way the benchmark is judged and keep the numbers.

    python3 perfbench/record_result.py --label baseline --seeds 20260801 7 1 2 3

For each workload: one traced run (--trace 1, first seed) for the per-layer
numbers, then one timed run (--trace 0) per seed, each a fresh run.py
process with BENCHMARK.json's run_seconds.  Writes
perfbench/results/<label>.json with, per workload and end-to-end metric, the
per-run medians, their median and quartiles and the spread (q3 - q1) /
median; the traced run's per-layer metrics; and, for workloads of several
configs, the per-config breakdown.  Compare two labels measured on the same
machine.
"""

import argparse
import json
import subprocess
import sys

import run


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} failed:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((run.RUNS / workload / f"result_trace{trace}.json").read_text())
    return line, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS))
    args = ap.parse_args()
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    out = {"label": args.label, "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        line, record = _run(workload, args.seeds[0], seconds, trace=1)
        out.setdefault("env", record["env"])
        entry = {"per_layer": {k: v["value"] for k, v in line["metrics"].items()},
                 "trace_correct": line["correct"]}
        if len(run.WORKLOADS[workload]) > 1:
            entry["per_config"] = record["per_config"]
        values, attempted, failed = {}, 0, 0
        for seed in args.seeds:
            line, _record = _run(workload, seed, seconds, trace=0)
            attempted += line["attempted"]
            failed += line["failed"]
            for k, v in line["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k} {v['value']:.4f}" for k, v in line["metrics"].items()),
                  flush=True)
        entry["end_to_end"] = {}
        for k, vals in values.items():
            st = {"values": vals, **run.summary(vals)}
            if "q1" in st:
                st["spread"] = (st["q3"] - st["q1"]) / st["median"]
            entry["end_to_end"][k] = st
        entry["failed_runs"] = {"failed": failed, "attempted": attempted}
        out["workloads"][workload] = entry
    dest = run.BENCH / "results" / f"{args.label}.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {dest.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
