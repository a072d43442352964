"""Write perfbench/reference/<config>.json from one run of each benchmark config.

    python3 perfbench/record_reference.py --seed 20260801

The references hold what run.py checks: verdict label, certificate flags,
series.csv lambda0 values and verdict evidence.  Record them only from a
commit whose verdicts are trusted; run.py compares every later run with them.
"""

import argparse
import json
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    dest = run.BENCH / "reference"
    dest.mkdir(exist_ok=True)
    configs = {cfg.stem: cfg for cfgs in run.WORKLOADS.values() for cfg in cfgs}
    for stem, cfg in configs.items():
        out = run.RUNS / "reference" / stem
        rec = run.run_child(cfg, out, args.seed, run.RUNS / "reference" / f"{stem}.json")
        if rec["exit_code"] != 0:
            print(f"{stem}: {rec['problems']}", file=sys.stderr)
            return 1
        (dest / f"{stem}.json").write_text(json.dumps(run.read_outputs(out), indent=1) + "\n")
        print(f"{stem}: recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
