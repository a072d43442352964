"""One fresh `fracheat run` process, timed from the inside.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.  It
measures set-up (interpreter start to a loaded, validated config), calls the
`fracheat run` command-line entry point, and writes what it measured to a
JSON file.  With --trace it first wraps the package's public functions (see
spans.py) and also writes the recorded spans.

    python3 perfbench/child.py --config C --out D --seed N --result R.json
        --src SRC [--trace SPANS.json] [--setup-only] --t0 <monotonic>
"""

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time


def _blas_threads() -> dict:
    """Threads the loaded OpenBLAS builds use: numpy's and scipy's each ship one."""
    import numpy
    import scipy

    out = {}
    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for label, pattern, symbol in (
        ("numpy", "numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
        ("scipy", "scipy.libs/libscipy_openblas*.so", "scipy_openblas_get_num_threads"),
    ):
        for path in glob.glob(os.path.join(site, pattern)):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            fn.argtypes = []
            out[label] = int(fn())
    out["versions"] = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "scipy_openblas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
    }
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t0", type=float, required=True, help="parent's monotonic clock at spawn")
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--src", required=True, help="directory fracheat must be imported from")
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import fracheat
    import fracheat.cli
    from fracheat.config import load_config

    pkg = os.path.realpath(os.path.dirname(fracheat.__file__))
    if os.path.dirname(pkg) != os.path.realpath(args.src):
        print(f"fracheat imported from {pkg}, not from {args.src}", file=sys.stderr)
        return 3
    load_config(args.config)
    t_ready = time.monotonic()
    result = {"setup_s": t_ready - args.t0}
    if not args.setup_only:
        entry = fracheat.cli.main
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.instrument(tracer)
            entry = tracer.wrap("cli.run", entry)
        argv = ["run", "--config", args.config, "--out", args.out,
                "--threads", "1", "--seed", str(args.seed)]
        code = 0
        t_run = time.monotonic()
        try:
            entry(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        result["run_s"] = time.monotonic() - t_run
        result["exit_code"] = code
        if tracer is not None:
            tracer.write(args.trace)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["blas"] = _blas_threads()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return int(result.get("exit_code", 0))


if __name__ == "__main__":
    sys.exit(main())
