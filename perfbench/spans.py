"""Spans around the public functions of the fracheat modules, recorded from
outside the package.

`instrument` replaces every public function of the pipeline modules with a
wrapper that records a span (name, start, end, parent).  Callers import
these functions by name (`from .spectral import spectral_bottom` in
runner, evolution and diagnostics), so the wrapper is installed in every
fracheat namespace that holds the original.  It also wraps
`ImplicitStepper.__init__`/`step`, the scipy.linalg kernels the package calls
and the SHA-256 objects that `diagnostics` creates.  Counters that need the
arguments or results (nodes, iterations, bytes, flops) are taken at the same
boundaries.  Spans stay in memory until `Tracer.write`.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
import types
from collections import Counter

import numpy as np

MODULES = ("geometry", "assembly", "potentials", "spectral", "evolution",
           "diagnostics", "config", "runner")
KERNELS = ("eigh", "cho_factor", "cho_solve")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self.mesh_dt = {}  # spacing -> smallest step any trajectory used
        self._stack = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters),
                       "mesh_dt": sorted(self.mesh_dt.items())}, fh)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _killing_density(tr, args, kwargs, result):
    grid = _arg(args, kwargs, 0, "grid")
    tr.counters["killing_density.nodes"] += grid.n
    if grid.domain.kind == "disk":
        radii = np.hypot(grid.points[:, 0], grid.points[:, 1])
        tr.counters["killing_density.radii"] += len({round(float(r), 12) for r in radii})


def _assemble_operator(tr, args, kwargs, result):
    tr.counters["assemble_operator.bytes"] += result.entries.nbytes


def _spectral_bottom(tr, args, kwargs, result):
    tr.counters["spectral_bottom.iterations"] += int(result.iterations)
    n = _arg(args, kwargs, 0, "M").n
    tr.counters["spectral_bottom.max_n"] = max(tr.counters["spectral_bottom.max_n"], n)


def _evolve(tr, args, kwargs, result):
    tr.counters["evolve.steps"] += len(result.times) - 1
    h = result.grid.h
    tr.mesh_dt[h] = min(result.dt, tr.mesh_dt.get(h, result.dt))


def _cho_factor(tr, args, kwargs, result):
    n = _arg(args, kwargs, 0, "a").shape[0]
    tr.counters["cho_factor.flops"] += n ** 3 / 3.0


def _cho_solve(tr, args, kwargs, result):
    c = _arg(args, kwargs, 0, "c_and_lower")[0]
    b = _arg(args, kwargs, 1, "b")
    rhs = 1 if b.ndim == 1 else b.shape[1]
    tr.counters["cho_solve.flops"] += 2.0 * c.shape[0] ** 2 * rhs


COUNTERS = {
    "assembly.killing_density": _killing_density,
    "assembly.assemble_operator": _assemble_operator,
    "spectral.spectral_bottom": _spectral_bottom,
    "evolution.evolve": _evolve,
    "linalg.cho_factor": _cho_factor,
    "linalg.cho_solve": _cho_solve,
}


class _TracedSha256:
    """sha256 object that records each update as a `hashlib.sha256` span and
    counts the bytes under the name of the span that asked for the hash."""

    def __init__(self, tracer):
        self._h = hashlib.sha256()
        self._update = tracer.wrap("hashlib.sha256", self._h.update)
        self._tracer = tracer

    def update(self, data):
        tr = self._tracer
        caller = tr.spans[tr._stack[-1]][0] if tr._stack else "none"
        tr.counters[f"hash_bytes.{caller}"] += memoryview(data).nbytes
        self._update(data)

    def hexdigest(self):
        return self._h.hexdigest()


def instrument(tracer: Tracer) -> None:
    """Install the wrappers in the imported fracheat package."""
    originals = {}
    for short in MODULES:
        mod = importlib.import_module(f"fracheat.{short}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                span = f"{short}.{name}"
                originals[obj] = tracer.wrap(span, obj, COUNTERS.get(span))
    for modname, mod in list(sys.modules.items()):
        if modname == "fracheat" or modname.startswith("fracheat."):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(mod, name, originals[obj])

    from fracheat.evolution import ImplicitStepper

    for meth in ("__init__", "step"):
        setattr(ImplicitStepper, meth,
                tracer.wrap(f"evolution.ImplicitStepper.{meth}", getattr(ImplicitStepper, meth)))

    import scipy.linalg

    for name in KERNELS:
        span = f"linalg.{name}"
        setattr(scipy.linalg, name, tracer.wrap(span, getattr(scipy.linalg, name), COUNTERS.get(span)))

    import fracheat.diagnostics

    fracheat.diagnostics.hashlib = types.SimpleNamespace(sha256=lambda: _TracedSha256(tracer))
