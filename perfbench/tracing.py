"""Span recorder for the traced benchmark run.

The program is not edited: ``Tracer.install`` replaces each listed public
function with a timing wrapper in every ``rabispec`` module namespace that
binds it (``spectral_analysis.build`` and ``weyl_asymptotics.count_below``
as well as the defining modules), so calls between layers are seen too.
Spans (name, start, end, parent, dim) are kept in memory; ``write`` dumps
them once, at the end of the run.
"""

import functools
import json
import logging
import sys
import threading
import time
from typing import NamedTuple

# public functions timed per module, in the order the per-layer metrics use
TARGETS = {
    "specfun": ("laguerre_zeros", "nondegenerate_sequence"),
    "overlaps": ("overlap_quadrature", "overlap_closed",
                 "displacement_matrix"),
    "fock_ops": ("build",),
    "perturbation": ("first_order", "fd_pair_slopes", "quasimode_vectors",
                     "quasimode_residual"),
    "spectral_analysis": ("converged_spectrum", "parity_split",
                          "eigen_spectrum", "count_below", "braak_intervals"),
    "weyl_asymptotics": ("weyl_prediction", "empirical_counting",
                         "smges_gap_check", "symbol_sample"),
    "cli": ("main",),
}

# spans whose matrix dimension is recorded: name -> how to read it
_DIM_OF_RESULT = {"fock_ops.build"}
_DIM_OF_FIRST_ARG = {"spectral_analysis.eigen_spectrum",
                     "spectral_analysis.count_below"}

# growth-driver entry points; build calls beneath them are solve steps
_DRIVERS = ("spectral_analysis.converged_spectrum",
            "spectral_analysis.parity_split")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    dim: int


class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Tracer:
    """Wraps the TARGETS functions while installed and records spans."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._patched = []
        self._fallbacks = _WarningCounter()
        self._logger = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            dim = 0
            if name in _DIM_OF_FIRST_ARG and args:
                dim = args[0].matrix.shape[0]
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if name in _DIM_OF_RESULT:
                    dim = out.matrix.shape[0]
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, t0, t1, parent, dim)

        return traced

    def install(self):
        modules = {n: m for n, m in sys.modules.items()
                   if n == "rabispec" or n.startswith("rabispec.")}
        for short, names in TARGETS.items():
            home = modules["rabispec." + short]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap("%s.%s" % (short, fname), original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        self._logger = logging.getLogger("rabispec.spectral_analysis")
        self._logger.addHandler(self._fallbacks)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []
        if self._logger is not None:
            self._logger.removeHandler(self._fallbacks)
            self._logger = None

    @property
    def fallbacks(self):
        return self._fallbacks.count

    def summary(self, rounds):
        """Per-layer metrics, each divided by the number of traced rounds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        calls, self_s, max_dim, dense_bytes = {}, {}, {}, {}
        solve_steps = 0
        for i, s in enumerate(spans):
            calls[s.name] = calls.get(s.name, 0) + 1
            self_s[s.name] = self_s.get(s.name, 0.0) + (s.end - s.start
                                                         - child[i])
            max_dim[s.name] = max(max_dim.get(s.name, 0), s.dim)
            if s.name == "fock_ops.build":
                dense_bytes[s.name] = dense_bytes.get(s.name, 0) \
                    + 8 * s.dim * s.dim
                if self._under_driver(i):
                    solve_steps += 1
        out = {}
        for short, names in TARGETS.items():
            for fname in names:
                key = "%s.%s" % (short, fname)
                out[key + ".calls"] = calls.get(key, 0) / rounds
                out[key + ".s"] = self_s.get(key, 0.0) / rounds
                if key in _DIM_OF_RESULT or key in _DIM_OF_FIRST_ARG:
                    out[key + ".max_dim"] = max_dim.get(key, 0)
        out["fock_ops.build.dense_mb"] = \
            dense_bytes.get("fock_ops.build", 0) / 1e6 / rounds
        out["spectral_analysis.solve_steps"] = solve_steps / rounds
        out["spectral_analysis.count_below.fallbacks"] = \
            self.fallbacks / rounds
        out["cli.main.self_s"] = out.pop("cli.main.s")
        return out

    def _under_driver(self, i):
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name in _DRIVERS:
                return True
            p = self.spans[p].parent
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name,
                                    "start": s.start, "end": s.end,
                                    "parent": s.parent, "dim": s.dim}))
                f.write("\n")
