"""Per-layer spans and counts, installed from outside the package.

``Tracer.install()`` wraps the public functions of wedgecap's modules (the
layers ``cli``, ``io``, ``profiles``, ``functionals``, ``bounds``,
``blowup`` and ``solver``) in every module namespace that holds them, so
calls through ``from .x import f`` are seen too.  ``ContactProfile.integral_many``
is a span as well, and ``AdhesionFunction.__call__`` counts the window
values it is given.  The solver's view of ``scipy.sparse.linalg`` is replaced
by a proxy whose entry points are spans.
Each span records (name, start, end, parent, op); a layer's self time is its
spans' time minus the time of their child spans.  ``uninstall()`` restores
every original.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

#: (module, function, span name) for module-level functions
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("io", "load_profile", "io.load"),
    ("io", "profile_from_dict", "io.load"),
    ("functionals", "sweep_table", "functionals.sweep_table"),
    ("functionals", "best_estimates", "functionals.best_estimates"),
    ("functionals", "estimate_AI", "functionals.estimate"),
    ("functionals", "estimate_AS", "functionals.estimate"),
    ("functionals", "exact_A_log_periodic", "functionals.exact_log_periodic"),
    ("bounds", "adhesion_from_profile", "bounds.adhesion_build"),
    ("bounds", "min_admissible_fan", "bounds.scan"),
    ("bounds", "effective_angle", "bounds.effective_angle"),
    ("blowup", "contradiction_witness", "blowup.witness"),
    ("blowup", "limit_difference_table", "blowup.table"),
    ("solver", "build_sector_mesh", "solver.mesh"),
    ("solver", "solve_capillary", "solver.solve"),
    ("solver", "solve_pmc", "solver.solve"),
    ("solver", "radial_trace", "solver.trace"),
    ("solver", "fans_from_trace", "solver.fans"),
    ("solver", "manufactured_convergence", "solver.mms"),
]

#: per-layer metrics of the traced run, in report order, with units
PER_LAYER = {
    "cli.self_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_sparse_s": "s",
    "io.load_s": "s",
    "io.write_s": "s",
    "io.bytes_written": "bytes",
    "profiles.integral_many_calls": "count",
    "profiles.integral_many_points": "count",
    "profiles.integral_many_s": "s",
    "functionals.sweep_table_s": "s",
    "functionals.best_estimates_calls": "count",
    "functionals.best_estimates_s": "s",
    "functionals.estimate_s": "s",
    "functionals.exact_log_periodic_s": "s",
    "bounds.adhesion_build_s": "s",
    "bounds.scan_calls": "count",
    "bounds.scan_s": "s",
    "bounds.adhesion_evals": "count",
    "bounds.effective_angle_s": "s",
    "blowup.witness_s": "s",
    "blowup.table_s": "s",
    "solver.mesh_s": "s",
    "solver.solve_calls": "count",
    "solver.solve_s": "s",
    "solver.newton_iters": "count",
    "solver.unknowns": "count",
    "solver.linalg_calls": "count",
    "solver.linalg_s": "s",
    "solver.jacobian_nnz_stored": "count",
    "solver.jacobian_nnz_nonzero": "count",
    "solver.newton_other_s": "s",
    "solver.trace_s": "s",
    "solver.fans_s": "s",
    "solver.mms_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """A span around fn; after(args, result) runs outside the timed region."""

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op])
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = t0, t1
            if after is not None:
                after(args, result)
            return result

        return span

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- hooks -----------------------------------------------------------------

    def _after_solve(self, args, field) -> None:
        self.counts["solver.newton_iters"] += field.newton_iterations
        self.counts["solver.unknowns"] += field.values.size

    def _after_write(self, args, path) -> None:
        if not self.inside("io.write"):  # count each file once, at the outermost writer
            self.counts["io.bytes_written"] += Path(path).stat().st_size

    def _after_integral(self, args, result) -> None:
        self.counts["profiles.integral_many_points"] += int(np.size(args[1]))

    def _after_linalg(self, args, result) -> None:
        matrix = args[0] if args else None
        if hasattr(matrix, "nnz"):
            self.counts["solver.jacobian_nnz_stored"] += int(matrix.nnz)
            self.counts["solver.jacobian_nnz_nonzero"] += int(np.count_nonzero(matrix.data))

    # -- installation ----------------------------------------------------------

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        import wedgecap.cli  # noqa: F401  (loads every layer)
        from wedgecap.bounds import AdhesionFunction
        from wedgecap.profiles import ContactProfile

        mods = [m for n, m in sys.modules.items() if n == "wedgecap" or n.startswith("wedgecap.")]
        wio = sys.modules["wedgecap.io"]
        table = FUNCTIONS + [("io", n, "io.write") for n in dir(wio) if n.startswith("write_")]
        hooks = {"solver.solve": self._after_solve, "io.write": self._after_write}
        for module, attr, name in table:
            original = getattr(sys.modules[f"wedgecap.{module}"], attr)
            wrapped = self.wrap(name, original, hooks.get(name))
            for m in mods:
                if getattr(m, attr, None) is original:
                    self._patch(m, attr, wrapped)

        self._patch(ContactProfile, "integral_many",
                    self.wrap("profiles.integral_many", ContactProfile.integral_many,
                              self._after_integral))
        call = AdhesionFunction.__call__

        def counted_call(adhesion, b):
            self.counts["bounds.adhesion_evals"] += int(np.size(b))
            return call(adhesion, b)

        self._patch(AdhesionFunction, "__call__", counted_call)
        solver = sys.modules["wedgecap.solver"]
        self._patch(solver, "spla", _LinalgView(solver.spla, self))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- results -------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The span-based per-layer metrics (all but the import and overhead ones)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[i]
            total_s[name] += t1 - t0
            calls[name] += 1
        linalg = total_s["solver.linalg"]
        return {
            "cli.self_s": self_s["cli.main"],
            "io.load_s": self_s["io.load"],
            "io.write_s": self_s["io.write"],
            "io.bytes_written": self.counts["io.bytes_written"],
            "profiles.integral_many_calls": calls["profiles.integral_many"],
            "profiles.integral_many_points": self.counts["profiles.integral_many_points"],
            "profiles.integral_many_s": self_s["profiles.integral_many"],
            "functionals.sweep_table_s": self_s["functionals.sweep_table"],
            "functionals.best_estimates_calls": calls["functionals.best_estimates"],
            "functionals.best_estimates_s": self_s["functionals.best_estimates"],
            "functionals.estimate_s": self_s["functionals.estimate"],
            "functionals.exact_log_periodic_s": self_s["functionals.exact_log_periodic"],
            "bounds.adhesion_build_s": self_s["bounds.adhesion_build"],
            "bounds.scan_calls": calls["bounds.scan"],
            "bounds.scan_s": self_s["bounds.scan"],
            "bounds.adhesion_evals": self.counts["bounds.adhesion_evals"],
            "bounds.effective_angle_s": self_s["bounds.effective_angle"],
            "blowup.witness_s": self_s["blowup.witness"],
            "blowup.table_s": self_s["blowup.table"],
            "solver.mesh_s": self_s["solver.mesh"],
            "solver.solve_calls": calls["solver.solve"],
            # the whole solve, so that solve_s - linalg_s is the rest of Newton
            "solver.solve_s": total_s["solver.solve"],
            "solver.newton_iters": self.counts["solver.newton_iters"],
            "solver.unknowns": self.counts["solver.unknowns"],
            "solver.linalg_calls": calls["solver.linalg"],
            "solver.linalg_s": linalg,
            "solver.jacobian_nnz_stored": self.counts["solver.jacobian_nnz_stored"],
            "solver.jacobian_nnz_nonzero": self.counts["solver.jacobian_nnz_nonzero"],
            "solver.newton_other_s": total_s["solver.solve"] - linalg,
            "solver.trace_s": self_s["solver.trace"],
            "solver.fans_s": self_s["solver.fans"],
            "solver.mms_s": self_s["solver.mms"],
        }

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": t0, "end": t1, "parent": p, "op": op}
            for n, t0, t1, p, op in self.spans
        ]


class _LinalgView:
    """scipy.sparse.linalg as the solver sees it, with every callable a span."""

    def __init__(self, module, tracer: Tracer) -> None:
        self._module = module
        self._tracer = tracer

    def __getattr__(self, attr: str):
        value = getattr(self._module, attr)
        if callable(value):
            return self._tracer.wrap("solver.linalg", value, self._tracer._after_linalg)
        return value
