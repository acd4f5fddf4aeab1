"""Per-layer spans for the traced run, recorded from outside the package.

For one traced pass, ``Tracer.installed`` replaces the module attributes
through which the layers call each other with timing wrappers, and puts
the originals back afterwards.  Each span records its name, start, end,
parent span and solve id; spans stay in memory until the run writes them
out.  A wrapped attribute that no longer exists (say, a function was
renamed) makes its layer absent: the metrics that need it read ``None``
and the solves run on untraced.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  A function that other modules reach
# through their own namespaces is wrapped in each of them under one name.
# The coarse solve of a warm start calls ``quadma.solver.damped_newton``.
TARGETS = (
    ("quadma.benchmarks", "build_grid", "meshing.build_grid"),
    ("quadma.solver", "build_grid", "meshing.build_grid"),
    ("quadma.meshing", "augment_boundary", "meshing.augment_boundary"),
    ("quadma.benchmarks", "poisson_init", "solver.poisson_init"),
    ("quadma.solver", "poisson_init", "solver.poisson_init"),
    ("quadma.benchmarks", "damped_newton", "solver.damped_newton"),
    ("quadma.solver", "damped_newton", "solver.damped_newton"),
    ("quadma.benchmarks", "coarse_to_fine", "solver.coarse_to_fine"),
    ("quadma.solver", "interpolate_to_grid", "solver.interpolate_to_grid"),
    ("quadma.solver", "scheme_apply", "operator.scheme_apply"),
    ("quadma.solver", "assemble_jacobian", "operator.assemble_jacobian"),
    ("scipy.sparse.linalg", "splu", "linalg.splu"),
)

GRID, AUGMENT = "meshing.build_grid", "meshing.augment_boundary"
POISSON, NEWTON = "solver.poisson_init", "solver.damped_newton"
COARSE, INTERP = "solver.coarse_to_fine", "solver.interpolate_to_grid"
APPLY, JACOBIAN, SPLU = "operator.scheme_apply", "operator.assemble_jacobian", "linalg.splu"

# Per-layer metric -> (unit, spans it is computed from).  Times are summed
# span time over one pass, counts are summed over the pass.
PER_LAYER = {
    "meshing.build_grid_s": ("s", (GRID,)),
    "meshing.augment_boundary_s": ("s", (AUGMENT,)),
    "meshing.points": ("count", (GRID,)),
    "meshing.boundary_points": ("count", (GRID,)),
    "meshing.min_arm_ratio": ("ratio", (GRID,)),
    "operator.scheme_apply_s": ("s", (APPLY,)),
    "operator.scheme_apply_calls": ("count", (APPLY,)),
    "operator.assemble_jacobian_s": ("s", (JACOBIAN,)),
    "operator.assemble_jacobian_calls": ("count", (JACOBIAN,)),
    "solver.poisson_init_s": ("s", (POISSON,)),
    "solver.coarse_to_fine_s": ("s", (COARSE,)),
    "solver.interpolate_to_grid_s": ("s", (INTERP,)),
    "solver.damped_newton_s": ("s", (NEWTON,)),
    "solver.damped_newton.self_s": ("s", (NEWTON, APPLY, JACOBIAN, SPLU)),
    "solver.newton_iters": ("count", (NEWTON,)),
    "solver.backtracks": ("count", (NEWTON,)),
    "solver.line_search_ratio": ("ratio", (NEWTON, APPLY)),
    "solver.line_search_trials": ("count", (NEWTON, APPLY)),
    "linalg.splu_s": ("s", (SPLU,)),
    "linalg.splu_calls": ("count", (SPLU,)),
    "linalg.lu_fill_nnz": ("count", (SPLU,)),
    "linalg.shift_fallbacks": ("count", (SPLU, JACOBIAN)),
    "trace.overhead_ratio": ("ratio", ()),
}

# Metrics that must repeat exactly between traced passes and runs on one seed.
COUNTERS = ("solver.newton_iters", "solver.backtracks", "linalg.lu_fill_nnz",
            "linalg.shift_fallbacks", "meshing.points", "meshing.boundary_points")


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index, solve id]
        self.solve = None                 # id stamped on the spans of the current solve
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._grids: list[tuple[int, int, float]] = []  # (points, interior, min arm / h)
        self._newton: list[tuple[int, list[float]]] = []  # (iterations, alpha history)
        self._lu_nnz = 0

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.add(name)
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self.solve]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self._observe(name, result)
            return result
        return traced

    def _observe(self, name, result):
        if name == GRID:
            arm = min(result.h_plus.min(), result.h_minus.min()) / result.h
            self._grids.append((result.n_points, result.n_interior, float(arm)))
        elif name == NEWTON:
            report = result[1]
            self._newton.append((report.iterations, list(report.alpha_history)))
        elif name == SPLU:
            self._lu_nnz += result.nnz

    def metrics(self) -> dict:
        """Per-layer values of this pass; ``None`` where a needed span is absent.

        ``trace.overhead_ratio`` needs the untraced pass too and is filled
        in by the caller.
        """
        seconds, calls = defaultdict(float), Counter()
        covered = defaultdict(float)      # span index -> time of its direct children
        for name, start, end, parent, _ in self.spans:
            seconds[name] += end - start
            calls[name] += 1
            if parent is not None:
                covered[parent] += end - start
        newton_self = sum(end - start - covered[i]
                          for i, (name, start, end, _, _) in enumerate(self.spans)
                          if name == NEWTON)
        iters = sum(it for it, _ in self._newton)
        # Every damped_newton call evaluates one residual before its first
        # step; every other scheme_apply call is a line-search trial.
        trials = calls[APPLY] - calls[NEWTON]
        values = {
            "meshing.build_grid_s": seconds[GRID],
            "meshing.augment_boundary_s": seconds[AUGMENT],
            "meshing.points": sum(p for p, _, _ in self._grids),
            "meshing.boundary_points": sum(p - i for p, i, _ in self._grids),
            "meshing.min_arm_ratio": min((a for _, _, a in self._grids), default=None),
            "operator.scheme_apply_s": seconds[APPLY],
            "operator.scheme_apply_calls": calls[APPLY],
            "operator.assemble_jacobian_s": seconds[JACOBIAN],
            "operator.assemble_jacobian_calls": calls[JACOBIAN],
            "solver.poisson_init_s": seconds[POISSON],
            "solver.coarse_to_fine_s": seconds[COARSE],
            "solver.interpolate_to_grid_s": seconds[INTERP],
            "solver.damped_newton_s": seconds[NEWTON],
            "solver.damped_newton.self_s": newton_self,
            "solver.newton_iters": iters,
            "solver.backtracks": round(sum(-math.log2(a) for _, alphas in self._newton
                                           for a in alphas)),
            "solver.line_search_ratio": iters / trials if trials > 0 else None,
            "solver.line_search_trials": trials,
            "linalg.splu_s": seconds[SPLU],
            "linalg.splu_calls": calls[SPLU],
            "linalg.lu_fill_nnz": self._lu_nnz,
            "linalg.shift_fallbacks": calls[SPLU] - calls[JACOBIAN],
        }
        for metric in values:
            if self.absent.intersection(PER_LAYER[metric][1]):
                values[metric] = None
        return values

    def span_records(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent, "solve": solve}
                for name, start, end, parent, solve in self.spans]
