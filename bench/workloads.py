"""The benchmark's workloads: which solves a pass runs, and how each is checked.

A case is one call of ``quadma.solve_problem``.  ``square-lu`` and
``small-sweep`` are fixed lists; ``disc-mix`` draws ``DISC_SETS`` sets of
random discs from the workload seed, one set per pass, and the library
only ever receives the generated domains and sizes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import quadma

BOUNDS_FILE = Path(__file__).with_name("error_bounds.json")

# A fixed case's max error may exceed the error recorded when the benchmark
# was added by this factor before the solve counts as failed.  A disc with
# no recorded error of its own (every random disc, and the fixed discs,
# which did not converge when the bounds were recorded) is bounded by the
# worst error / h**order of the calibration discs times the larger factor,
# to catch wrong answers rather than rank discs.
ERROR_SLACK = 1.25
RANDOM_DISC_SLACK = 2.0

# Random discs per disc-mix pass.  Disc i takes its size from the i-th of
# this many equal strata of the even sizes in [40, 80], so every seed gets
# the same spread of sizes.
DISC_COUNT = 6

# Sets of random discs that the passes of a disc-mix run cycle through.
# Whether a Cartesian warm start on a random disc converges (up to 2 s) or
# fails on its coarse grid (under 0.2 s) is chance, so the time of a pass
# over one set moves by a third from seed to seed; the median over the
# passes of several sets moves much less.
DISC_SETS = 5

# The two tiny-arm reproduction cases: on the Cartesian backend both ended
# with "line search stalled" when the benchmark was added, so no error of
# theirs is recorded.  They are part of every disc-mix pass whatever the seed.
FIXED_DISCS = (((0.1, 0.03), 0.77, 51), ((0.0, 0.0), 1.0, 79))


@dataclass(frozen=True)
class Case:
    problem: str                  # "ex1" .. "ex4": the closed-form data
    backend: str                  # "cartesian" or "hex"
    n: int
    K: int | None = None          # Cartesian stencil depth; None = default schedule
    warm: bool = False            # coarse-to-fine start instead of poisson_init
    disc: tuple | None = None     # (cx, cy, radius); None = the problem's own square

    @property
    def key(self) -> str:
        where = "square" if self.disc is None else "disc(%r,%r,%r)" % self.disc
        depth = "" if self.K is None else f"/K{self.K}"
        return (f"{self.problem}/{where}/{self.backend}/n{self.n}{depth}/"
                f"{'warm' if self.warm else 'cold'}")

    def build_problem(self) -> quadma.BenchmarkProblem:
        base = quadma.BENCHMARKS[self.problem]()
        if self.disc is None:
            return base
        cx, cy, radius = self.disc
        return quadma.BenchmarkProblem(f"{self.problem}-disc", quadma.disc((cx, cy), radius),
                                       base.u_exact, base.f, base.g)


def random_discs(seed: int, disc_set: int = 0):
    """Set ``disc_set`` of ``DISC_COUNT`` discs ``(cx, cy, radius, n)`` drawn from ``seed``.

    Centre in [-0.2, 0.2]^2 and radius in [0.6, 1.0], uniformly.  Sizes are
    even: on an odd size the bounding-box-anchored Cartesian lattice puts
    four nodes exactly on the circle, and roundoff decides whether each
    becomes a tiny-arm interior node, so a cold start on a random odd-size
    disc fails or not by chance and takes 0.2 s to 11 s, which would make
    the pass time a measure of luck.  The defect stays in every pass
    through ``FIXED_DISCS``, which fail every time at a fixed cost, and in
    the random discs too: tiny arms still appear on some hexagonal grids
    and on the odd-size coarse grids of Cartesian warm starts, whose
    failures are cheap.
    """
    rng = np.random.default_rng(seed)
    strata = np.array_split(np.arange(40, 81, 2), DISC_COUNT)
    for _ in range(disc_set + 1):
        discs = []
        for stratum in strata:
            cx, cy = rng.uniform(-0.2, 0.2, size=2)
            radius = rng.uniform(0.6, 1.0)
            discs.append((float(cx), float(cy), float(radius), int(rng.choice(stratum))))
    return discs


def cases(workload: str, seed: int, disc_set: int = 0) -> list[Case]:
    """The solves of one pass of ``workload``; disc-mix takes one set of its random discs."""
    if workload == "square-lu":
        # n = 72 rather than a larger lattice: sparse LU is already about 90%
        # of the time, and a pass of about 5 s leaves room for enough passes
        # in one run to take a median.
        return [Case("ex1", "cartesian", 72, K=5), Case("ex4", "cartesian", 72, K=5)]
    if workload == "small-sweep":
        return [Case(p, backend, n)
                for p in ("ex1", "ex2", "ex3", "ex4")
                for backend, sizes in (("hex", (16, 32, 64)), ("cartesian", (16, 24, 32)))
                for n in sizes]
    if workload == "disc-mix":
        out = [Case("ex1", "cartesian", n, disc=(c[0], c[1], r)) for c, r, n in FIXED_DISCS]
        for cx, cy, radius, n in random_discs(seed, disc_set):
            out += [Case("ex1", backend, n, warm=warm, disc=(cx, cy, radius))
                    for backend in ("cartesian", "hex") for warm in (False, True)]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def warmup_cases(workload: str, seed: int) -> list[Case]:
    """Every distinct (data, domain, backend, start) of the workload at n = 16.

    Runs every code path a pass takes at a size too small to matter, so
    first-call costs (lazy imports, the first ``interpolate_to_grid`` of a
    process) stay out of the timed passes.
    """
    seen = {}
    for case in cases(workload, seed):
        small = Case(case.problem, case.backend, 16, case.K, case.warm, case.disc)
        seen.setdefault(small.key, small)
    return list(seen.values())


def load_bounds() -> dict:
    return json.loads(BOUNDS_FILE.read_text())


def coarse_n(case: Case) -> int | None:
    """Size of the coarse grid a warm start of ``case`` builds, else None.

    The default rule of ``quadma.solver.coarse_to_fine``, which
    ``solve_problem`` leaves to pick the size.
    """
    if not case.warm:
        return None
    floor = 8 if case.backend != "cartesian" else 4 * (case.K or 2) + 4
    n = max(-(-case.n // 4), floor)
    return n if n <= case.n else None       # a larger one makes the library raise


def error_bound(case: Case, grid, bounds: dict) -> float:
    """Largest max-norm error a solve of ``case`` may have.

    Cases with a recorded error use it; discs without one use the
    backend's recorded worst ``error / h**order`` over calibration discs.
    """
    if case.key in bounds["cases"]:
        return ERROR_SLACK * bounds["cases"][case.key]
    if case.disc is None:
        raise KeyError(f"no recorded error bound for {case.key}")
    fit = bounds["random_disc"][case.backend]
    return RANDOM_DISC_SLACK * fit["constant"] * grid.h ** fit["order"]


def solve(case: Case, problem):
    """One ``quadma.solve_problem`` call for ``case``.

    Returns ``(grid, values, report, params)``, or the ``RuntimeError`` or
    ``ValueError`` the library raised.
    """
    try:
        return quadma.solve_problem(problem, case.backend, case.n, K=case.K,
                                    warm_start=case.warm)
    except (RuntimeError, ValueError) as exc:
        return exc


def solve_checked(case: Case, problem, bounds: dict):
    """Run one case and check it; returns ``(seconds, failure or None)``.

    A solve fails if it raises the library's ``RuntimeError`` or
    ``ValueError``, returns ``converged=False``, leaves a max-norm residual
    of at least ``h**2`` (recomputed here, not read from the report), or
    has a max error against ``u_exact`` above its bound.  The returned
    failure is ``(kind, message)``, where ``kind`` is ``"reported"`` when
    the library itself said the solve failed and ``"wrong"`` when it
    claimed success for a wrong answer.  Only the solve is timed.
    """
    start = time.perf_counter()
    result = solve(case, problem)
    seconds = time.perf_counter() - start
    if isinstance(result, Exception):
        return seconds, ("reported", f"raised {type(result).__name__}: {result}")
    grid, values, report, params = result
    if not report.converged:
        return seconds, ("reported", report.message)
    residual = float(np.abs(quadma.scheme_apply(grid, values, params, problem.f,
                                                problem.g)).max())
    if not residual < grid.h ** 2:
        return seconds, ("wrong", f"residual {residual:.3e} >= h^2 = {grid.h ** 2:.3e}")
    error = quadma.max_error(grid, values, problem)
    bound = error_bound(case, grid, bounds)
    if not error <= bound:
        return seconds, ("wrong", f"max error {error:.3e} > bound {bound:.3e}")
    return seconds, None


class Workload:
    """The solves of one workload, with the tally of their checks.

    Pass ``k`` runs ``self.passes[k % len(self.passes)]``: disc-mix cycles
    through its ``DISC_SETS`` sets, the other workloads repeat one list.
    """

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        sets = DISC_SETS if name == "disc-mix" else 1
        self.passes = [[(c, c.build_problem()) for c in cases(name, seed, s)]
                       for s in range(sets)]
        self.bounds = load_bounds()
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []   # (case key, kind, message)

    def warm_up(self):
        """Untimed and unchecked: first calls, lazy imports, allocator growth."""
        for case in warmup_cases(self.name, self.seed):
            solve(case, case.build_problem())

    def setup_seconds(self, k: int) -> float:
        """``build_grid`` + ``default_params`` for every grid of a pass, as separate calls.

        That is the grid of every solve and the coarse grid of every warm start.
        """
        total = 0.0
        for case, problem in self.passes[k % len(self.passes)]:
            for n in (case.n, coarse_n(case)):
                if n is None:
                    continue
                start = time.perf_counter()
                grid = quadma.build_grid(problem.domain, case.backend, n, case.K)
                quadma.default_params(grid)
                total += time.perf_counter() - start
        return total

    def run_pass(self, k: int, tracer=None) -> float:
        """Solve and check every case of pass ``k`` once; returns the summed solve time."""
        seconds = 0.0
        for i, (case, problem) in enumerate(self.passes[k % len(self.passes)]):
            if tracer is not None:
                tracer.solve = i
            dt, failure = solve_checked(case, problem, self.bounds)
            seconds += dt
            self.attempted += 1
            if failure is not None:
                self.failures.append((case.key, *failure))
        return seconds
