"""Record the error bounds the benchmark checks solutions against.

    python3 bench/record_bounds.py

Run only to redefine the bounds: they were recorded at the commit that
added the benchmark, and later commits are checked against them.  It
overwrites ``bench/error_bounds.json`` with the max error of every fixed
case that converges (all of square-lu and small-sweep; the fixed discs of
disc-mix did not, so they are checked like random discs) and, per
backend, the largest ``error / h**order`` over the converged random discs
of the calibration seeds.  The error of a solve that did not converge is
never recorded: it would bound a correct solve by a defective one.
"""

from __future__ import annotations

import json
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from run import import_library  # noqa: E402

quadma = import_library()

import workloads  # noqa: E402

CALIBRATION_SEEDS = range(1000, 1040)
ORDERS = {"cartesian": 4.0 / 3.0, "hex": 2.0}


def converged_error(case):
    """``(h, max error)`` of a converged solve of ``case``, else None."""
    problem = case.build_problem()
    result = workloads.solve(case, problem)
    if isinstance(result, Exception) or not result[2].converged:
        return None
    grid, values, _, _ = result
    return grid.h, quadma.max_error(grid, values, problem)


def main():
    fixed = workloads.cases("square-lu", 0) + workloads.cases("small-sweep", 0) \
        + workloads.cases("disc-mix", 0)[:len(workloads.FIXED_DISCS)]
    cases = {}
    for case in fixed:
        solved = converged_error(case)
        if solved is not None:
            cases[case.key] = solved[1]
        print(f"{case.key}: " + ("did not converge, not recorded" if solved is None
                                 else f"error {solved[1]:.6e}"), flush=True)

    ratios = {backend: [] for backend in ORDERS}
    for seed in CALIBRATION_SEEDS:
        for case in workloads.cases("disc-mix", seed)[len(workloads.FIXED_DISCS):]:
            solved = converged_error(case)
            if solved is not None:
                h, error = solved
                ratios[case.backend].append(error / h ** ORDERS[case.backend])
        print(f"seed {seed}: " + ", ".join(f"{b} {max(r):.4g} over {len(r)}"
                                           for b, r in ratios.items()), flush=True)

    out = {
        "note": "max errors when the benchmark was added; random discs: largest error / h**order "
                f"over the converged random discs of seeds {CALIBRATION_SEEDS.start}"
                f"..{CALIBRATION_SEEDS.stop - 1}",
        "cases": cases,
        "random_disc": {b: {"order": ORDERS[b], "constant": max(r), "discs": len(r)}
                        for b, r in ratios.items()},
    }
    workloads.BOUNDS_FILE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
