"""Command-line interface: single solves, convergence studies, angle tables
and mesh dumps, with machine-readable CSV/JSON outputs.

Flags may also be supplied through a JSON config file (``--config``); flags
given on the command line take precedence over file values.  Exit status is
2 for configuration errors and 1 for solver failures; a failed study still
writes the rows that completed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .angles import l1_angles
from .benchmarks import BENCHMARKS, convergence_study, max_error, solve_problem
from .domains import make_domain
from .meshing import build_grid, grid_to_jsonable
from .quadrature import simpson_weights, trapezoid_weights
from .solver import NewtonConfig

CSV_HEADER = "n,h,max_error,runtime_seconds,newton_iters"


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".quadma-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload) -> None:
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def _fail_config(message: str) -> None:
    print(f"quadma: config error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _merge_config(args: argparse.Namespace, keys) -> None:
    """Fill argument values that were not given on the command line from the
    JSON config file, reporting unknown fields by name."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as handle:
            cfg = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        _fail_config(f"cannot read config file {args.config}: {exc}")
    if not isinstance(cfg, dict):
        _fail_config("config file must hold a JSON object")
    unknown = set(cfg) - set(keys)
    if unknown:
        _fail_config(f"unknown config fields: {', '.join(sorted(unknown))}")
    for key, value in cfg.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _typed(args, key: str, kind, default=None):
    """``kind(args.<key>)``, or ``default`` when unset.  Command-line values
    arrive converted already, so a failure names a config-file field."""
    value = getattr(args, key)
    if value is None:
        return default
    try:
        return kind(value)
    except (TypeError, ValueError):
        _fail_config(f"field {key!r}: cannot read {value!r} as {kind.__name__}")


def point(value) -> tuple[float, float]:
    """A coordinate pair, for ``_typed``."""
    x, y = value
    return float(x), float(y)


def _parse_n_list(text) -> list[int]:
    parts = text if isinstance(text, (list, tuple)) else \
        [part for part in str(text).split(",") if part.strip()]
    try:
        values = [int(v) for v in parts]
    except (TypeError, ValueError):
        _fail_config(f"cannot parse n list {text!r} (expected e.g. 16,32,64)")
    if not values or sorted(values) != values:
        _fail_config("n list must be nonempty and increasing")
    return values


def _check_common(args) -> None:
    if not isinstance(args.problem, str) or args.problem not in BENCHMARKS:
        _fail_config(f"unknown problem {args.problem!r} (expected one of {sorted(BENCHMARKS)})")
    if args.backend not in ("hex", "hexagonal", "cartesian"):
        _fail_config(f"unknown backend {args.backend!r} (expected 'hex' or 'cartesian')")


def _newton_config(args) -> NewtonConfig:
    return NewtonConfig(
        residual_threshold_factor=_typed(args, "threshold_factor", float, 1.0),
        max_iterations=_typed(args, "max_iterations", int, 50),
        verbose=bool(args.verbose),
    )


def _cmd_solve(args) -> int:
    _merge_config(args, ["problem", "backend", "n", "K", "epsilon", "threshold_factor",
                         "max_iterations", "warm_start", "coarse_n", "output"])
    _check_common(args)
    if args.n is None:
        _fail_config("solve requires --n")
    n = _typed(args, "n", int)
    if n < 8:
        _fail_config(f"n must be at least 8, got {n}")

    problem = BENCHMARKS[args.problem]()
    grid, values, report, params = solve_problem(
        problem, args.backend, n,
        K=_typed(args, "K", int),
        epsilon=_typed(args, "epsilon", float),
        cfg=_newton_config(args),
        warm_start=bool(args.warm_start),
        coarse_n=_typed(args, "coarse_n", int))
    err = max_error(grid, values, problem)

    payload = {
        "problem": args.problem,
        "backend": args.backend,
        "n": n,
        "K": grid.params.get("K"),
        "h": grid.h,
        "epsilon": params.epsilon,
        "max_error": err,
        "report": {
            "converged": report.converged,
            "iterations": report.iterations,
            "final_residual": report.final_residual,
            "alpha_history": report.alpha_history,
            "residual_history": report.residual_history,
            "message": report.message,
            "linear_solves": report.linear_solves,
        },
        "points": grid.points.tolist(),
        "interior": grid.interior.astype(int).tolist(),
        "values": values.tolist(),
    }
    if args.output:
        _write_json(args.output, payload)
    print(f"{args.problem} {args.backend} n={n}: converged={report.converged} "
          f"iterations={report.iterations} final_residual={report.final_residual:.17e} "
          f"max_error={err:.17e}")
    return 0 if report.converged else 1


def _cmd_study(args) -> int:
    _merge_config(args, ["problem", "backend", "n_list", "K", "c_K", "epsilon",
                         "threshold_factor", "max_iterations", "warm_start",
                         "output_csv", "output_json"])
    _check_common(args)
    if args.n_list is None:
        _fail_config("study requires --n (comma-separated list)")
    n_list = _parse_n_list(args.n_list)
    if n_list[0] < 8:
        _fail_config(f"n must be at least 8, got {n_list[0]}")

    problem = BENCHMARKS[args.problem]()
    result = convergence_study(
        problem, args.backend, n_list,
        K=_typed(args, "K", int),
        c_K=_typed(args, "c_K", float),
        epsilon=_typed(args, "epsilon", float),
        cfg=_newton_config(args),
        warm_start=bool(args.warm_start))

    lines = [CSV_HEADER]
    for row in result.rows:
        lines.append(f"{row.n},{row.h:.17e},{row.max_error:.17e},"
                     f"{row.runtime_seconds:.17e},{row.newton_iters}")
    if args.output_csv:
        _atomic_write(args.output_csv, "\n".join(lines) + "\n")
    if args.output_json:
        _write_json(args.output_json, {
            "problem": result.problem,
            "backend": result.backend,
            "n_list": n_list,
            "order": result.order,
            "order_all_rows": result.order_all_rows,
            "excluded_coarsest": result.excluded_coarsest,
            "rows": [vars(row) for row in result.rows],
        })
    for line in lines:
        print(line)
    print(f"# fitted order: {result.order:.6f} (all rows: {result.order_all_rows:.6f})")
    return 0 if all(row.converged for row in result.rows) else 1


def _cmd_angles(args) -> int:
    _merge_config(args, ["K", "output"])
    if args.K is None:
        _fail_config("angles requires --K")
    K = _typed(args, "K", int)
    if K < 1:
        _fail_config("K must be at least 1")

    d = l1_angles(K)
    trap = trapezoid_weights(d)
    simpson_error = None
    try:
        simp = simpson_weights(d)
        simpson_w = simp.weights
    except ValueError as exc:
        simpson_w = np.full(len(d), np.nan)
        simpson_error = str(exc)

    print(f"# L1-circle angles, K={K}: {len(d)} angles, "
          f"resolution={d.resolution:.17e}, Q={d.quasi_uniformity:.17e}")
    print("index,angle,gap,trapezoid_weight,simpson_weight")
    for j in range(len(d)):
        print(f"{j},{d.angles[j]:.17e},{d.gaps[j]:.17e},"
              f"{trap.weights[j]:.17e},{simpson_w[j]:.17e}")
    if simpson_error is None:
        print(f"# simpson weights all positive: True (min = {simpson_w.min():.17e})")
    else:
        print(f"# simpson weights all positive: False ({simpson_error})")

    if args.output:
        _write_json(args.output, {
            "K": K,
            "angles": d.angles.tolist(),
            "gaps": d.gaps.tolist(),
            "resolution": d.resolution,
            "quasi_uniformity": d.quasi_uniformity,
            "trapezoid_weights": trap.weights.tolist(),
            "simpson_weights": None if simpson_error else simpson_w.tolist(),
            "simpson_positive": simpson_error is None,
        })
    return 0


def _cmd_mesh_dump(args) -> int:
    _merge_config(args, ["backend", "n", "K", "domain", "lower_left", "side",
                         "center", "radius", "output"])
    if args.backend not in ("hex", "hexagonal", "cartesian"):
        _fail_config(f"unknown backend {args.backend!r}")
    if args.n is None:
        _fail_config("mesh-dump requires --n")
    n = _typed(args, "n", int)
    if n < 8:
        _fail_config(f"n must be at least 8, got {n}")
    if args.output is None:
        _fail_config("mesh-dump requires --output")

    shape = {key: _typed(args, key, kind) for key, kind in
             (("lower_left", point), ("side", float), ("center", point), ("radius", float))
             if getattr(args, key) is not None}
    try:
        dom = make_domain(args.domain or "square", **shape)
    except ValueError as exc:
        _fail_config(str(exc))
    grid = build_grid(dom, args.backend, n, _typed(args, "K", int))
    _write_json(args.output, grid_to_jsonable(grid))
    print(f"wrote {grid.n_points} points ({grid.n_interior} interior) to {args.output}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadma",
        description="Monotone quadrature-based finite difference solvers for the "
                    "2D Monge-Ampere equation.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--verbose", action="store_true",
                       help="log Newton progress to standard error")

    p_solve = sub.add_parser("solve", help="solve one benchmark problem")
    p_solve.add_argument("--problem", choices=sorted(BENCHMARKS))
    p_solve.add_argument("--backend", choices=["hex", "cartesian"])
    p_solve.add_argument("--n", type=int, help="grid size (>= 8)")
    p_solve.add_argument("--K", type=int, help="Cartesian stencil depth override")
    p_solve.add_argument("--epsilon", type=float, help="regularization override")
    p_solve.add_argument("--threshold-factor", dest="threshold_factor", type=float)
    p_solve.add_argument("--max-iterations", dest="max_iterations", type=int)
    p_solve.add_argument("--warm-start", dest="warm_start", action="store_const", const=True)
    p_solve.add_argument("--coarse-n", dest="coarse_n", type=int)
    p_solve.add_argument("--output", help="write solution + report JSON here")
    common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_study = sub.add_parser("study", help="run a convergence study")
    p_study.add_argument("--problem", choices=sorted(BENCHMARKS))
    p_study.add_argument("--backend", choices=["hex", "cartesian"])
    p_study.add_argument("--n", dest="n_list", help="comma-separated grid sizes, e.g. 16,32,64")
    p_study.add_argument("--K", type=int, help="fix the stencil depth for every row")
    p_study.add_argument("--c-K", dest="c_K", type=float, help="scale the depth schedule")
    p_study.add_argument("--epsilon", type=float)
    p_study.add_argument("--threshold-factor", dest="threshold_factor", type=float)
    p_study.add_argument("--max-iterations", dest="max_iterations", type=int)
    p_study.add_argument("--warm-start", dest="warm_start", action="store_const", const=True)
    p_study.add_argument("--output-csv", dest="output_csv")
    p_study.add_argument("--output-json", dest="output_json")
    common(p_study)
    p_study.set_defaults(func=_cmd_study)

    p_angles = sub.add_parser("angles", help="print angles, gaps, weights and Q for a depth K")
    p_angles.add_argument("--K", type=int)
    p_angles.add_argument("--output", help="also write the table as JSON")
    common(p_angles)
    p_angles.set_defaults(func=_cmd_angles)

    p_mesh = sub.add_parser("mesh-dump", help="build a grid and dump it as JSON")
    p_mesh.add_argument("--backend", choices=["hex", "cartesian"])
    p_mesh.add_argument("--n", type=int)
    p_mesh.add_argument("--K", type=int)
    p_mesh.add_argument("--domain", choices=["square", "disc"])
    p_mesh.add_argument("--lower-left", dest="lower_left", type=float, nargs=2)
    p_mesh.add_argument("--side", type=float)
    p_mesh.add_argument("--center", type=float, nargs=2)
    p_mesh.add_argument("--radius", type=float)
    p_mesh.add_argument("--output")
    common(p_mesh)
    p_mesh.set_defaults(func=_cmd_mesh_dump)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RuntimeError, ValueError) as exc:
        print(f"quadma: solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
