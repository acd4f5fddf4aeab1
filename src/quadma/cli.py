"""Command-line interface: single solves, convergence studies, angle tables
and mesh dumps, with machine-readable CSV/JSON outputs.

Flags may also be supplied through a JSON config file (``--config``): its
fields are read as the flags they name, ahead of the command line, so a flag
given on the command line takes precedence.  Exit status is 2 for
configuration errors (a value that argparse rejects, or that the library
rejects with ``ValueError``) and 1 for solver failures, each of which is
named on standard error; a failed study still writes the rows that completed.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import logging
import os
import re
import sys
import tempfile

from .angles import l1_angles
from .benchmarks import BENCHMARKS, convergence_study, max_error, solve_problem
from .domains import make_domain
from .meshing import build_grid, grid_diagnostics, grid_to_jsonable
from .quadrature import simpson_weights, trapezoid_weights
from .solver import NewtonConfig

CSV_HEADER = "n,h,max_error,runtime_seconds,newton_iters"


def _temp_beside(path: str) -> tuple[int, str]:
    return tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".quadma-")


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename; a path
    that cannot be written is a config error."""
    tmp = None
    try:
        fd, tmp = _temp_beside(path)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            _fail_config(f"cannot write {path}: {exc.strerror or exc}")
        raise


def _check_writable(*paths) -> None:
    """Fail now, as ``_atomic_write`` would after the work, for each given
    path that is a directory or beside which no temp file can be made."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            _fail_config(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
        try:
            fd, tmp = _temp_beside(path)
            os.close(fd)
            os.unlink(tmp)
        except OSError as exc:
            _fail_config(f"cannot write {path}: {exc.strerror or exc}")


def _write_json(path: str, payload) -> None:
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def _fail_config(message: str) -> None:
    print(f"quadma: config error: {message}", file=sys.stderr)
    raise SystemExit(2)


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads every negative decimal literal, as
    ``-1e-05`` too, as a value: argparse's own pattern misses exponent
    notation and takes such a token for an unknown option.  Subcommand
    parsers are made of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def grid_size(text: str) -> int:
    """Argparse type of ``--n``: an integer grid size of at least 8."""
    n = int(text)
    if n < 8:
        raise argparse.ArgumentTypeError(f"n must be at least 8, got {n}")
    return n


def grid_sizes(text: str) -> list[int]:
    """Argparse type of ``study --n``: comma-separated grid sizes."""
    return [grid_size(part) for part in text.split(",")]


def _config_tokens(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The fields of the JSON config file at ``path`` as ``parser``'s own flags.

    A field is the destination of its flag, and its value becomes the text
    that would follow the flag on the command line: a string as it is, any
    other value as JSON.  A pair fills a two-value flag, an ``n_list``
    array is joined by commas, a switch is given bare for ``true`` and left
    out for ``false``, and ``null`` leaves the field unset.
    """
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        _fail_config(f"cannot read config file {path}: {exc}")
    if not isinstance(cfg, dict):
        _fail_config("config file must hold a JSON object")
    # --config and --verbose are command-line only
    actions = {action.dest: action for action in parser._actions
               if action.dest not in ("help", "config", "verbose")}
    unknown = set(cfg) - set(actions)
    if unknown:
        _fail_config(f"unknown config fields: {', '.join(sorted(unknown))}")

    def text(value) -> str:
        return value if isinstance(value, str) else json.dumps(value)

    tokens = []
    for key, value in cfg.items():
        flag, nargs = actions[key].option_strings[0], actions[key].nargs
        if value is None or (nargs == 0 and value is False):
            continue
        if nargs == 0 and value is True:
            tokens.append(flag)
        elif nargs == 2 and isinstance(value, list):
            tokens += [flag, *map(text, value)]
        elif key == "n_list" and isinstance(value, list):
            tokens.append(f"{flag}={','.join(map(text, value))}")
        else:
            tokens.append(f"{flag}={text(value)}")
    return tokens


def _newton_config(args) -> NewtonConfig:
    return NewtonConfig(residual_threshold_factor=args.threshold_factor,
                        max_iterations=args.max_iterations)


def _cmd_solve(args) -> int:
    _check_writable(args.output)
    problem = BENCHMARKS[args.problem]()
    grid, values, report, params = solve_problem(
        problem, args.backend, args.n, K=args.K, epsilon=args.epsilon, cfg=_newton_config(args),
        warm_start=args.warm_start, coarse_n=args.coarse_n)
    err = max_error(grid, values, problem)

    payload = {
        "problem": args.problem,
        "backend": args.backend,
        "n": args.n,
        "K": grid.params.get("K"),
        "h": grid.h,
        "epsilon": params.epsilon,
        "max_error": err,
        "report": dataclasses.asdict(report),
        "points": grid.points.tolist(),
        "interior": grid.interior.astype(int).tolist(),
        "values": values.tolist(),
        "diagnostics": {
            **grid_diagnostics(grid),
            "quasi_uniformity": grid.angles.quasi_uniformity,
            "min_quadrature_weight": float(params.quadrature.weights.min()),
        },
    }
    if args.output:
        _write_json(args.output, payload)
    print(f"{args.problem} {args.backend} n={args.n}: converged={report.converged} "
          f"iterations={report.iterations} final_residual={report.final_residual:.17e} "
          f"max_error={err:.17e}")
    if not report.converged:
        print(f"quadma: solver error: {report.message}", file=sys.stderr)
    return 0 if report.converged else 1


def _cmd_study(args) -> int:
    _check_writable(args.output_csv, args.output_json)
    problem = BENCHMARKS[args.problem]()
    result = convergence_study(
        problem, args.backend, args.n_list, K=args.K, c_K=args.c_K, epsilon=args.epsilon,
        cfg=_newton_config(args), warm_start=args.warm_start)

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
            "n_list": args.n_list,
            "order": result.order,
            "order_all_rows": result.order_all_rows,
            "excluded_coarsest": result.excluded_coarsest,
            "rows": [vars(row) for row in result.rows],
        })
    for line in lines:
        print(line)
    print(f"# fitted order: {result.order:.6f} (all rows: {result.order_all_rows:.6f})")
    failed = [row for row in result.rows if not row.converged]
    for row in failed:
        print(f"quadma: solver error: n={row.n}: {row.message}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_angles(args) -> int:
    d = l1_angles(args.K)
    trap = trapezoid_weights(d)
    simpson_w = simpson_weights(d).weights

    print(f"# L1-circle angles, K={args.K}: {len(d)} angles, "
          f"resolution={d.resolution:.17e}, Q={d.quasi_uniformity:.17e}")
    print("index,angle,gap,trapezoid_weight,simpson_weight")
    for j in range(len(d)):
        print(f"{j},{d.angles[j]:.17e},{d.gaps[j]:.17e},"
              f"{trap.weights[j]:.17e},{simpson_w[j]:.17e}")
    print(f"# simpson weights all positive: True (min = {simpson_w.min():.17e})")

    if args.output:
        _write_json(args.output, {
            "K": args.K,
            "angles": d.angles.tolist(),
            "gaps": d.gaps.tolist(),
            "resolution": d.resolution,
            "quasi_uniformity": d.quasi_uniformity,
            "trapezoid_weights": trap.weights.tolist(),
            "simpson_weights": simpson_w.tolist(),
            "simpson_positive": True,
        })
    return 0


def _cmd_mesh_dump(args) -> int:
    shape = {key: getattr(args, key) for key in ("lower_left", "side", "center", "radius")
             if getattr(args, key) is not None}
    grid = build_grid(make_domain(args.domain, **shape), args.backend, args.n, args.K)
    diagnostics = grid_diagnostics(grid)
    _write_json(args.output, {**grid_to_jsonable(grid), "diagnostics": diagnostics})
    print(f"wrote {grid.n_points} points ({grid.n_interior} interior) to {args.output}; "
          f"min arm/h = {diagnostics['min_arm_ratio']:.6g}")
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The ``quadma`` parser and its subcommand parsers by name."""
    parser = _Parser(
        prog="quadma",
        description="Monotone quadrature-based finite difference solvers for the "
                    "2D Monge-Ampere equation.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its fields")

    def problem_flags(p):
        p.add_argument("--verbose", action="store_true",
                       help="log Newton progress to standard error")
        p.add_argument("--problem", choices=sorted(BENCHMARKS), required=True)
        p.add_argument("--backend", choices=["hex", "cartesian"], required=True)
        p.add_argument("--epsilon", type=float, help="regularization override")
        p.add_argument("--threshold-factor", type=float,
                       default=NewtonConfig.residual_threshold_factor)
        p.add_argument("--max-iterations", type=int, default=NewtonConfig.max_iterations)
        p.add_argument("--warm-start", action="store_true")

    p_solve = sub.add_parser("solve", help="solve one benchmark problem")
    problem_flags(p_solve)
    p_solve.add_argument("--n", type=grid_size, required=True, help="grid size (>= 8)")
    p_solve.add_argument("--K", type=int, help="Cartesian stencil depth override")
    p_solve.add_argument("--coarse-n", type=int)
    p_solve.add_argument("--output", help="write solution + report JSON here")
    common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_study = sub.add_parser("study", help="run a convergence study")
    problem_flags(p_study)
    p_study.add_argument("--n", dest="n_list", type=grid_sizes, required=True,
                         help="comma-separated grid sizes, e.g. 16,32,64")
    p_study.add_argument("--K", type=int, help="fix the stencil depth for every row")
    p_study.add_argument("--c-K", type=float, help="scale the depth schedule")
    p_study.add_argument("--output-csv")
    p_study.add_argument("--output-json")
    common(p_study)
    p_study.set_defaults(func=_cmd_study)

    p_angles = sub.add_parser("angles", help="print angles, gaps, weights and Q for a depth K")
    p_angles.add_argument("--K", type=int, required=True)
    p_angles.add_argument("--output", help="also write the table as JSON")
    common(p_angles)
    p_angles.set_defaults(func=_cmd_angles)

    p_mesh = sub.add_parser("mesh-dump", help="build a grid and dump it as JSON")
    p_mesh.add_argument("--backend", choices=["hex", "cartesian"], required=True)
    p_mesh.add_argument("--n", type=grid_size, required=True)
    p_mesh.add_argument("--K", type=int)
    p_mesh.add_argument("--domain", choices=["square", "disc"], default="square")
    p_mesh.add_argument("--lower-left", type=float, nargs=2)
    p_mesh.add_argument("--side", type=float)
    p_mesh.add_argument("--center", type=float, nargs=2)
    p_mesh.add_argument("--radius", type=float)
    p_mesh.add_argument("--output", required=True)
    common(p_mesh)
    p_mesh.set_defaults(func=_cmd_mesh_dump)

    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """Parse ``argv``, with the fields of a ``--config`` file put in as the
    subcommand's first flags: one ``parse_args`` checks both sources, and a
    flag given on the command line wins as the later occurrence."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        command = commands[argv[0]]
        config = argparse.ArgumentParser(add_help=False)
        config.add_argument("--config", nargs="?")  # a missing path is the full parse's error
        path = config.parse_known_args(argv[1:])[0].config
        if path:
            argv[1:1] = _config_tokens(command, path)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    logger = logging.getLogger("quadma")
    handler, level = logging.StreamHandler(), logger.level
    if getattr(args, "verbose", False):  # a flag of solve and study only
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
    try:
        return args.func(args)
    except ValueError as exc:
        _fail_config(str(exc))
    except RuntimeError as exc:
        print(f"quadma: solver error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    raise SystemExit(main())
