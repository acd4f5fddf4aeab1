"""Solve benchmark for quadma: one workload, one process.

    python3 bench/run.py --workload square-lu --seed 0 --seconds 20 --trace 0

Every solve goes through the public entry point ``quadma.solve_problem``
of the package under ``src/`` next to this directory, and every solution
is checked (see ``workloads.solve_checked``).  The run imports the
package, runs one untimed warm-up pass, then repeats whole passes over
the workload's solves (disc-mix cycles through its sets of random discs)
until ``--seconds`` have gone by and at least ``MIN_PASSES`` are done,
timing the set-up of every grid of a pass (``build_grid`` +
``default_params``) between passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``tracing.PER_LAYER``; its spans go to ``bench/out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say the
same for a reader, with the seed, the machine and the library versions.
``failed / attempted`` is the fail ratio over all timed solves.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("square-lu", "small-sweep", "disc-mix")

# One OpenBLAS thread.  Two were no faster on square-lu on a 2-vCPU Xeon
# (one pass: 19.0 s with one thread, 19.7 s with two), they can stall the
# first interpolate_to_grid of a process for about a second, and threaded
# BLAS may sum in a varying order, which would move the counters that the
# traced run must repeat exactly.
BLAS_THREADS = 1

# solve_s is the median over the passes of a run, so every run makes at
# least MIN_PASSES of them, whatever --seconds says.  The traced run makes
# at least MIN_PAIRS untraced/traced pairs for trace.overhead_ratio.
MIN_PASSES = 5
MIN_PAIRS = 2
SETUP_REPEATS_EARLY = 3      # set-ups before each of the first EARLY_PASSES passes
EARLY_PASSES = 2

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the random discs of disc-mix (other workloads are fixed)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting passes until this much time has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import ``quadma`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "quadma" / "__init__.py").is_file():
        sys.exit(f"bench: no quadma package at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import quadma
    if Path(quadma.__file__).resolve().parent != (SRC / "quadma").resolve():
        sys.exit(f"bench: imported quadma from {quadma.__file__}, not from {SRC}")
    return quadma


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {"nproc": os.cpu_count(), "openblas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "numpy_blas": blas(numpy),
            "scipy": scipy.__version__, "scipy_blas": blas(scipy)}


def measure_end_to_end(work, seconds: float):
    # Set-ups are timed between passes, so that, like the passes, they
    # sample the machine over the whole run: a set-up is a fraction of a
    # second, and the speed of a shared machine wanders on that scale.
    setups, passes = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        repeats = SETUP_REPEATS_EARLY if len(passes) < EARLY_PASSES else 1
        setups += [work.setup_seconds(len(passes)) for _ in range(repeats)]
        passes.append(work.run_pass(len(passes)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"solve_s": statistics.median(passes), "setup_s": statistics.median(setups),
               "peak_rss_mb": rss_mb}
    notes = {"solve_s": _spread("passes", passes), "setup_s": _spread("set-ups", setups),
             "peak_rss_mb": "ru_maxrss of this process"}
    return metrics, notes


def measure_layers(work, seconds: float, spans_path: Path):
    """Per-layer metrics from traced passes, each paired with an untraced pass of the same solves.

    Times are medians over the traced passes; counts and ratios are those
    of the first traced pass, which runs the same solves in every run.
    """
    from tracing import COUNTERS, PER_LAYER, Tracer

    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PAIRS or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            plain.append(work.run_pass(len(plain)))
        else:
            tracer = Tracer()
            with tracer.installed():
                traced.append(work.run_pass(len(traced), tracer))
            tracers.append(tracer)

    per_pass = [t.metrics() for t in tracers]
    metrics, notes = {}, {}
    for name, (unit, _) in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            continue
        values = [m[name] for m in per_pass]
        if values[0] is None:
            metrics[name], notes[name] = None, "absent: a wrapped function is missing"
        elif unit == "s":
            metrics[name] = statistics.median(values)
            notes[name] = _spread("traced passes", values)
        else:
            metrics[name] = values[0]
            # Traced pass i runs the same solves as traced pass i - sets.
            sets = len(work.passes)
            if name in COUNTERS and any(v != values[i % sets] for i, v in enumerate(values)):
                notes[name] = f"DIFFERS between traced passes: {values}"
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    notes["trace.overhead_ratio"] = (f"traced {statistics.median(traced):.4f} s over "
                                     f"untraced {statistics.median(plain):.4f} s")

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"passes": [t.span_records() for t in tracers]}))
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    return metrics, notes, units


def _spread(what, values):
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"median of {len(values)} {what}, quartiles {q1:.4f} .. {q3:.4f}, "
            f"range {min(values):.4f} .. {max(values):.4f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    import_library()
    import workloads

    work = workloads.Workload(args.workload, args.seed)
    work.warm_up()
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        metrics, notes, units = measure_layers(work, args.seconds, spans_path)
    else:
        metrics, notes = measure_end_to_end(work, args.seconds)
        units = END_TO_END_UNITS

    failed = len(work.failures)
    wrong = [f for f in work.failures if f[1] == "wrong"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"solves per pass {len(work.passes[0])}  solve sets {len(work.passes)}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown:>12s} {units[name]:6s} {notes.get(name, '')}")
    print(f"{'fail_ratio':34s} {failed / work.attempted:12.6g} {'failed/attempted':6s} "
          f"({failed} of {work.attempted} solves)")
    for key in sorted({f[0] for f in work.failures}):
        kind, message = next((k, m) for c, k, m in work.failures if c == key)
        count = sum(1 for f in work.failures if f[0] == key)
        print(f"failed x{count} [{kind}] {key}: {message}")

    print(json.dumps({
        "correct": not wrong,
        "attempted": work.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
