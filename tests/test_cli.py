import json

import pytest

from quadma import build_grid, default_params, ex2, grid_diagnostics
from quadma import cli, solver
from quadma.cli import CSV_HEADER, _build_parser, _parse_args, main


def test_angles_subcommand(capsys):
    assert main(["angles", "--K", "4"]) == 0
    out = capsys.readouterr().out
    assert "index,angle,gap,trapezoid_weight,simpson_weight" in out
    assert "simpson weights all positive: True" in out
    assert out.count("\n") >= 10  # 8 angle rows plus header/summary


def test_angles_json_output(tmp_path):
    path = tmp_path / "angles.json"
    assert main(["angles", "--K", "3", "--output", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["K"] == 3
    assert len(data["angles"]) == 6
    assert data["simpson_positive"] is True


def test_study_writes_csv_and_json(tmp_path, capsys):
    csv_path = tmp_path / "study.csv"
    json_path = tmp_path / "study.json"
    code = main(["study", "--problem", "ex1", "--backend", "hex", "--n", "12,16",
                 "--output-csv", str(csv_path), "--output-json", str(json_path)])
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert int(lines[1].split(",")[0]) == 12
    data = json.loads(json_path.read_text())
    assert data["problem"] == "ex1" and data["backend"] == "hex"
    assert "order" in data and len(data["rows"]) == 2


def _mask_runtime(csv_text):
    rows = []
    for i, line in enumerate(csv_text.strip().split("\n")):
        if i == 0:
            rows.append(line)
        else:
            parts = line.split(",")
            parts[3] = "-"  # runtime_seconds is wall-clock, not reproducible
            rows.append(",".join(parts))
    return "\n".join(rows)


def test_study_deterministic_output(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main(["study", "--problem", "ex4", "--backend", "hex", "--n", "12,16",
                     "--output-csv", str(path)]) == 0
    a, b = (p.read_text() for p in paths)
    assert _mask_runtime(a) == _mask_runtime(b)


def test_solve_writes_solution_json(tmp_path):
    out = tmp_path / "sol.json"
    code = main(["solve", "--problem", "ex2", "--backend", "hex", "--n", "16",
                 "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["problem"] == "ex2"
    assert data["report"]["converged"] is True and data["report"]["message"] == ""
    assert list(data["report"]) == [
        "converged", "iterations", "final_residual", "alpha_history", "residual_history",
        "message", "linear_iterations", "forcing"]
    assert len(data["report"]["linear_iterations"]) == len(data["report"]["forcing"]) \
        == data["report"]["iterations"]
    assert len(data["values"]) == len(data["points"]) == len(data["interior"])
    assert data["max_error"] > 0
    assert list(data)[-1] == "diagnostics"
    grid = build_grid(ex2().domain, "hex", 16)
    assert data["diagnostics"] == {
        **grid_diagnostics(grid),
        "quasi_uniformity": grid.angles.quasi_uniformity,
        "min_quadrature_weight": float(default_params(grid).quadrature.weights.min()),
    }
    assert data["diagnostics"]["boundary_points"] == len(data["interior"]) - sum(data["interior"])


def test_solve_exit_code_on_failure(capsys):
    # an unreachable residual budget: one iteration cannot reach h^2
    code = main(["solve", "--problem", "ex1", "--backend", "cartesian", "--n", "16",
                 "--max-iterations", "1"])
    assert code == 1
    out, err = capsys.readouterr()
    assert "converged=False" in out
    assert err == "quadma: solver error: iteration budget exhausted (1)\n"


def test_failed_linear_solve_exits_1_with_its_cause(monkeypatch, capsys, tmp_path):
    # a BiCGSTAB capped at one iteration fails the first Newton step: the
    # solve still writes its report, then names the cause, with no traceback
    monkeypatch.setattr(solver, "BICGSTAB_MAXITER", 1)
    out = tmp_path / "sol.json"
    code = main(["solve", "--problem", "ex2", "--backend", "hex", "--n", "16",
                 "--output", str(out)])
    assert code == 1
    message = ("linear solve failed: BiCGSTAB did not reach rtol = 1.000e-01 "
               "within its cap of 1 iterations")
    assert capsys.readouterr().err == f"quadma: solver error: {message}\n"
    report = json.loads(out.read_text())["report"]
    assert report["converged"] is False and report["message"] == message


def test_study_names_each_failed_row(tmp_path, capsys):
    # the rows' messages reach standard error, with their sizes; standard
    # output, the CSV and the exit code are those of any failed study
    path = tmp_path / "study.json"
    code = main(["study", "--problem", "ex1", "--backend", "hex", "--n", "12,16",
                 "--max-iterations", "1", "--output-json", str(path)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out.startswith(CSV_HEADER + "\n") and "# fitted order" in out
    assert err == "".join(f"quadma: solver error: n={n}: iteration budget exhausted (1)\n"
                          for n in (12, 16))
    rows = json.loads(path.read_text())["rows"]
    assert [row["message"] for row in rows] == ["iteration budget exhausted (1)"] * 2


@pytest.mark.parametrize("argv,message", [
    (["--warm-start", "--coarse-n", "24"],
     "a warm start's coarse grid size must be below n = 24, got 24"),
    (["--coarse-n", "8"], "coarse_n sets the coarse grid of a warm start; it needs warm_start"),
])
def test_solve_rejects_a_coarse_size_it_cannot_use(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "ex1", "--backend", "hex", "--n", "24", *argv])
    assert exc.value.code == 2
    assert f"quadma: config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["angles", "--K", "3"],
    ["mesh-dump", "--backend", "hex", "--n", "12", "--output", "grid.json"],
])
def test_verbose_is_only_a_flag_of_the_solving_commands(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--verbose"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err
    assert not (tmp_path / "grid.json").exists()


def test_mesh_dump(tmp_path, capsys):
    out = tmp_path / "grid.json"
    code = main(["mesh-dump", "--backend", "cartesian", "--n", "12", "--K", "2",
                 "--domain", "disc", "--center", "0", "0", "--radius", "1",
                 "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "cartesian"
    assert set(data["stencil"]) == {"interior_index", "plus_index", "minus_index",
                                    "h_plus", "h_minus"}
    assert len(data["points"]) == len(data["interior"])
    assert list(data) == ["kind", "h", "r", "params", "angles", "points", "interior",
                          "stencil", "diagnostics"]
    diagnostics = data["diagnostics"]
    assert diagnostics["boundary_points"] == data["interior"].count(0)
    assert diagnostics["clearance"] == 0.01
    stencil = data["stencil"]
    min_arm = min(min(map(min, stencil["h_plus"])), min(map(min, stencil["h_minus"])))
    assert diagnostics["min_arm_ratio"] == min_arm / data["h"]
    assert diagnostics["min_arm_ratio"] >= diagnostics["clearance"]
    assert f"min arm/h = {diagnostics['min_arm_ratio']:.6g}" in capsys.readouterr().out


def test_negative_numbers_in_exponent_notation(tmp_path, capsys):
    # argparse's own negative-number pattern misses "-1e-05" and took it
    # for an option; a config pair becomes the same tokens
    out = tmp_path / "grid.json"
    base = ["mesh-dump", "--backend", "hex", "--n", "12", "--output", str(out)]
    args = _parse_args([*base, "--domain", "disc", "--center", "-1e-05", "0"])
    assert args.center == [-1e-05, 0.0]
    args = _parse_args([*base, "--lower-left", "-2.5E-3", "-1e+00", "--side", "-1e-3"])
    assert (args.lower_left, args.side) == ([-2.5e-3, -1.0], -1e-3)
    assert _parse_args(["solve", "--problem", "ex1", "--backend", "hex", "--n", "12",
                        "--epsilon", "-1e-05"]).epsilon == -1e-05
    assert _parse_args(["study", "--problem", "ex1", "--backend", "hex", "--n", "12",
                        "--c-K", "-5e-1"]).c_K == -0.5
    assert main([*base, "--domain", "disc", "--center", "-1e-05", "0"]) == 0
    from_flags = out.read_text()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "disc", "center": [-1e-05, 0]}))
    assert main([*base, "--config", str(cfg)]) == 0
    assert out.read_text() == from_flags
    # an unknown option is still one
    capsys.readouterr()
    for extra, message in ((["--centre", "-1e-05", "0"], "unrecognized arguments: --centre"),
                           (["--center", "-1e-05", "-e5"], "--center: expected 2 arguments")):
        with pytest.raises(SystemExit) as exc:
            main([*base, "--domain", "disc", *extra])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_mesh_dump_never_drops_domain_values(tmp_path, capsys):
    out = tmp_path / "grid.json"
    cfg = tmp_path / "cfg.json"
    base = {"backend": "hex", "n": 12, "output": str(out)}
    cfg.write_text(json.dumps({**base, "domain": "square", "side": 2.0}))
    assert main(["mesh-dump", "--config", str(cfg)]) == 0
    points = json.loads(out.read_text())["points"]
    assert max(max(p) for p in points) == pytest.approx(2.0)
    # "rectangle" reads "size", and a disc has no side: a config error, not [0, 1]^2
    capsys.readouterr()
    for fields, message in (
            ({"domain": "rectangle", "side": 2.0}, "--domain: invalid choice: 'rectangle'"),
            ({"domain": "disc", "side": 2.0}, "config error: domain 'disc' takes center, radius"),
            ({"domain": "disc", "center": []}, "--center: expected 2 arguments")):
        cfg.write_text(json.dumps({**base, **fields}))
        with pytest.raises(SystemExit) as exc:
            main(["mesh-dump", "--config", str(cfg)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_config_file_merge_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "ex1", "backend": "hex", "n": 12}))
    out = tmp_path / "sol.json"
    assert main(["solve", "--config", str(cfg), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 12
    # flags override the file
    assert main(["solve", "--config", str(cfg), "--n", "16", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 16


def test_config_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "nope", "--backend", "hex", "--n", "16"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "ex1", "--backend", "hex"])  # missing n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "ex1", "--backend", "hex", "--n", "4"])  # n < 8
    assert exc.value.code == 2
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"problem": "ex1", "backend": "hex", "n": 12,
                                   "mystery_field": 1}))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(bad_cfg)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["study", "--problem", "ex1", "--backend", "hex", "--n", "32,16"])
    assert exc.value.code == 2
    # config-file values go through argparse's type and choices checks
    capsys.readouterr()
    for command, fields, message in (
            ("solve", {"n": "abc"}, "--n: invalid grid_size value: 'abc'"),
            ("solve", {"n": 12, "epsilon": "tiny"}, "--epsilon: invalid float value: 'tiny'"),
            ("solve", {"n": 12, "problem": "nope"}, "--problem: invalid choice: 'nope'"),
            ("solve", {"n": 12, "problem": ["ex1"]}, """--problem: invalid choice: '["ex1"]'"""),
            ("solve", {"n": 12, "backend": "triangle"}, "--backend: invalid choice: 'triangle'"),
            ("study", {"n_list": [12, "x"]}, "--n: invalid grid_sizes value: '12,x'")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "ex1", "backend": "hex", **fields}))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


# Flags for the required fields of each subcommand, left out where the case sets that field.
REQUIRED = {
    "solve": {"problem": ["--problem", "ex1"], "backend": ["--backend", "hex"],
              "n": ["--n", "12"]},
    "study": {"problem": ["--problem", "ex1"], "backend": ["--backend", "hex"],
              "n_list": ["--n", "12,16"]},
    "angles": {"K": ["--K", "3"]},
    "mesh-dump": {"backend": ["--backend", "hex"], "n": ["--n", "12"],
                  "output": ["--output", "grid.json"]},
}

# (subcommand, config field, value, flags saying the same, flags overriding it or None)
FIELD_CASES = [
    ("solve", "problem", "ex2", ["--problem", "ex2"], ["--problem", "ex3"]),
    ("solve", "backend", "cartesian", ["--backend", "cartesian"], ["--backend", "hex"]),
    ("solve", "n", 16, ["--n", "16"], ["--n", "20"]),
    ("solve", "K", 3, ["--K", "3"], ["--K", "4"]),
    ("solve", "epsilon", 1e-05, ["--epsilon", "1e-05"], ["--epsilon", "-1"]),
    ("solve", "threshold_factor", 0.5, ["--threshold-factor", "0.5"],
     ["--threshold-factor", "2"]),
    ("solve", "max_iterations", 0, ["--max-iterations", "0"], ["--max-iterations", "9"]),
    ("solve", "warm_start", False, [], ["--warm-start"]),
    ("solve", "warm_start", True, ["--warm-start"], None),
    ("solve", "coarse_n", 9, ["--coarse-n", "9"], ["--coarse-n", "10"]),
    ("solve", "output", "a.json", ["--output", "a.json"], ["--output", "b.json"]),
    ("study", "problem", "ex4", ["--problem", "ex4"], ["--problem", "ex2"]),
    ("study", "backend", "cartesian", ["--backend", "cartesian"], ["--backend", "hex"]),
    ("study", "n_list", [16, 24], ["--n", "16,24"], ["--n", "12,20"]),
    ("study", "n_list", "16,24", ["--n", "16,24"], ["--n", "12"]),
    ("study", "K", 2, ["--K", "2"], ["--K", "5"]),
    ("study", "c_K", 1.5, ["--c-K", "1.5"], ["--c-K", "0.5"]),
    ("study", "epsilon", 0.01, ["--epsilon", "0.01"], ["--epsilon", "0.02"]),
    ("study", "threshold_factor", 3, ["--threshold-factor", "3"], ["--threshold-factor", "1"]),
    ("study", "max_iterations", 7, ["--max-iterations", "7"], ["--max-iterations", "8"]),
    ("study", "warm_start", False, [], ["--warm-start"]),
    ("study", "output_csv", "a.csv", ["--output-csv", "a.csv"], ["--output-csv", "b.csv"]),
    ("study", "output_json", "a.json", ["--output-json", "a.json"], ["--output-json", "b.json"]),
    ("angles", "K", 4, ["--K", "4"], ["--K", "5"]),
    ("angles", "output", "a.json", ["--output", "a.json"], ["--output", "b.json"]),
    ("mesh-dump", "backend", "cartesian", ["--backend", "cartesian"], ["--backend", "hex"]),
    ("mesh-dump", "n", 14, ["--n", "14"], ["--n", "15"]),
    ("mesh-dump", "K", 2, ["--K", "2"], ["--K", "3"]),
    ("mesh-dump", "domain", "disc", ["--domain", "disc"], ["--domain", "square"]),
    ("mesh-dump", "lower_left", [-1, 0.5], ["--lower-left", "-1", "0.5"],
     ["--lower-left", "0", "0"]),
    ("mesh-dump", "side", 2, ["--side", "2"], ["--side", "3"]),
    ("mesh-dump", "center", [0.1, -0.2], ["--center", "0.1", "-0.2"], ["--center", "0", "0"]),
    ("mesh-dump", "radius", 0.5, ["--radius", "0.5"], ["--radius", "0.25"]),
    ("mesh-dump", "output", "a.json", ["--output", "a.json"], ["--output", "b.json"]),
]


def test_every_config_field_has_a_case():
    _, commands = _build_parser()
    for name, parser in commands.items():
        fields = {action.dest for action in parser._actions} - {"help", "config", "verbose"}
        assert fields == {field for command, field, *_ in FIELD_CASES if command == name}


@pytest.mark.parametrize("command,field,value,flags,override", FIELD_CASES,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in FIELD_CASES])
def test_config_field_reads_as_its_flag(tmp_path, command, field, value, flags, override):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    rest = [token for key, tokens in REQUIRED[command].items() if key != field
            for token in tokens]

    def parsed(*argv):
        args = vars(_parse_args([command, *rest, *argv]))
        del args["config"]
        return args

    from_file = parsed("--config", str(cfg))
    assert from_file == parsed(*flags)
    if override is not None:
        assert parsed("--config", str(cfg), *override) == parsed(*override) != from_file


LIBRARY_REJECTS = [
    ["solve", "--problem", "ex1", "--backend", "cartesian", "--n", "16", "--K", "0"],
    ["solve", "--problem", "ex1", "--backend", "hex", "--n", "16", "--epsilon", "-1"],
    ["solve", "--problem", "ex1", "--backend", "hex", "--n", "16", "--threshold-factor", "0"],
    ["solve", "--problem", "ex1", "--backend", "hex", "--n", "16", "--max-iterations", "-1"],
    ["solve", "--problem", "ex1", "--backend", "cartesian", "--n", "10", "--K", "5"],
    ["mesh-dump", "--backend", "cartesian", "--n", "9", "--K", "4", "--output", "grid.json"],
    ["study", "--problem", "ex1", "--backend", "cartesian", "--n", "10,12", "--K", "5"],
    ["solve", "--problem", "ex1", "--backend", "hex", "--n", "16", "--K", "7"],
    ["mesh-dump", "--backend", "hex", "--n", "16", "--K", "7", "--output", "grid.json"],
    ["study", "--problem", "ex1", "--backend", "hex", "--n", "16,24", "--c-K", "3"],
    ["study", "--problem", "ex1", "--backend", "cartesian", "--n", "16,24", "--K", "2",
     "--c-K", "3"],
    ["study", "--problem", "ex1", "--backend", "hex", "--n", "16,16"],
    ["solve", "--problem", "ex1", "--backend", "hex", "--n", "16", "--threshold-factor", "inf"],
    ["study", "--problem", "ex1", "--backend", "hex", "--n", "16,24", "--threshold-factor",
     "inf"],
    ["solve", "--problem", "ex1", "--backend", "hex", "--n", "16", "--epsilon", "inf"],
    ["study", "--problem", "ex1", "--backend", "cartesian", "--n", "16,24", "--c-K", "inf"],
    ["study", "--problem", "ex1", "--backend", "cartesian", "--n", "16,24", "--c-K", "0"],
    ["study", "--problem", "ex1", "--backend", "cartesian", "--n", "16,24", "--c-K", "-5e-1"],
    # epsilons whose powers the Jacobian cannot hold (0/0 below, overflow above)
    ["solve", "--problem", "ex4", "--backend", "cartesian", "--n", "16", "--epsilon", "1e-200"],
    ["solve", "--problem", "ex4", "--backend", "cartesian", "--n", "16", "--epsilon", "1e154"],
]
# non-finite domain values, each with the value its message must name
DOMAIN_REJECTS = [
    (["--domain", "disc", "--radius", "nan"], "nan"),
    (["--domain", "disc", "--radius", "inf"], "inf"),
    (["--domain", "disc", "--center", "nan", "0"], "nan"),
    (["--domain", "square", "--side", "inf"], "inf"),
    (["--domain", "square", "--lower-left", "inf", "0"], "inf"),
]


@pytest.mark.parametrize(
    "argv, named",
    [(argv, None) for argv in LIBRARY_REJECTS]
    + [(["mesh-dump", "--backend", "hex", "--n", "16", *flags, "--output", "grid.json"], named)
       for flags, named in DOMAIN_REJECTS],
    ids=[f"argv{i}" for i in range(len(LIBRARY_REJECTS) + len(DOMAIN_REJECTS))])
def test_values_the_library_rejects_exit_2(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "quadma: config error: " in err
    if named is not None:
        assert named in err and "cannot convert" not in err
    assert not (tmp_path / "grid.json").exists()


UNWRITABLE_OUTPUTS = {
    "solve": ["solve", "--problem", "ex1", "--backend", "hex", "--n", "12", "--output"],
    "study": ["study", "--problem", "ex1", "--backend", "hex", "--n", "12", "--output-csv"],
    "study-json": ["study", "--problem", "ex1", "--backend", "hex", "--n", "12",
                   "--output-csv", "{ok}", "--output-json"],
    "angles": ["angles", "--K", "3", "--output"],
    "mesh-dump": ["mesh-dump", "--backend", "hex", "--n", "12", "--output"],
}


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_path_exits_2(tmp_path, monkeypatch, capsys, command, where):
    # a config error, with no file and no temp file left behind, not even
    # the writable CSV beside an unwritable JSON; solve and study check
    # every output path before they solve
    def solve(*args, **kwargs):
        raise AssertionError("solved before checking the output paths")

    monkeypatch.setattr(cli, "solve_problem", solve)
    monkeypatch.setattr(cli, "convergence_study", solve)
    path = tmp_path / "out.json"
    if where == "missing-directory":
        path = tmp_path / "missing" / "out.json"
    else:
        path.mkdir()   # the temp file goes beside it, in tmp_path
    argv = [arg.format(ok=tmp_path / "ok.csv") for arg in UNWRITABLE_OUTPUTS[command]]
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(path)])
    assert exc.value.code == 2
    assert f"quadma: config error: cannot write {path}: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["out.json"] * (where == "directory")
