"""Every script in ``demos/`` runs to the end with its default arguments."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert [path.stem for path in DEMOS] == ["angles_and_quadrature", "convergence_study",
                                             "mesh_gallery", "single_solve"]


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # in-process, as `python demos/<name>.py` would run it from an empty
    # directory, where convergence_study.py writes its study_*.csv files
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
    if path.stem == "convergence_study":
        assert len(list(tmp_path.glob("study_*.csv"))) == 4
