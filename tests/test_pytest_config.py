"""The suite's pytest configuration reports a failing property test as a failure."""

import shutil
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_reports_its_example(pytester):
    # under filterwarnings = ["error"], a warning raised in hypothesis's
    # report hook would end the run as an internal error (exit 3)
    shutil.copy(PYPROJECT, pytester.path)
    pytester.makepyfile(test_fails="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_below_five(x):
            assert x < 5
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_fails.py")
    assert result.ret == 1
    result.stdout.fnmatch_lines(["*Falsifying example*", "*1 failed*"])
