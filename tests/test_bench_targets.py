"""Every function the benchmark's traced run wraps still exists.

``bench/tracing.py`` times each layer by wrapping a module attribute named
in its ``TARGETS``.  A target that was renamed or removed makes its layer
absent, and the per-layer metrics computed from it read ``None`` without
any error.  The benchmark's own checks (``bench/test_bench.py``) run
outside this suite, so the guard lives here.  It only reads ``bench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("module,attribute,span", _targets())
def test_traced_target_resolves(module, attribute, span):
    target = getattr(importlib.import_module(module), attribute, None)
    assert callable(target), f"{module}.{attribute} (span {span}) does not exist"
