"""The traced benchmark wraps package functions by (module, name); a refactor
that moves or drops one of those names breaks every traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_seams():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SEAMS


@pytest.mark.parametrize("module_name, attr", [seam[:2] for seam in _load_seams()])
def test_seam_resolves_to_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
