"""The names the benchmark's tracer wraps must exist in fknichols.

``perfbench/tracing.py`` replaces each (module, class, attribute) of its
``_LEAVES``, ``_SPANS`` and ``_COUNTED`` tables with a timing wrapper, and
fails the traced run if one of them is missing.  This test reads those
tables and resolves every name the way the tracer does, without patching
anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_names():
    tracing = _tracing_module()
    tables = (tracing._LEAVES, tracing._SPANS, tracing._COUNTED)
    return [entry[:3] for table in tables for entry in table]


@pytest.mark.parametrize("module, cls, attr", _wrapped_names(), ids=str)
def test_traced_name_resolves(module, cls, attr):
    owner = importlib.import_module(f"fknichols.{module}")
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))
