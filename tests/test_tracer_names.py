"""The names `perfbench/tracer.py` wraps still exist in the library.

The tracer replaces module attributes by name, so a renamed or deleted
library function breaks `perfbench/run.py --trace 1` without failing any
other test.  This reads the tracer's tables only: it loads the file by
path, calls no `install` and writes nothing under `perfbench/`.
"""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

from breakpark import verify
from breakpark.series import ExactSeries

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = load_tracer()
WRAPPED = [
    (layer, name)
    for table in (tracer.SPANS, tracer.COUNTERS)
    for layer, names in table.items()
    for name in names
]


@pytest.mark.parametrize("layer, name", WRAPPED, ids=[f"{l}.{n}" for l, n in WRAPPED])
def test_wrapped_name_is_a_plain_function(layer, name):
    module = importlib.import_module(f"breakpark.{layer}")
    assert isinstance(getattr(module, name, None), types.FunctionType)


@pytest.mark.parametrize("method", sorted(tracer.SERIES_METHODS))
def test_series_method_exists(method):
    assert hasattr(ExactSeries, method)


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_verify_suite_is_a_function(suite):
    assert isinstance(verify.SUITES[suite], types.FunctionType)
