"""The names `perfbench/tracer.py` wraps still exist in the library, and
the `enumerate` sets still call the `knm` ones.

The tracer replaces module attributes by name, so a renamed or deleted
library function breaks `perfbench/run.py --trace 1` without failing any
other test, and one the `enumerate` workload stops calling leaves its
metrics at zero.  This reads the tracer's tables only: it loads the file by
path, calls no `install` and writes nothing under `perfbench/`.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
import types
from pathlib import Path

import pytest

from breakpark import cli, knm, verify
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


def test_enumerate_sets_reach_every_wrapped_knm_name(monkeypatch):
    """The four `enumerate` sets at (2,3), in-process, call every `knm`
    name the tracer wraps, as the benchmark's `enumerate` workload needs."""
    names = [name for layer, name in WRAPPED if layer == "knm"]
    calls = dict.fromkeys(names, 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(knm, name, counted(name, getattr(knm, name)))
    for set_name in ("break", "park", "residue", "classes"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["enumerate", "--set", set_name, "--m", "2", "--n", "3",
                             "--format", "json"])
        assert code == cli.EXIT_OK, set_name
    assert [name for name in names if not calls[name]] == []
