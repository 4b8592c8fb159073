"""Each library layer loads on first use, so a command runs only the
layers it needs, and `perfbench/tracer.py`, which wraps library
functions by module right after `import breakpark.cli`, still works.

A registered layer is an `importlib.util.LazyLoader` module until one of
its attributes is read; then its class becomes `types.ModuleType`.
`type()` reads no attribute, so it tells the two apart without loading
anything.  Every check runs in a fresh interpreter, since the test
process has long loaded every layer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import breakpark
from breakpark import cli, verify

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("counting", "knm", "multigraph", "reptheory", "series", "verify")

# Prints the layers in sys.modules, and those that ran, after
# `from breakpark import cli` and after `cli.main(argv)`.
LAYER_REPORT = """
import io, json, sys, types
def layers(ran):
    return sorted(name.split(".", 1)[1] for name, module in sys.modules.items()
                  if name.startswith("breakpark.")
                  and (type(module) is types.ModuleType or not ran))
from breakpark import cli
after_import = layers(True)
out, sys.stdout = sys.stdout, io.StringIO()
code = cli.main(json.loads(sys.argv[1]))
sys.stdout = out
print(json.dumps({"code": code, "after_import": after_import,
                  "registered": layers(False), "ran": layers(True)}))
"""


def env():
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def layer_report(argv):
    proc = subprocess.run([sys.executable, "-c", LAYER_REPORT, json.dumps(argv)],
                          capture_output=True, text=True, env=env())
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == cli.EXIT_OK
    # the eager modules only, and every layer registered for the tracer
    assert report["after_import"] == ["cli", "errors"]
    assert report["registered"] == sorted(["cli", "errors", *LAYERS])
    return set(report["ran"]) - {"cli", "errors"}


def test_dt_runs_counting_and_series_only():
    assert layer_report(["dt", "--m", "3", "--n-max", "24", "--format", "json"]) == {
        "counting", "series"}


@pytest.mark.parametrize("set_name", ["break", "park", "residue", "classes"])
def test_knm_enumerate_runs_knm_only(set_name):
    ran = layer_report(["enumerate", "--set", set_name, "--m", "2", "--n", "4",
                        "--format", "json"])
    assert ran == {"knm"}


def test_character_runs_neither_multigraph_nor_verify():
    ran = layer_report(["character", "--m", "2", "--n", "5", "--format", "json"])
    assert ran & {"multigraph", "verify"} == set()


def test_graph_workload_verify_runs_knm_multigraph_and_verify_only():
    # the `dt-two-routes` default reads `counting` on call, not on import
    ran = layer_report(["verify", "--only", "random-graphs", "--only",
                        "knm-vs-multigraph", "--format", "json"])
    assert ran == {"knm", "multigraph", "verify"}


def test_verify_only_choices_are_the_suites():
    assert list(cli.VERIFY_SUITES) == sorted(verify.SUITES)


def test_package_reexports_read_their_layer():
    from breakpark import dt_invariant, knm

    assert dt_invariant is breakpark.counting.dt_invariant
    assert knm is sys.modules["breakpark.knm"]
    assert breakpark.ExactSeries is sys.modules["breakpark.series"].ExactSeries
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        breakpark.nonesuch


# (arguments after `breakpark`, span names the trace must hold)
TRACED = {
    "dt": (["dt", "--m", "2", "--n-max", "5", "--format", "json"],
           {"cli.main", "cli.cmd_dt", "cli.emit", "counting.dt_via_euler_product",
            "counting.dt_invariant", "series.one_minus_power", "series.mul"}),
    "character": (["character", "--m", "2", "--n", "4", "--format", "json"],
                  {"cli.main", "cli.cmd_character", "cli.emit",
                   "reptheory.character_break", "reptheory.schur_expansion"}),
    "enumerate": (["enumerate", "--set", "park", "--m", "2", "--n", "3",
                   "--format", "json"],
                  {"cli.main", "cli.cmd_enumerate", "cli.emit",
                   "knm.enumerate_parking"}),
}


@pytest.mark.parametrize("command", TRACED)
def test_frozen_tracer_traces_lazy_layers(tmp_path, command):
    args, spans = TRACED[command]
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "tracer.py"), str(trace),
         "0", "--", *args],
        capture_output=True, text=True, env=env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(trace.read_text())["spans"]}
    assert spans <= names
