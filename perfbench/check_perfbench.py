"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/check_perfbench.py

Run from the root of a checkout; takes about a minute.  The file is not
named test_*.py, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def runner():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as scratch:
        r = run.Runner(Path(scratch), workloads.load_digests(), time.monotonic() + 600)
        try:
            yield r
        finally:
            r.close()


def _only(runner, workload, *labels):
    commands = workloads.build(workload, run.DEFAULT_SEED, runner.scratch)
    return [c for c in commands if not labels or c.label in labels]


def test_benchmark_json_matches_the_code():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert set(run.SPEC["workloads"]) == set(workloads.WORKLOADS)


def test_sanity_counts_and_counters_repeat(runner):
    """Known counts for `character --m 2 --n 6`, twice over: |Break| = 41472,
    and 8 parking scans of the 10^5 candidates in [0, 9]^5."""
    commands = _only(runner, "character", "character --m 2 --n 6 --format json")
    counts = [run.layer_totals(run.traced_pass(runner, commands)[1])[1] for _ in range(2)]
    runner.finish_checks()
    assert runner.failures == []
    assert counts[0] == counts[1]
    assert counts[0]["knm.break_candidates"] == 53_262
    assert counts[0]["knm.break_accepted"] == 41_472
    assert counts[0]["knm.park_candidates"] == 800_000
    assert counts[0]["knm.park_accepted"] == 331_776
    assert counts[0]["knm.enumerate_parking.calls"] == 8


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_metrics_nonzero_where_exercised(runner, workload):
    """Catches a wrapper that silently stops seeing calls after a refactor."""
    values = run.per_layer(runner, _only(runner, workload), 0, runner.scratch / "spans.json")
    runner.finish_checks()
    assert runner.failures == [] and runner.errors == []
    assert list(values) == [name for name, _ in run.PER_LAYER]
    for metric in run.SPEC["per_layer"]:
        if workload in metric["nonzero_on"]:
            assert values[metric["name"]] > 0, metric["name"]


def test_timed_runs_install_no_wrappers(runner, monkeypatch):
    def no_tracer(*args):
        raise AssertionError("a timed run asked for the tracer")

    imports = []
    spawn = run.Runner.spawn

    def spawn_listing_imports(self, argv):
        used, code, stdout, stderr = spawn(self, [argv[0], "-X", "importtime", *argv[1:]])
        imports.append(stderr.decode())
        return used, code, stdout, stderr

    monkeypatch.setattr(run, "traced_argv", no_tracer)
    monkeypatch.setattr(run.Runner, "spawn", spawn_listing_imports)
    run.end_to_end(runner, _only(runner, "dt")[:2], 0)
    runner.finish_checks()
    assert runner.failures == []
    assert imports and all("breakpark.cli" in text for text in imports)
    assert not any("tracer" in text for text in imports)


def _stdout(runner, command):
    _, code, stdout, _ = runner.spawn(run.timed_argv(command.argv))
    assert code == 0
    command.check(stdout)
    return stdout


def _corrupt(stdout: bytes, edit) -> bytes:
    records = json.loads(stdout)
    edit(records)
    return json.dumps(records, sort_keys=True).encode()


@pytest.mark.parametrize(
    "workload, label, edit",
    [
        ("character", "character --m 3 --n 5 --format json",
         lambda r: r[0].update(bruteforce=r[0]["bruteforce"] + 1)),
        ("character", "character --m 3 --n 5 --format json",
         lambda r: r[-1].update(closed="FAIL")),
        ("dt", "dt --m 2 --n-max 24 --format json",
         lambda r: r[5].update(dt_closed=r[5]["dt_closed"] + 1, dt_euler_product=r[5]["dt_closed"] + 1)),
        ("enumerate", "enumerate --set park --m 4 --n 5 --format json", lambda r: r.pop()),
        ("enumerate", "enumerate --set park --m 4 --n 5 --format json",
         lambda r: r[-1].update(parking="(15,15,15,15)")),
        ("graph", None, lambda r: r[0].update(break_divisors=r[0]["break_divisors"] - 1,
                                              spanning_trees=r[0]["spanning_trees"] - 1)),
    ],
)
def test_checks_reject_wrong_output(runner, workload, label, edit):
    commands = _only(runner, workload)
    command = next(c for c in commands if c.label == label or (label is None and c.argv[0] == "count"))
    bad = _corrupt(_stdout(runner, command), edit)
    with pytest.raises(workloads.CheckFailed):
        command.check(bad)


def test_failed_check_counts_every_run_that_printed_it(runner):
    real = _only(runner, "dt")[0]

    def reject(stdout):
        raise workloads.CheckFailed("rejected")

    wrong = workloads.Command(real.label, real.argv, reject)
    for _ in range(2):
        runner.run(wrong, run.timed_argv(wrong.argv))
    runner.finish_checks()
    assert runner.failures == [f"{real.label}: rejected"] * 2


def test_graph_generator_is_seeded_with_fixed_size():
    first = [workloads.random_graph(workloads.random.Random(7)) for _ in range(2)]
    again = [workloads.random_graph(workloads.random.Random(7)) for _ in range(2)]
    assert first == again
    for edges in first:
        assert len(edges) == workloads.GRAPH_GENUS + workloads.GRAPH_VERTICES - 1
        assert len(set(edges)) == len(edges)
    assert workloads.tree_count(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]) == 16
    assert workloads.tree_count(5, [(i, (i + 1) % 5) for i in range(5)]) == 5


def test_fails_without_a_source_tree():
    """In a directory holding only the benchmark it exits nonzero and
    prints no result."""
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dt", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
