import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from breakpark import cli, counting, knm, reptheory
from breakpark.errors import InternalInvariantError

ROOT = Path(__file__).resolve().parent.parent


def run_cli(args):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(args)
    finally:
        sys.stdout = old
    return code, out.getvalue()


def path_file(tmp_path, n):
    path = tmp_path / f"path{n}.txt"
    path.write_text(f"{n}\n" + "".join(f"{i} {i + 1} 1\n" for i in range(1, n)))
    return path


class TestEnumerate:
    def test_break_23(self):
        code, out = run_cli(
            ["enumerate", "--set", "break", "--m", "2", "--n", "3",
             "--format", "json"]
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 12
        assert {"divisor": "(3,1,0)", "orbit_key": "(3,1,0)"} in records

    def test_park_23(self):
        code, out = run_cli(
            ["enumerate", "--set", "park", "--m", "2", "--n", "3",
             "--format", "json"]
        )
        assert code == 0
        assert len(json.loads(out)) == 12

    def test_classes(self):
        code, out = run_cli(
            ["enumerate", "--set", "classes", "--m", "2", "--n", "3",
             "--format", "json"]
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 12
        for rec in records:
            assert {"class_key", "members", "break_rep", "parking_rep"} <= set(rec)

    def test_graph_file_tree(self, tmp_path):
        path = tmp_path / "tree4.txt"
        path.write_text("4\n1 2 1\n2 3 1\n3 4 1\n")
        code, out = run_cli(
            ["enumerate", "--graph", str(path), "--format", "json"]
        )
        assert code == 0
        assert json.loads(out) == [{"divisor": "(0,0,0,0)"}]

    def test_malformed_graph_exits_2_no_output(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 1 2\n")
        code, out = run_cli(["enumerate", "--graph", str(path)])
        assert code == cli.EXIT_USAGE
        assert out == ""

    def test_missing_mn_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["enumerate", "--set", "break"])
        assert exc.value.code == 2

    def test_threads_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["count", "--m", "2", "--n", "3", "--threads", "2"])
        assert exc.value.code == 2

    def test_budget_exit_3(self):
        code, _ = run_cli(
            ["enumerate", "--set", "residue", "--m", "3", "--n", "5",
             "--budget", "10"]
        )
        assert code == cli.EXIT_BUDGET

    @pytest.mark.parametrize(
        "args",
        [
            ["enumerate", "--set", "park"],
            ["enumerate", "--m", "2", "--n", "3"],
            ["count", "--n", "3"],
        ],
    )
    def test_graph_conflicting_flags_exit_2(self, tmp_path, capsys, args):
        path = tmp_path / "tri.txt"
        path.write_text("3\n1 2 1\n1 3 1\n2 3 1\n")
        with pytest.raises(SystemExit) as exc:
            run_cli([args[0], "--graph", str(path), *args[1:]])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1

    def test_graph_over_vertex_cap_exit_3(self, tmp_path):
        code, out = run_cli(["enumerate", "--graph", str(path_file(tmp_path, 25))])
        assert code == cli.EXIT_BUDGET
        assert out == ""


class TestCount:
    def test_23(self):
        code, out = run_cli(
            ["count", "--m", "2", "--n", "3", "--format", "json"]
        )
        assert code == 0
        (rec,) = json.loads(out)
        assert rec["breaks"] == 12
        assert rec["orbits_D"] == 9
        assert rec["dt"] == 3

    def test_24_dt(self):
        code, out = run_cli(
            ["count", "--m", "2", "--n", "4", "--format", "json"]
        )
        (rec,) = json.loads(out)
        assert rec["dt"] == 10

    def test_m1_trivial(self):
        code, out = run_cli(
            ["count", "--m", "5", "--n", "1", "--format", "json"]
        )
        (rec,) = json.loads(out)
        assert rec["breaks"] == 1

    def test_graph(self, tmp_path):
        path = tmp_path / "k32.txt"
        path.write_text("3\n1 2 2\n1 3 2\n2 3 2\n")
        code, out = run_cli(["count", "--graph", str(path), "--format", "json"])
        (rec,) = json.loads(out)
        assert rec["spanning_trees"] == 12
        assert rec["break_divisors"] == 12

    def test_graph_over_vertex_cap(self, tmp_path):
        path = path_file(tmp_path, 25)
        code, out = run_cli(["count", "--graph", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out) == [
            {"vertices": 25, "edges": 24, "genus": 0, "spanning_trees": 1,
             "break_divisors": "budget-exceeded"}
        ]

    def test_wrong_bruteforce_count_exit_4(self, monkeypatch):
        real = knm.enumerate_break_bruteforce
        monkeypatch.setattr(
            knm, "enumerate_break_bruteforce", lambda p: real(p)[1:]
        )
        code, out = run_cli(["count", "--m", "2", "--n", "3", "--format", "json"])
        assert code == cli.EXIT_VERIFY == 4
        (rec,) = json.loads(out)
        assert (rec["breaks"], rec["breaks_bruteforce"]) == (12, 11)


class TestCharacter:
    def test_23_table(self):
        code, out = run_cli(
            ["character", "--m", "2", "--n", "3", "--format", "json"]
        )
        assert code == 0
        records = json.loads(out)
        by_type = {r["cycle_type"]: r for r in records}
        assert by_type["(3)"]["closed"] == 0
        assert by_type["(3)"]["bruteforce"] == 0
        assert by_type["(1,1,1)"]["closed"] == 12
        assert "3 s3 + 4 s21 + 1 s111" in by_type["Frob(Break)"]["closed"]
        assert by_type["Res = Park"]["closed"] == "PASS"

    def test_orbit_route_enumerates_no_full_set(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("character enumerated a full set")

        for name in (
            "enumerate_break",
            "enumerate_parking",
            "enumerate_break_bruteforce",
            "enumerate_parking_bruteforce",
        ):
            monkeypatch.setattr(knm, name, refuse)
        code, out = run_cli(
            ["character", "--m", "2", "--n", "7", "--format", "json"]
        )
        assert code == 0
        records = json.loads(out)
        rows = [r for r in records if r["cycle_type"].startswith("(")]
        assert len(rows) == 15
        assert all(r["closed"] == r["bruteforce"] for r in rows)
        by_type = {r["cycle_type"]: r for r in records}
        assert by_type["(1,1,1,1,1,1,1)"]["bruteforce"] == 2**6 * 7**5
        assert by_type["Res = Park"]["closed"] == "PASS"

    def test_wrong_closed_value_exit_4(self, monkeypatch):
        real = reptheory.character_break_closed
        monkeypatch.setattr(
            reptheory, "character_break_closed", lambda m, n, lam: real(m, n, lam) + 1
        )
        code, out = run_cli(
            ["character", "--m", "2", "--n", "3", "--format", "json"]
        )
        assert code == cli.EXIT_VERIFY
        assert json.loads(out)[0] == {"cycle_type": "(3)", "closed": 1, "bruteforce": 0}

    def test_over_budget_drops_bruteforce_column(self):
        code, out = run_cli(
            ["character", "--m", "2", "--n", "4", "--budget", "10",
             "--format", "json"]
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 5
        assert all("bruteforce" not in r for r in records)


class TestDt:
    def test_table_24(self):
        code, out = run_cli(
            ["dt", "--m", "2", "--n-max", "4", "--format", "json"]
        )
        records = json.loads(out)
        row4 = records[3]
        assert row4 == {
            "n": 4, "dt_closed": 10, "dt_euler_product": 10, "verdict": "AGREE",
        }

    def test_single(self):
        code, out = run_cli(
            ["dt", "--m", "1", "--n-max", "1", "--format", "json"]
        )
        assert json.loads(out)[0]["verdict"] == "AGREE"

    def test_n3(self):
        _, out = run_cli(["dt", "--m", "2", "--n-max", "3", "--format", "json"])
        assert json.loads(out)[2]["dt_closed"] == 3

    def test_budget_cap(self):
        code, _ = run_cli(["dt", "--m", "1", "--n-max", "30"])
        assert code == cli.EXIT_BUDGET

    def test_disagree_exit_4(self, monkeypatch):
        real = counting.dt_invariant
        monkeypatch.setattr(counting, "dt_invariant", lambda m, n: real(m, n) + 1)
        code, out = run_cli(["dt", "--m", "2", "--n-max", "3", "--format", "json"])
        assert code == cli.EXIT_VERIFY
        records = json.loads(out)
        assert len(records) == 3
        assert all(r["verdict"] == "DISAGREE" for r in records)


class TestVerify:
    def test_single_suite(self):
        code, out = run_cli(
            ["verify", "--only", "shift-classes", "--m", "3", "--n", "5",
             "--format", "json"]
        )
        assert code == 0
        records = json.loads(out)
        assert all(r["verdict"] == "PASS" for r in records)

    def test_orbit_suite(self):
        code, out = run_cli(
            ["verify", "--only", "orbit-counts", "--format", "json"]
        )
        assert code == 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--only", "nope"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["enumerate", "--m", "2", "--n", "3", "--seed", "1"],
        ["count", "--m", "2", "--n", "3", "--seed", "1"],
        ["character", "--m", "2", "--n", "3", "--seed", "1"],
        ["dt", "--m", "2", "--n-max", "3", "--seed", "1"],
        ["dt", "--m", "2", "--n-max", "3", "--budget", "10"],
        ["verify", "--only", "orbit-counts", "--budget", "10"],
    ],
    ids=lambda args: f"{args[0]}{args[-2]}",
)
def test_removed_flags_exit_2(args):
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2


def test_verify_keeps_seed():
    code, out = run_cli(
        ["verify", "--only", "random-graphs", "--seed", "7", "--format", "json"]
    )
    assert code == 0
    assert all(r["verdict"] == "PASS" for r in json.loads(out))


class TestInternalError:
    def test_exit_5_one_line(self, monkeypatch, capsys):
        def broken(args):
            raise InternalInvariantError("shift class has 2 break members")

        monkeypatch.setattr(cli, "cmd_dt", broken)
        code, out = run_cli(["dt", "--m", "2", "--n-max", "3"])
        assert code == cli.EXIT_INTERNAL == 5
        assert out == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ")
        assert "shift class has 2 break members" in err


class TestDeterminism:
    def test_byte_stable(self):
        runs = [
            run_cli(["count", "--m", "2", "--n", "3", "--format", "json"])[1]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_verify_seeded_stable(self):
        runs = [
            run_cli(
                ["verify", "--only", "cardinalities", "--seed", "7",
                 "--format", "json"]
            )[1]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def test_console_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "breakpark.cli", "count", "--m", "1", "--n", "2",
         "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["breaks"] == 1
