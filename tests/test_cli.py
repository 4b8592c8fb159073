import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from breakpark import cli, counting, knm, multigraph, reptheory, verify
from breakpark.errors import InternalInvariantError, PreconditionError

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


@pytest.fixture
def default_int_str_limit():
    """The int-to-str digit limit of a fresh interpreter, where the
    running Python has one; the previous limit is restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


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

    def test_malformed_graph_exits_2_no_output(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 1 2\n")
        code, out = run_cli(["enumerate", "--graph", str(path)])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert capsys.readouterr().err == f"error: {path}: self-loop in '1 1 2'\n"

    def test_unconnectable_graph_file_allocates_nothing(self, tmp_path):
        """A bare vertex count of 20000 once built the 20000 x 20000
        matrix (3.2 GB of list slots) before any check; under a 1 GiB
        address-space limit on the child it died with a MemoryError
        traceback."""
        resource = pytest.importorskip("resource")
        path = tmp_path / "bare.txt"
        path.write_text("20000\n")
        limit = 2**30

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "breakpark.cli", "count", "--graph", str(path)],
            capture_output=True, text=True, env=cli_env(), preexec_fn=limit_memory,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            cli.EXIT_USAGE, "",
            f"error: {path}: 0 pairs of positive multiplicity cannot connect "
            "20000 vertices\n",
        )

    @pytest.mark.parametrize("command", ["count", "enumerate"])
    def test_graph_file_not_utf8_exits_2_no_output(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"3\n1 2 1\n\xff\n")
        code, out = run_cli([command, "--graph", str(path)])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (invalid start byte)\n"
        )

    @pytest.mark.parametrize("command", ["count", "enumerate"])
    @pytest.mark.parametrize("text, message", [
        ("0\n", "vertex count must be positive"),
        ("2\n1 2 x\n", "non-integer edge entry in '1 2 x'"),
        ("2\n1 2 -1\n", "negative multiplicity in '1 2 -1'"),
    ], ids=["no-vertices", "non-integer-multiplicity", "negative-multiplicity"])
    def test_bad_graph_file_exits_2_with_one_error_line(
        self, tmp_path, capsys, command, text, message
    ):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out = run_cli([command, "--graph", str(path)])
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("command, records", [
        ("count", [{"vertices": 1, "edges": 0, "genus": 0, "spanning_trees": 1,
                    "break_divisors": 1}]),
        ("enumerate", [{"divisor": "(0)"}]),
    ])
    def test_one_vertex_graph_file(self, tmp_path, command, records):
        path = tmp_path / "one.txt"
        path.write_text("1\n")
        code, out = run_cli([command, "--graph", str(path), "--format", "json"])
        assert code == cli.EXIT_OK
        assert json.loads(out) == records

    def test_graph_over_budget_names_the_compositions(self, tmp_path, capsys):
        # K_3^2 has genus 4 and C(4 + 2, 2) = 15 candidate compositions
        path = tmp_path / "k32.txt"
        path.write_text("3\n1 2 2\n1 3 2\n2 3 2\n")
        code, out = run_cli(["enumerate", "--graph", str(path), "--budget", "14"])
        assert code == cli.EXIT_BUDGET
        assert out == ""
        assert capsys.readouterr().err == (
            "error: |compositions of 4 into 3 parts| = 15 exceeds budget 14\n"
        )

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
        assert err.startswith(f"usage: breakpark {args[0]} ")

    def test_missing_source_uses_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["count", "--n", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: breakpark count ")
        assert "breakpark count: error: requires --m and --n" in err

    def test_graph_over_vertex_cap_exit_3(self, tmp_path):
        code, out = run_cli(["enumerate", "--graph", str(path_file(tmp_path, 25))])
        assert code == cli.EXIT_BUDGET
        assert out == ""

    def test_huge_set_budget_error_is_short(self, capsys):
        code, out = run_cli(["enumerate", "--set", "break", "--m", "2", "--n", "20000"])
        assert code == cli.EXIT_BUDGET
        assert out == ""
        err = capsys.readouterr().err
        assert len(err.encode()) < 200
        assert err == "error: |Break| > 10^92022 exceeds budget 2000000\n"

    @pytest.mark.parametrize("set_name, error", [
        ("break", "|Break| > 10^6300389"), ("park", "|Park| > 10^6300389"),
        ("residue", "|D| > 10^6300395"), ("classes", "|D| > 10^6300395")])
    def test_huge_set_is_refused_without_building_its_size(
            self, monkeypatch, capsys, set_name, error):
        # the messages the exact sizes 2^999999 * (10^6)^999998 and
        # (2*10^6)^999999 give, which take seconds to build
        def unbuilt(p):
            raise AssertionError(f"built the size of {p}")

        monkeypatch.setattr(knm, "break_count", unbuilt)
        monkeypatch.setattr(knm, "residue_count", unbuilt)
        code, out = run_cli(["enumerate", "--set", set_name, "--m", "2", "--n", "1000000"])
        assert (code, out) == (cli.EXIT_BUDGET, "")
        assert capsys.readouterr().err == f"error: {error} exceeds budget 2000000\n"

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize("source", ["break", "park", "residue", "classes", "graph"])
    def test_over_budget_writes_nothing(self, tmp_path, capsys, source, fmt):
        if source == "graph":  # 25 vertices, over the subset-table cap
            args = ["--graph", str(path_file(tmp_path, 25))]
        else:  # every set of K_5^3 has thousands of elements
            args = ["--set", source, "--m", "3", "--n", "5", "--budget", "10"]
        code, out = run_cli(["enumerate", *args, "--format", fmt])
        assert code == cli.EXIT_BUDGET
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")

    # The knm functions each set's records are built from: the enumerator,
    # called once, and the helpers, called once or more per record.  The
    # benchmark's tracer wraps them by module attribute, so `cli` must call
    # them through it.  break, park and residue records come whole from
    # their enumerators; a `classes` record tests its projection with
    # is_parking_mn and its break member with is_break_mn.
    ROUTES = {
        "break": ("enumerate_break", []),
        "park": ("enumerate_parking", []),
        "residue": ("enumerate_residue_tuples", []),
        "classes": ("shift_classes", ["is_parking_mn", "is_break_mn"]),
    }

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_fault_mid_stream_exits_5_after_a_prefix(self, monkeypatch, capsys, fmt):
        # the enumerator's iterator fails after two records
        for set_name, (enumerator, _) in self.ROUTES.items():
            args = ["enumerate", "--set", set_name, "--m", "2", "--n", "3",
                    "--format", fmt]
            _, full = run_cli(args)
            real = getattr(knm, enumerator)

            def fails_after_two(*args, **kwargs):
                items = real(*args, **kwargs)

                def stream():
                    yield from itertools.islice(items, 2)
                    raise InternalInvariantError(f"{enumerator} out of range")
                return stream()

            capsys.readouterr()
            with monkeypatch.context() as patch:
                patch.setattr(knm, enumerator, fails_after_two)
                code, out = run_cli(args)
            assert code == cli.EXIT_INTERNAL, set_name
            err = capsys.readouterr().err
            assert err == f"error: internal invariant violated: {enumerator} out of range\n"
            # The records before the fault, and nothing of the next one.
            if fmt == "json":
                assert out == json.dumps(json.loads(full)[:2], sort_keys=True)[:-1]
            else:
                assert out == "".join(full.splitlines(keepends=True)[:3])

    @pytest.mark.parametrize("set_name", sorted(ROUTES))
    def test_records_are_built_through_the_knm_attributes(self, monkeypatch, set_name):
        enumerator, helpers = self.ROUTES[set_name]
        calls = {name: 0 for name in [enumerator, *helpers]}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(knm, name, counted(name, getattr(knm, name)))
        code, out = run_cli(["enumerate", "--set", set_name, "--m", "2", "--n", "3",
                             "--format", "json"])
        assert code == cli.EXIT_OK
        records = len(json.loads(out))
        assert calls[enumerator] == 1
        for name in helpers:
            assert calls[name] >= records > 0


def reference_enumerate_records(set_name, p):
    """The dict records `enumerate` built, one by one, before it wrote
    rows, with the tuple formatting of `reference_fmt_tuple`."""
    fmt = reference_fmt_tuple
    if set_name == "break":
        return [{"divisor": fmt(d), "orbit_key": fmt(knm.sort_orbit_key(d))}
                for d in knm.enumerate_break(p)]
    if set_name == "park":
        return [{"parking": fmt(a), "orbit_key": fmt(knm.sort_orbit_key(a))}
                for a in knm.enumerate_parking(p)]
    if set_name == "residue":
        return [{"tuple": fmt(x), "class_key": fmt(knm.class_key(p, x)),
                 "orbit_key": fmt(knm.sort_orbit_key(x))}
                for x in knm.enumerate_residue_tuples(p)]
    return [{"class_key": fmt(cls[0]), "members": ";".join(fmt(x) for x in cls),
             "break_rep": fmt(knm.break_representative(p, cls[0])),
             "parking_rep": fmt(knm.parking_representative(p, cls[0]))}
            for cls in knm.shift_classes(p)]


@pytest.mark.parametrize("set_name", ["break", "park", "residue", "classes"])
@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 4) for n in range(1, 5)]
                         + [(1, 5), (2, 5)])
def test_enumerate_rows_equal_the_dict_records(set_name, m, n):
    """Every format of the row layouts against the dict records, over
    every K_n^m with m <= 3 and n <= 4: the edge cases n = 1 (an empty
    parking tuple) and n = 2 among them; and (1,5) and (2,5), whose long
    heads hold one or two leaves."""
    records = reference_enumerate_records(set_name, knm.KnmParams(m, n))
    for fmt, reference in REFERENCES.items():
        code, out = run_cli(["enumerate", "--set", set_name, "--m", str(m),
                             "--n", str(n), "--format", fmt])
        assert code == cli.EXIT_OK
        assert out == reference(records)


@pytest.mark.parametrize("text", [
    "1\n", "3\n1 2 1\n1 3 1\n2 3 1\n", "4\n1 2 3\n2 3 1\n3 4 2\n1 4 1\n2 4 1\n",
], ids=["one-vertex", "triangle", "multigraph"])
def test_enumerate_graph_rows_equal_the_dict_records(tmp_path, text):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    g = multigraph.parse_graph_file(text)
    records = [{"divisor": reference_fmt_tuple(d)}
               for d in multigraph.enumerate_break_divisors(g)]
    assert records
    for fmt, reference in REFERENCES.items():
        code, out = run_cli(["enumerate", "--graph", str(path), "--format", fmt])
        assert code == cli.EXIT_OK
        assert out == reference(records)


# sha256 of `enumerate --set S --m M --n N --format F` stdout, recorded
# before the per-record kernels (the tuple formatting, the knm predicates and
# class helpers) were rewritten for speed; they must keep every byte.
ENUMERATE_DIGESTS = [
    ("break", 3, 4, "json", "e31853ce573d1b282a1ebf904c4ed70da3942553c370a0ae73117a1646b6625c"),
    ("break", 3, 4, "csv", "8777b2d80dce0f454bfb2429d775335568851f18c3764c6689c349f03ae54f66"),
    ("break", 3, 4, "pretty", "f9bc49bc099fb3e63c1275bdcad16411e2f4ec6f1b25332f62dc1264cb4e2f2a"),
    ("park", 3, 4, "json", "e9e5e38769b227f1de0ecb58820f7ef4b78f1610000bed21cf57ca5da09d0e0f"),
    ("park", 3, 4, "csv", "d40a5b7005d3f635ac973642cbae3f37b6a3ac37e7c6997c8bf16807a456a3ff"),
    ("park", 3, 4, "pretty", "c91cbc804b22b8fe0b8ed87255a1cbec2cd0fd286511806cd579f67402d3223d"),
    ("residue", 3, 4, "json", "63d78db2865d21b5dda706df0cc4359878d4dfc8fb43ad4cf660692efc36e4c6"),
    ("residue", 3, 4, "csv", "06f3ace45915df2933598a54257832f6726f09bf1e6b30bcf912f785e20212c5"),
    ("residue", 3, 4, "pretty", "e1eef987a984b1963075ecc904848932a82976141450b1b4d22a984e37248f2e"),
    ("classes", 3, 4, "json", "04ccd6879aa85f0e02146ff65c7524a3c37f6f5e4fc9d9acf8576390c73f38f8"),
    ("classes", 3, 4, "csv", "e4b09499df6cf3d1b61144d218d74585025a80966e3105bed01a5442671f4b48"),
    ("classes", 3, 4, "pretty", "19faa047e8a1a365ec0237ac3bf60b58a608b518f30fbca5ed89b4e884c1dd41"),
    ("park", 1, 1, "json", "e0fb5f16c4f46e6267d5a24124a033e5d2cff5c90f56ab2d8a07c1003535527a"),
    ("park", 1, 1, "csv", "015ca43670eefb6db642b40a5a50497031eaec2a07c71067cdc047dc26cf933d"),
    ("park", 1, 1, "pretty", "863442eb105505d56858c2afe213d6ad26782642cae6d0f787bdecca42fd61c0"),
    ("classes", 1, 1, "json", "aba6a19fecbf2cd67b28ddf5aafddf522c47e8f41209d73bab6d888a69aeef73"),
    ("classes", 1, 1, "csv", "16027b0dffaf38390162553299c3333383bbdabf0b114bf95ea54652c6a9fb1e"),
    ("classes", 1, 1, "pretty", "36e965c3c163ca64d3e7f804d510b6e63bcc3acdcc374d16301e8c62b97f3a8e"),
    ("residue", 2, 1, "json", "9611e48d6fe49395b042a652f85abef2e501c144789514b889ac5fc1b4a01377"),
    ("residue", 2, 1, "csv", "98d8b0e6b71cbac0dc785eb270a73991fe19940e9b7ce3fd34f9b5b77942e366"),
    ("residue", 2, 1, "pretty", "c1c01df8e086649a3a59ab0b6337e05f05e3e67e90d09ea4539546d9524f0176"),
    # recorded before residue and classes were built one head at a time:
    # at n = 2 the head is empty, at n = 3 it is x_0 alone
    ("residue", 7, 2, "json", "895f2d65a8a783ab4997999a8eaf695478a15af10a4805faf6110de198ac2786"),
    ("residue", 7, 2, "csv", "b738aed32e3bb255bc31c95b50651e3035cdd6a6b93e77f8df7ae4318ad7ad5b"),
    ("residue", 2, 3, "json", "a09b2bb8c44ca2a1d911e117c7c15a9684da5c7781456597dc593a4896def72d"),
    ("residue", 2, 3, "csv", "44751033762cac357181a8e66ef4bc5e9bd54fd08f9847b0404f30196a4b3814"),
    ("classes", 7, 2, "json", "4574913a9135ceb153fd3dab720a658f67b57db158dcdea463e094f0302e08ae"),
    ("classes", 7, 2, "csv", "7f993291896f7f92ccbdbd2986fd8cdc7e800256f858c148ac8c178be250e4f9"),
    ("classes", 2, 3, "json", "cacefe700a2f2f26581a7d79060aaf1ad4572042dade053dcb9ad4bff9448d33"),
    ("classes", 2, 3, "csv", "c3ac3239f5bf2d1be0eac8947441f22c47e6708e7a20b1be6a738ddde879713c"),
    # recorded before the class representatives came from per-run tables
    ("classes", 5, 4, "json", "9a4e7922b07c36d189fb30ed6ea9129c8056a9cca859500472ef368b16eabdbf"),
    ("classes", 5, 4, "csv", "ae299169a96a009d2bf8dc56037e4f32ee18a5774bd6ed965cd9b3ee581d5bd0"),
    ("classes", 1, 7, "json", "440e4ba3f1b9699d277ce36a3071f7a5e3331eb7bbf9fadce3ca4b4d22ae7dd8"),
    ("classes", 1, 7, "csv", "7c4122eb03f25ab528e8d28ba64d2e67c076004081cace7cd68b722ac1b5c57b"),
    # recorded before the break, park and residue records were built inside
    # the set walks: n = 1, 2 and 3, and the benchmark's shapes
    ("break", 3, 1, "json", "8dee80e2f9447e1a6654e5f1c1019eb852a8f6783a9701df1648a04ddcc26dd9"),
    ("break", 3, 1, "csv", "dbe4d835f8aff1d2d6b40df9331bf74384542cee1eedba27e1e96bc6cfd6443f"),
    ("break", 3, 1, "pretty", "15e2a43c8f5fb6987ad87e0f2b0bd1616e13841d9a3e75a740572cf96b15cc3b"),
    ("break", 3, 2, "json", "60aa681bb2a8601ba4bd4f19b1785a884e9ddd55e3ac819040b80234b190c86c"),
    ("break", 3, 2, "csv", "c771af51378e141b361c188b81be6e988bac0fbbabf223be5b9ab91adb0de3f2"),
    ("break", 3, 2, "pretty", "709194d5a985337a70bd697ff9aee7b077452ad31eca6828755732b602d79abe"),
    ("break", 3, 3, "json", "76994bb969855ba03fe8efd7cadb76fdb733c7aa2a122949dbbd423f606b2308"),
    ("break", 3, 3, "csv", "e75a98e2c4d5f64a5338f0eeb5090f4cb26950af508f0e10f7757c07a0b33c09"),
    ("break", 3, 3, "pretty", "49b3e6930325bbf16ba6c94c72f2f5c0d994d8bfbcdbdd0e74cfd37a0e4980a8"),
    ("break", 4, 5, "json", "e2904333b704ba3eb34c6464745f92e81dd2f1425be237e643e44742d130ace3"),
    ("break", 4, 5, "csv", "6b40d94819f3ea1f63d816019bde0312d9652d3fc84fde6400426b92b40a2982"),
    ("break", 4, 5, "pretty", "f59037e70a3e14deb2a2bbbc8aa461f096801b5438f457cfab1d49b726196ba3"),
    ("park", 3, 1, "json", "e0fb5f16c4f46e6267d5a24124a033e5d2cff5c90f56ab2d8a07c1003535527a"),
    ("park", 3, 1, "csv", "015ca43670eefb6db642b40a5a50497031eaec2a07c71067cdc047dc26cf933d"),
    ("park", 3, 1, "pretty", "863442eb105505d56858c2afe213d6ad26782642cae6d0f787bdecca42fd61c0"),
    ("park", 3, 2, "json", "2cf75469cc5e41caedea95eed16d2f1926de6c5593ffb22cbcf0183095bdc7f4"),
    ("park", 3, 2, "csv", "99f75620b7c318274ff88c5e0e5c48fb4d0ad52cc9175afa2dbda39764a22984"),
    ("park", 3, 2, "pretty", "3c62c0a822db881a79bdb16086aec050143651468a4798c56810ab9c87624a14"),
    ("park", 3, 3, "json", "6b294d94d6b6438621e5e2c56192b77ccaf824248002de9419f6c85c06f40d29"),
    ("park", 3, 3, "csv", "46255946173f08ed19a7ef8c521658cd9b238d162525137ac19cd71aa1aebdb9"),
    ("park", 3, 3, "pretty", "d2d043a7f1528f5ee98e14d62987ae3a7fd73d77781897aa3cbcc4ab35741755"),
    ("park", 4, 5, "json", "54804605c74b8744138d79fec5f801f1ec0deb38e897ea7b40b3d7e770cc4b9f"),
    ("park", 4, 5, "csv", "cd7248d9dd53f7df6ecef3fcb240a740fad9424d0be4e5bfe4c70a19bbe4db62"),
    ("park", 4, 5, "pretty", "2bd590a21efb32dc5bb160e7707fb2107d528919eaff239dafff52dfdebc59c8"),
    ("residue", 3, 1, "json", "9611e48d6fe49395b042a652f85abef2e501c144789514b889ac5fc1b4a01377"),
    ("residue", 3, 1, "csv", "98d8b0e6b71cbac0dc785eb270a73991fe19940e9b7ce3fd34f9b5b77942e366"),
    ("residue", 3, 1, "pretty", "c1c01df8e086649a3a59ab0b6337e05f05e3e67e90d09ea4539546d9524f0176"),
    ("residue", 3, 2, "json", "991c63776095aeb848abf10a36623575a1156bc81a54378691a343b3e9abfab6"),
    ("residue", 3, 2, "csv", "ba40e299db771cc75907bb132464b5b1102ed76f3f30b50977044b88065ee38b"),
    ("residue", 3, 2, "pretty", "119919e43da38021600222094610fec19232e00786f69e2f771576e780b8c016"),
    ("residue", 3, 3, "json", "5c976d780880dbbf26dfc72f121c41a8117c5e99b3721b20c2c9e17d924cf5d7"),
    ("residue", 3, 3, "csv", "3c76c90755f1a5498ddb5dbc942ea6d00ff4990414bba267e1eda2c371a3bee7"),
    ("residue", 3, 3, "pretty", "e6213851e34d4698b5f6392da5e925af8f2cde1030d1a27ed1819d036bf4160e"),
    ("residue", 3, 5, "json", "08b7a3a3aee6803136f2f5dd3319b1498e752de3f9b9989e9f0bb91a815ee9b6"),
    ("residue", 3, 5, "csv", "9d8f743da2fdcc82c56305bab18d41ec618911a4a166d4f476e0ea116ee6e2f7"),
    ("residue", 3, 5, "pretty", "60b126387b1e9dbe58c35f834340ebe5e619841aea2105f39995e1c4e113710e"),
    ("classes", 3, 1, "json", "aba6a19fecbf2cd67b28ddf5aafddf522c47e8f41209d73bab6d888a69aeef73"),
    ("classes", 3, 1, "csv", "16027b0dffaf38390162553299c3333383bbdabf0b114bf95ea54652c6a9fb1e"),
    ("classes", 3, 1, "pretty", "36e965c3c163ca64d3e7f804d510b6e63bcc3acdcc374d16301e8c62b97f3a8e"),
    ("classes", 3, 2, "json", "f823ca85d81b90c2c7337b48f670001dd245f1571480ab87ea3f0242fe482611"),
    ("classes", 3, 2, "csv", "13205bdd63fb4faeeeff387e47224ca834a5ae0ae792cce534f27204cf44f84e"),
    ("classes", 3, 2, "pretty", "aaee67f1cfc6dad6e94bb7c69675c7b6d032de6ffb193288a828b2a5d3503b65"),
    ("classes", 3, 3, "json", "7ad43443183b8847863d9d7fc95eb8474fa9c3ff3e2e539fdf279a653ab47b69"),
    ("classes", 3, 3, "csv", "569b2ca93641d229ce118719f884242785d27623dd06513f591515cdcc8741b6"),
    ("classes", 3, 3, "pretty", "6f19f0ee39388e4f9f41ea1f02ccbd3f9b4890a9ff835a676d87000b729d62e2"),
    ("classes", 3, 5, "json", "97797d12bf9f166e1d256e0b0369dea89738c83c99dea9358c8aa90f33dd002c"),
    ("classes", 3, 5, "csv", "76ebe53ef9ad00cd670c282db757b2dbc3b14660ba4c6febdde6988f3a18d85e"),
    ("classes", 3, 5, "pretty", "92421cb7964c54ec72a883c8eba6fbc3722fab29d8f1593b8aac1a0ee1aa3916"),
    # recorded before the break, park and residue rows carried their head's
    # text: long heads holding one or two leaves, Park heads with ties
    ("park", 1, 7, "json", "59929f30e513fb3b0673f22ce5f152c5f3b7e9e5097e1a044205c6648626d26a"),
    ("park", 1, 7, "csv", "82c1f61d4433d971419b02cf999872d29a1d7b673802ef3abde471985d72523f"),
    ("park", 1, 7, "pretty", "c91a4d569c5bcb4768b0ea26e5e520a987e2bd9e3d7060cebad38374dd3b3643"),
    ("park", 2, 6, "json", "771c8acb2b730669794089de6707087430c48a6b935bb225c31c55936bde118b"),
    ("park", 2, 6, "csv", "9e947356b75483f0fdb52e940cfb9508ca36d78df06e5fccb6d82c1c527f8445"),
    ("park", 2, 6, "pretty", "d0df38663a1d566c051e680dc902da937e12fdfc56949d4de288fd5f0b932efe"),
    ("break", 1, 7, "json", "a8c0b06daedd3a5cd84f0bcda3b7a976d22fdad6de20c10ec3165f6dbecbc2d0"),
    ("break", 1, 7, "csv", "cf70ba8a39cdf864583c7b7b66e715ae2165b1fda661d2fc581034a0405721fb"),
    ("break", 1, 7, "pretty", "e4b8cb6a329f438d88993d8f1713e4f0cfb647823d2c39fb2415dbdeb563da33"),
    ("residue", 2, 5, "json", "55a44396367ac73bc81d096b3c6f2e8a9dea38105edb6a471b58f4219095cc9e"),
    ("residue", 2, 5, "csv", "50b88382b2f7170a73d1dad7ef90d96b66ca92d7a2725e0d8a1a6d875df97e29"),
    ("residue", 2, 5, "pretty", "14f8baec637aaca976cf0979feba06509e9fac54b8acb988174d0c4b79b8f553"),
]


@pytest.mark.parametrize(
    "set_name, m, n, fmt, digest", ENUMERATE_DIGESTS,
    ids=[f"{s}-{m}-{n}-{f}" for s, m, n, f, _ in ENUMERATE_DIGESTS],
)
def test_enumerate_stdout_is_byte_stable(set_name, m, n, fmt, digest):
    code, out = run_cli(["enumerate", "--set", set_name, "--m", str(m),
                         "--n", str(n), "--format", fmt])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `character --m M --n N --format F` stdout, recorded before
# `reptheory.knm_modules` took over assembling the Frobenius data from
# the CLI; every byte must stay.
CHARACTER_DIGESTS = [
    (2, 3, "json", "87446f78759311c3e2ef1a316a2ea1b274d97f7549fa0a7bfe11606f3f806b6a"),
    (2, 3, "csv", "560b68bf87e64ae060980ba6d7f1dba314208d9e2fc9b7f8b43c356784abdfc0"),
    (2, 3, "pretty", "ca5b87ca6dc231acad60ca63a66a60fe24c49fc0583d807e59497f2e780ec3bb"),
    (2, 6, "json", "0a445349ae0e87f1708a8c4cf49a47f35e50bbee0a7a3779ea27acf4c360e46d"),
    (2, 6, "csv", "a20e4abdd7da2b25cc870fd335f5a3750fd9a3de671a5cd3d0dcae4e554108c2"),
    (2, 6, "pretty", "4bc4f852d4e83d1bf29ebe9813c35db5d628cac7901da3333269c81126da3e2b"),
    (5, 5, "json", "4053d64c4ac5f04ab3eeea2e6d604c83da564cf738c42e2a69ff5e35c8a66b2f"),
    (5, 5, "csv", "a9ef38415073b380f4233abeba3c86e1cb2686843f8f1b9934872abb06438360"),
    (5, 5, "pretty", "d59ae166c9056158d862355f690486ff22713536b7d1624477dd5265ed7e7ca4"),
    (3, 5, "json", "eae3d9a5e2bfc63a74f0d155ffed7c47ccdd33d18f81f4773b2681ec61b30d9a"),
    (3, 5, "csv", "17d08206ff9c29579142c093ea72e2882215b49df15330f6dfba786d902a3877"),
    (3, 5, "pretty", "b7ec2fc643080ee35298f26faebf828984b2cbb7873f80bd2b61fce28212e6a5"),
    (1, 1, "json", "c1bc42cb7293623768bc6620bd7d6dbcd6fcbf24bb866243035c5aae80ab2946"),
    (1, 1, "csv", "e6a190b95babae859605e06d0f75daf0e38b3987cc070d5c3a87901ee31143fc"),
    (1, 1, "pretty", "6ca0c2dcd07e60e6ae2fcd61fa7d79cdefb8fee09663f0496644e1259d11aa61"),
    (3, 2, "json", "eb51a7e4088c2731559be3552a5d779aa0571b01769c6a652c587aa9b457d6cd"),
    (3, 2, "csv", "6c005eb933091972dd7d967c687e066b91ab7706848380d1e2381497b61f9162"),
    (3, 2, "pretty", "215c5271e79749b717e69d4f8df145b8e7d7a948887d378337fb54fc37987201"),
]


@pytest.mark.parametrize(
    "m, n, fmt, digest", CHARACTER_DIGESTS,
    ids=[f"{m}-{n}-{f}" for m, n, f, _ in CHARACTER_DIGESTS],
)
def test_character_stdout_is_byte_stable(m, n, fmt, digest):
    code, out = run_cli(["character", "--m", str(m), "--n", str(n), "--format", fmt])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


ORBIT_TYPE_ROUTE = [d for d in CHARACTER_DIGESTS if d[:2] in {(2, 6), (5, 5), (3, 5)}]


@pytest.mark.parametrize(
    "m, n, fmt, digest", ORBIT_TYPE_ROUTE,
    ids=[f"{m}-{n}-{f}" for m, n, f, _ in ORBIT_TYPE_ROUTE],
)
def test_character_lists_no_orbit(monkeypatch, m, n, fmt, digest):
    # the same bytes when listing an orbit, or reading the h-expansion
    # off listed representatives, would raise
    def refuse(*args, **kwargs):
        raise AssertionError("character listed the orbits")

    monkeypatch.setattr(knm, "break_orbit_reps", refuse)
    monkeypatch.setattr(knm, "parking_orbit_reps", refuse)
    monkeypatch.setattr(reptheory, "perm_module_h_expansion", refuse)
    code, out = run_cli(["character", "--m", str(m), "--n", str(n), "--format", fmt])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_character_over_budget_is_byte_stable(capsys):
    code, out = run_cli(
        ["character", "--m", "2", "--n", "4", "--budget", "10", "--format", "json"]
    )
    err = capsys.readouterr().err
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "141555c8e193c8bf210204d1f3e1fd19a44627dd1e5eaaea126cd0bcdd947a45"
    )
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "dd92f89db69f39bca0474b45d98f1842339b55a813debeb8ba1bd146a033a2b8"
    )


def test_module_suites_stdout_is_byte_stable():
    code, out = run_cli(
        ["verify", "--only", "characters", "--only", "module-isomorphisms",
         "--m", "2", "--n", "5", "--format", "json"]
    )
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "30fefeda05f59ea8e1743b5c577bc190747280c3d21a99d6a3081bb9210e2d1a"
    )


# sha256 of the four K_n^m suites whose verdicts moved onto `_check`,
# recorded before the move; every PASS row must keep its bytes.
def test_knm_suites_stdout_is_byte_stable():
    code, out = run_cli(
        ["verify", "--only", "shift-classes", "--only", "cardinalities",
         "--only", "orbit-counts", "--only", "dt-two-routes", "--format", "json"]
    )
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4e433a60d8953af82f2db92fec5341c5f7a833c1ca981fa27eb792de4b6b6fc6"
    )


# A fixed connected simple graph on 7 vertices with genus 6: a 7-cycle
# plus five chords.
GRAPH7 = (
    "7\n1 2 1\n1 3 1\n1 7 1\n2 3 1\n2 5 1\n3 4 1\n3 6 1\n"
    "4 5 1\n4 7 1\n5 6 1\n5 7 1\n6 7 1\n"
)

# sha256 of the stdout of the graph commands (the verify suites on graphs,
# and `count` / `enumerate --graph` on GRAPH7), recorded before the
# subset predicates moved to packed integers; they must keep every byte.
GRAPH_DIGESTS = [
    (("verify", "--only", "random-graphs", "--only", "knm-vs-multigraph",
      "--seed", "0", "--format", "json"),
     "d244f30ab07a42c45e154780ef11f79be0d855fecfcc4e9a8ee8cb4302562c87"),
    (("count", "--graph", "GRAPH7", "--format", "json"),
     "d8970f304b2fecb8aa6f3ab20d7bc265d827bbe760c91f6b38122dc62fa095ec"),
    (("count", "--graph", "GRAPH7", "--format", "csv"),
     "6b94a3ecca1cc7e880c2e0df1a13322a160ff7e955f7ad1b6f2354d262452e0f"),
    (("count", "--graph", "GRAPH7", "--format", "pretty"),
     "14b2454775f856687eaef3d3f5ec7877233e626eec043f0a50afd90503c6eea8"),
    (("enumerate", "--graph", "GRAPH7", "--format", "json"),
     "22625f54db1d800aef7755b73cbbe9cbe344f3e40895fcbadbb589f83f8916e4"),
    (("enumerate", "--graph", "GRAPH7", "--format", "csv"),
     "b89b11d9fe88d5c3a298edccfe464cd70b88c461ef962a04630ed13c92da592b"),
    (("enumerate", "--graph", "GRAPH7", "--format", "pretty"),
     "1ac98f4c28765c2731d7a98dde49850b757181b88d2278866b57b4f8261e20fd"),
]


@pytest.mark.parametrize(
    "args, digest", GRAPH_DIGESTS,
    ids=[f"{a[0]}-{a[-1]}" for a, _ in GRAPH_DIGESTS],
)
def test_graph_stdout_is_byte_stable(tmp_path, args, digest):
    path = tmp_path / "graph7.txt"
    path.write_text(GRAPH7)
    code, out = run_cli([str(path) if a == "GRAPH7" else a for a in args])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_huge_integers_print_whole(self, fmt, default_int_str_limit):
        code, out = run_cli(["count", "--m", "2", "--n", "3000", "--format", fmt])
        assert code == 0
        if fmt == "json":
            [rec] = json.loads(out)
            rec = {k: str(v) for k, v in rec.items()}
        else:
            header, row = out.splitlines()
            sep = "," if fmt == "csv" else None
            rec = dict(zip(header.split(sep), row.split(sep)))
        assert rec["dt"] == str(counting.dt_invariant(2, 3000))
        residue_tuples = knm.residue_count(knm.KnmParams(2, 3000))
        assert rec["residue_tuples"] == str(residue_tuples)
        assert len(rec["residue_tuples"]) > 4300  # past the default limit

    def test_raised_budget_reaches_the_scans(self, monkeypatch):
        seen = {}
        for name in ("enumerate_residue_tuples", "enumerate_break_bruteforce"):
            real = getattr(knm, name)

            def record(p, budget=knm.DEFAULT_SET_BUDGET, name=name, real=real):
                seen[name] = budget
                return real(p, budget)

            monkeypatch.setattr(knm, name, record)
        code, _ = run_cli(
            ["count", "--m", "2", "--n", "3", "--budget", "8000000", "--format", "json"]
        )
        assert code == 0
        assert seen == {
            "enumerate_residue_tuples": 8_000_000,
            "enumerate_break_bruteforce": 8_000_000,
        }

    def test_wrong_bruteforce_count_exit_4(self, monkeypatch):
        real = knm.enumerate_break_bruteforce
        monkeypatch.setattr(
            knm, "enumerate_break_bruteforce", lambda p, budget: real(p, budget)[1:]
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

    def test_over_budget_drops_bruteforce_column(self, capsys):
        code, out = run_cli(
            ["character", "--m", "2", "--n", "4", "--budget", "10",
             "--format", "json"]
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 5
        assert all("bruteforce" not in r for r in records)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("note: ")
        assert "|Break| = 128 exceeds budget 10" in err[0]

    @pytest.mark.parametrize(
        "flags, error",
        [(["--m", "1", "--n", "30", "--budget", "1000"],
          "|partitions of 30| >= 1002 exceeds budget 1000"),
         (["--m", "2", "--n", "100"],
          "|partitions of 100| >= 2012558 exceeds budget 2000000"),
         (["--m", "2", "--n", "3", "--budget", "0"],
          "|partitions of 3| >= 1 exceeds budget 0")],
        ids=["n30-budget1000", "n100", "budget0"],
    )
    def test_partitions_over_budget_print_nothing(self, capsys, flags, error):
        code, out = run_cli(["character", *flags])
        assert code == cli.EXIT_BUDGET
        assert out == ""
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_within_budget_prints_no_note(self, capsys):
        run_cli(["character", "--m", "2", "--n", "4", "--format", "json"])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "m, n, flags",
        [(1, 1, ["--budget", "1"]), (2, 3, ["--budget", "12"]),
         (1000, 2, ["--budget", "1000"]), (10**6, 2, [])],
        ids=["n1-budget1", "n3-budget12", "n2-budget1000", "n2-m1000000"],
    )
    def test_break_within_budget_prints_every_column(self, capsys, m, n, flags):
        # |Break| <= budget (|Break| = m at n = 2), so the Break DP runs
        # too, though its state-space bound exceeds |Break|
        code, out = run_cli(
            ["character", "--m", str(m), "--n", str(n), *flags, "--format", "json"]
        )
        assert code == 0
        records = json.loads(out)
        rows = [r for r in records if r["cycle_type"].startswith("(")]
        assert len(rows) == len(reptheory.partitions_of(n))
        assert all(r["bruteforce"] == r["closed"] for r in rows)
        assert len(records) == len(rows) + (1 if n == 1 else 3)
        assert capsys.readouterr().err == ""


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
        "flags", [["--m", "0"], ["--n", "0"], ["--m", "-2"]], ids=" ".join
    )
    def test_range_below_1_is_a_usage_error(self, flags):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--only", "cardinalities", *flags])
        assert exc.value.code == 2

    @pytest.mark.parametrize("suite", ["module-isomorphisms", "knm-vs-multigraph"])
    def test_empty_scope_fails(self, suite):
        code, out = run_cli(["verify", "--only", suite, "--n", "1", "--format", "json"])
        assert code == cli.EXIT_VERIFY
        records = json.loads(out)
        assert len(records) >= 2
        for r in records:
            assert r["verdict"] == "FAIL"
            assert r["detail"].startswith("empty scope: ")
            assert "2 <= n <= 1" in r["detail"]

    def test_library_suites_fail_on_m_below_1(self):
        results = verify.run_suites(
            only=["shift-classes", "cardinalities", "orbit-counts", "characters",
                  "dt-two-routes"],
            m_max=0,
        )
        assert len(results) == 7
        for _, ok, detail in results:
            assert not ok
            assert detail.startswith("empty scope: 1 <= m <= 0")

    def test_suite_over_the_series_cap_fails_and_the_run_goes_on(self):
        code, out = run_cli(
            ["verify", "--only", "orbit-counts", "--only", "dt-two-routes",
             "--n", "30", "--format", "json"]
        )
        assert code == cli.EXIT_VERIFY
        cap = counting.MAX_SERIES_ORDER
        assert json.loads(out) == [
            {"invariant": "orbit-count-three-routes", "verdict": "PASS",
             "detail": "m <= 4, n <= 30"},
            {"invariant": "dt-two-routes", "verdict": "FAIL",
             "detail": f"over budget: series order 30 exceeds cap {cap}"},
        ]

    def test_suite_over_budget_fails_and_the_run_goes_on(self):
        code, out = run_cli(
            ["verify", "--only", "orbit-counts", "--only", "cardinalities",
             "--n", "12", "--format", "json"]
        )
        assert code == cli.EXIT_VERIFY
        assert json.loads(out) == [
            {"invariant": "orbit-count-three-routes", "verdict": "PASS",
             "detail": "m <= 4, n <= 12"},
            {"invariant": "cardinalities", "verdict": "FAIL",
             "detail": "over budget: |D| = 2097152 exceeds budget 2000000"},
        ]

    # The four module suites printed these rows before they checked their
    # cases' budgets up front, after 1 to over 60 s of work on the cases
    # within budget.  knm-vs-multigraph had no budget: --n 12 would scan
    # about 10^12 compositions.
    @pytest.mark.parametrize("suite, flag, value, size", [
        ("cardinalities", "--n", "12", "|D| = 2097152"),
        ("characters", "--n", "12", "|Break| = 4782969"),
        ("shift-classes", "--n", "12", "|D| = 2097152"),
        ("module-isomorphisms", "--n", "12", "|D| = 2097152"),
        ("knm-vs-multigraph", "--n", "12", "|[0, 7]^7| = 2097152"),
        ("cardinalities", "--m", "50", "|D| = 2560000"),
        ("characters", "--m", "50", "|Break| = 4050000"),
        ("shift-classes", "--m", "50", "|D| = 2560000"),
        ("module-isomorphisms", "--m", "50", "|D| = 2097152"),
        ("knm-vs-multigraph", "--m", "50", "|compositions of 231 into 4 parts| = 2108184"),
    ])
    def test_suite_over_budget_fails_before_its_first_case(self, suite, flag, value, size):
        start = time.perf_counter()
        code, out = run_cli(["verify", "--only", suite, flag, value, "--format", "json"])
        assert time.perf_counter() - start < 2
        assert code == cli.EXIT_VERIFY
        assert json.loads(out) == [{
            "invariant": suite, "verdict": "FAIL",
            "detail": f"over budget: {size} exceeds budget 2000000",
        }]

    @pytest.mark.parametrize("error", [InternalInvariantError, PreconditionError])
    def test_library_fault_in_a_suite_fails_and_the_run_goes_on(
        self, monkeypatch, error
    ):
        def broken():
            raise error("class key out of range")

        monkeypatch.setitem(verify.SUITES, "shift-classes", broken)
        code, out = run_cli(
            ["verify", "--only", "shift-classes", "--only", "orbit-counts",
             "--format", "json"]
        )
        assert code == cli.EXIT_VERIFY
        first, second = json.loads(out)
        assert first == {"invariant": "shift-classes", "verdict": "FAIL",
                         "detail": "internal error: class key out of range"}
        assert second["invariant"] == "orbit-count-three-routes"
        assert second["verdict"] == "PASS"

    def test_random_graphs_fail_names_the_first_counterexample(self, monkeypatch):
        real = multigraph.is_break_divisor

        def is_break_divisor(g, d):
            return not real(g, d)

        monkeypatch.setattr(multigraph, "is_break_divisor", is_break_divisor)
        g = verify.random_connected_multigraph(random.Random(0))
        gen = multigraph.genus(g)
        d = next(knm.compositions(gen, g.n, gen))
        code, out = run_cli(["verify", "--only", "random-graphs", "--format", "json"])
        assert code == cli.EXIT_VERIFY
        oracle, count = json.loads(out)
        assert oracle == {
            "invariant": "break-equals-orientability-on-random-graphs",
            "verdict": "FAIL",
            "detail": "100 graphs, seed 0; first counterexample: graph "
            f"{multigraph.format_graph_file(g)!r}, divisor {d}: "
            f"is_break_divisor {not real(g, d)}, break_via_orientability {real(g, d)}",
        }
        assert count["verdict"] == "PASS"
        assert count["detail"] == "100 graphs, seed 0"

    def test_break_count_fail_names_the_graph_and_both_counts(self, monkeypatch):
        real = multigraph.spanning_tree_count
        monkeypatch.setattr(multigraph, "spanning_tree_count", lambda g: real(g) + 1)
        g = verify.random_connected_multigraph(random.Random(3))
        trees = real(g)
        [_, count] = verify.suite_random_graphs(seed=3)
        assert count == (
            "break-count-equals-spanning-trees", False,
            "100 graphs, seed 3; first counterexample: graph "
            f"{multigraph.format_graph_file(g)!r}, counts: "
            f"enumerate_break_divisors {trees}, spanning_tree_count {trees + 1}",
        )

    def test_knm_vs_multigraph_fail_names_the_first_counterexample(self, monkeypatch):
        real = multigraph.is_g_parking

        def is_g_parking(g, q, values):
            return real(g, q, values) != (values == (1, 0))

        monkeypatch.setattr(multigraph, "is_g_parking", is_g_parking)
        code, out = run_cli(
            ["verify", "--only", "knm-vs-multigraph", "--format", "json"]
        )
        assert code == cli.EXIT_VERIFY
        assert json.loads(out) == [
            {"invariant": "break-dominance-vs-subset-test", "verdict": "PASS",
             "detail": "m <= 2, n <= 4"},
            {"invariant": "parking-vector-vs-subset-test", "verdict": "FAIL",
             "detail": "m <= 2, n <= 4; first counterexample: graph "
             "'3\\n1 2 1\\n1 3 1\\n2 3 1\\n', q 2 (0-based), values (1, 0): "
             "is_parking_mn True, is_g_parking False"},
        ]

    def test_knm_break_fail_names_the_first_counterexample(self, monkeypatch):
        real = multigraph.is_break_divisor

        def is_break_divisor(g, d):
            return real(g, d) != (d == (0, 0))

        monkeypatch.setattr(multigraph, "is_break_divisor", is_break_divisor)
        [broken, parking] = verify.suite_knm_vs_multigraph()
        assert broken == (
            "break-dominance-vs-subset-test", False,
            "m <= 2, n <= 4; first counterexample: graph '2\\n1 2 1\\n', "
            "divisor (0, 0): is_break_mn True, is_break_divisor False",
        )
        assert parking == ("parking-vector-vs-subset-test", True, "m <= 2, n <= 4")

    def test_characters_fail_names_the_first_counterexample(self, monkeypatch):
        real = reptheory.character_break_closed
        monkeypatch.setattr(
            reptheory, "character_break_closed",
            lambda m, n, lam: real(m, n, lam) + ((m, n) == (2, 3)),
        )
        code, out = run_cli(["verify", "--only", "characters", "--format", "json"])
        assert code == cli.EXIT_VERIFY
        assert json.loads(out) == [
            {"invariant": "closed-character-vs-bruteforce", "verdict": "FAIL",
             "detail": "m <= 3, n <= 6; first counterexample: m 2, n 3, "
             "cycle type (3,): character_break_closed 1, character_break_bruteforce 0"},
            {"invariant": "orbit-character-vs-bruteforce", "verdict": "PASS",
             "detail": "m <= 3, n <= 6"},
        ]

    def test_orbit_character_fail_names_the_park_module(self, monkeypatch):
        # the Park module of knm_modules against the restricted scan
        real = reptheory.knm_modules

        def knm_modules(p, budget=knm.DEFAULT_SET_BUDGET):
            modules = real(p, budget)
            if (p.m, p.n) != (2, 3):
                return modules
            chi = {**modules.parks.character, (2,): modules.parks.character[(2,)] + 1}
            return modules._replace(parks=modules.parks._replace(character=chi))

        monkeypatch.setattr(reptheory, "knm_modules", knm_modules)
        assert verify.suite_characters() == [
            ("closed-character-vs-bruteforce", True, "m <= 3, n <= 6"),
            ("orbit-character-vs-bruteforce", False,
             "m <= 3, n <= 6; first counterexample: m 2, n 3, cycle type (2,): "
             "parking_orbit_types 3, restricted character_break_bruteforce 2"),
        ]

    def test_restriction_fail_names_the_first_counterexample(self, monkeypatch):
        real = reptheory.character_parking

        def character_parking(m, n):
            chi = real(m, n)
            if (m, n) == (2, 3):
                chi[(1, 1)] += 1
            return chi

        monkeypatch.setattr(reptheory, "character_parking", character_parking)
        iso, res, triv = verify.suite_module_isomorphisms()
        assert iso == ("break-module-vs-shift-class-module", True, "m <= 2, n <= 4")
        assert res == (
            "restriction-equals-parking-module", False,
            "m <= 2, n <= 4; first counterexample: m 2, n 3, cycle type (1, 1): "
            "restrict_character 12, character_parking 13, parking_orbit_types 12",
        )
        assert triv == ("trivial-multiplicity-equals-dt", True, "m <= 2, n <= 4")

    def test_trivial_multiplicity_fail_names_every_value(self, monkeypatch):
        real = counting.dt_invariant
        monkeypatch.setattr(
            counting, "dt_invariant", lambda m, n: real(m, n) + ((m, n) == (2, 3))
        )
        triv = verify.suite_module_isomorphisms()[2]
        assert triv == (
            "trivial-multiplicity-equals-dt", False,
            "m <= 2, n <= 4; first counterexample: m 2, n 3: trivial_multiplicity 3, "
            "dt_invariant 4, scanned break orbits 3, count_break_types 3",
        )

    def test_module_isomorphisms_runs_the_break_dp_once_a_case(self, monkeypatch):
        """The orbit count of the trivial-multiplicity row is read from the
        Break orbit types that `knm_modules` counted, not counted again."""
        real, calls = knm.count_break_types, []

        def count_break_types(p):
            calls.append((p.m, p.n))
            return real(p)

        def break_orbit_types(*args):
            raise AssertionError("break_orbit_types called")

        monkeypatch.setattr(knm, "count_break_types", count_break_types)
        monkeypatch.setattr(knm, "break_orbit_types", break_orbit_types)
        assert all(ok for _, ok, _ in verify.suite_module_isomorphisms())
        assert calls == [(m, n) for m in (1, 2) for n in (2, 3, 4)]

    def test_characters_read_the_break_scan_once_a_case(self, monkeypatch):
        """The scanned Break character of a case comes from one read of the
        candidate scan, not one per cycle type."""
        real, calls = knm.enumerate_break_bruteforce, []

        def enumerate_break_bruteforce(p, *args):
            calls.append((p.m, p.n))
            return real(p, *args)

        monkeypatch.setattr(knm, "enumerate_break_bruteforce", enumerate_break_bruteforce)
        assert all(ok for _, ok, _ in verify.suite_characters())
        assert calls == [(m, n) for m in (1, 2, 3) for n in range(1, 7)]

    def test_shift_class_fail_names_the_class_and_both_members(self, monkeypatch):
        real = knm.break_representative

        def break_representative(p, x):
            if (p.m, p.n) == (2, 3):
                return knm.shift_class(p, x)[-1]
            return real(p, x)

        monkeypatch.setattr(knm, "break_representative", break_representative)
        assert verify.suite_shift_classes() == [(
            "shift-class-structure", False,
            "m <= 3, n <= 5; first counterexample: m 2, n 3, class (0, 0, 4): "
            "break_representative (4, 4, 2), break member (2, 2, 0)",
        )]

    def test_shift_class_fail_names_the_first_class_the_generator_gets_wrong(
            self, monkeypatch):
        # the break member of one classes record is the class's last
        # member; a FAIL names the texts of break_rep, class_key, members
        # and parking_rep of the record and of the scanned class
        real = knm.shift_classes

        def shift_classes(p, budget=knm.DEFAULT_SET_BUDGET, *, records=False):
            for item in real(p, budget, records=records):
                if records and (p.m, p.n) == (2, 3) and item[3:6] == ("(0,", 1, 3):
                    item = (*item[-4:-1], *item[3:])
                yield item

        monkeypatch.setattr(knm, "shift_classes", shift_classes)
        assert verify.suite_shift_classes() == [(
            "shift-class-structure", False,
            "m <= 3, n <= 5; first counterexample: m 2, n 3, class (0, 1, 3): "
            "record (4,5,1) (0,1,3) (0,1,3);(2,3,5);(4,5,1) (0,1), "
            "scanned (0,1,3) (0,1,3) (0,1,3);(2,3,5);(4,5,1) (0,1)",
        )]

    def test_shift_class_fail_names_a_residue_record_and_both_texts(self, monkeypatch):
        # the class-key int of one residue record off by one
        real = knm.enumerate_residue_tuples

        def enumerate_residue_tuples(p, budget=knm.DEFAULT_SET_BUDGET, *, records=False):
            for item in real(p, budget, records=records):
                if records and (p.m, p.n) == (2, 3) and item[-2:] == (1, 3):
                    item = (item[0], item[1] + 1, *item[2:])
                yield item

        monkeypatch.setattr(knm, "enumerate_residue_tuples", enumerate_residue_tuples)
        assert verify.suite_shift_classes() == [(
            "shift-class-structure", False,
            "m <= 3, n <= 5; first counterexample: m 2, n 3, tuple (0, 1, 3): "
            "record class_key (0,2,3), class_key (0,1,3), "
            "record tuple (0,1,3), tuple (0,1,3)",
        )]

    def test_cardinalities_fail_names_every_count(self, monkeypatch):
        real = knm.break_count
        monkeypatch.setattr(knm, "break_count", lambda p: real(p) + ((p.m, p.n) == (2, 3)))
        assert verify.suite_cardinalities() == [
            ("cardinalities", False,
             "m <= 3, n <= 5; first counterexample: m 2, n 3: "
             "break_count 13, enumerate_break 12, enumerate_parking 12"),
            ("orbit-enumeration-equals-scan", True, "m <= 3, n <= 5"),
        ]

    def test_scan_fail_names_the_first_differing_entry(self, monkeypatch):
        real = knm.enumerate_parking_bruteforce

        def enumerate_parking_bruteforce(p, budget=knm.DEFAULT_SET_BUDGET):
            parks = real(p, budget)
            return parks[1:] if (p.m, p.n) == (2, 3) else parks

        monkeypatch.setattr(knm, "enumerate_parking_bruteforce", enumerate_parking_bruteforce)
        assert verify.suite_cardinalities() == [
            ("cardinalities", True, "m <= 3, n <= 5"),
            ("orbit-enumeration-equals-scan", False,
             "m <= 3, n <= 5; first counterexample: m 2, n 3, entry 0: "
             "enumerate_parking (0, 0), enumerate_parking_bruteforce (0, 1)"),
        ]

    def test_orbit_count_fail_names_all_three_routes(self, monkeypatch):
        real = counting.orbit_count_D_split
        monkeypatch.setattr(
            counting, "orbit_count_D_split", lambda m, n: real(m, n) + ((m, n) == (2, 3))
        )
        code, out = run_cli(["verify", "--only", "orbit-counts", "--format", "json"])
        assert code == cli.EXIT_VERIFY
        assert json.loads(out) == [
            {"invariant": "orbit-count-three-routes", "verdict": "FAIL",
             "detail": "m <= 4, n <= 12; first counterexample: m 2, n 3: orbit_count_D 9, "
             "orbit_count_D_von_sterneck 9, orbit_count_D_split 10"},
        ]

    def test_dt_fail_names_both_routes_and_the_closed_form(self, monkeypatch):
        real = counting.dt_via_formal_log

        def dt_via_formal_log(m, n_max):
            return {n: v + ((m, n) == (2, 3)) for n, v in real(m, n_max).items()}

        monkeypatch.setattr(counting, "dt_via_formal_log", dt_via_formal_log)
        assert verify.suite_dt_two_routes() == [(
            "dt-euler-product-vs-closed-form", False,
            f"m <= 3, n <= {counting.MAX_SERIES_ORDER}; first counterexample: m 2, n 3: "
            "dt_via_euler_product 3, dt_via_formal_log 4, dt_invariant 3",
        )]

    def test_theorems_by_orbit_types_suite(self):
        code, out = run_cli(
            ["verify", "--only", "theorems-by-orbit-types", "--format", "json"]
        )
        assert code == cli.EXIT_OK
        assert json.loads(out) == [
            {"invariant": name, "verdict": "PASS", "detail": "m <= 3, n <= 12"}
            for name in ("orbit-types-count-dt", "orbit-type-character-equals-closed",
                         "orbit-type-restriction-equals-parking")
        ]

    def test_theorems_by_orbit_types_honour_m_and_n(self):
        dt, chi, res = verify.run_suites(
            only=["theorems-by-orbit-types"], m_max=1, n_max=16)
        assert dt == ("orbit-types-count-dt", True, "m <= 1, n <= 16")
        assert chi[1] and res[1]

    @pytest.mark.parametrize(
        "n, error",
        [("40", "|Break orbit-type state space| >= 2013788 exceeds budget 2000000"),
         ("24", "|partitions of 24 x partitions of 24| = 2480625 exceeds budget 2000000")],
        ids=["state-space", "character-pairs"],
    )
    def test_theorems_by_orbit_types_over_budget_fails_at_once(self, n, error):
        # the largest case is checked before the first, so no case runs
        code, out = run_cli(
            ["verify", "--only", "theorems-by-orbit-types", "--only", "orbit-counts",
             "--m", "1", "--n", n, "--format", "json"]
        )
        assert code == cli.EXIT_VERIFY
        assert json.loads(out) == [
            {"invariant": "theorems-by-orbit-types", "verdict": "FAIL",
             "detail": f"over budget: {error}"},
            {"invariant": "orbit-count-three-routes", "verdict": "PASS",
             "detail": f"m <= 1, n <= {n}"},
        ]

    def test_theorems_by_orbit_types_fail_names_every_value(self, monkeypatch):
        real_closed, real_dt = reptheory.character_break_closed, counting.dt_invariant
        monkeypatch.setattr(
            reptheory, "character_break_closed",
            lambda m, n, lam: real_closed(m, n, lam) + ((m, n, lam) == (2, 9, (3, 3, 3))),
        )
        monkeypatch.setattr(
            counting, "dt_invariant", lambda m, n: real_dt(m, n) + ((m, n) == (3, 11))
        )
        dt, chi, res = verify.suite_theorems_by_orbit_types()
        assert dt == (
            "orbit-types-count-dt", False,
            "m <= 3, n <= 12; first counterexample: m 3, n 11: "
            f"break_orbit_types {real_dt(3, 11)}, dt_invariant {real_dt(3, 11) + 1}",
        )
        assert chi == (
            "orbit-type-character-equals-closed", False,
            "m <= 3, n <= 12; first counterexample: m 2, n 9, cycle type (3, 3, 3): "
            "break_orbit_types 0, character_break 1",
        )
        assert res == ("orbit-type-restriction-equals-parking", True, "m <= 3, n <= 12")

    def test_theorems_by_orbit_types_restriction_fail(self, monkeypatch):
        real = knm.parking_orbit_types

        def parking_orbit_types(p, budget=knm.DEFAULT_SET_BUDGET):
            h = real(p, budget)
            if (p.m, p.n) == (1, 12):
                h[(11,)] += 1
            return h

        monkeypatch.setattr(knm, "parking_orbit_types", parking_orbit_types)
        _, _, res = verify.suite_theorems_by_orbit_types()
        assert res == (
            "orbit-type-restriction-equals-parking", False,
            "m <= 3, n <= 12; first counterexample: m 1, n 12, cycle type (11,): "
            "restrict_character 1, parking_orbit_types 2",
        )

    def test_subset_kernel_suite(self):
        code, out = run_cli(["verify", "--only", "subset-kernel", "--format", "json"])
        assert code == cli.EXIT_OK
        assert json.loads(out) == [
            {"invariant": "packed-orientable-vs-orientation-scan", "verdict": "PASS",
             "detail": "50 graphs with at most 12 edges, seed 0"},
            {"invariant": "packed-break-vs-subset-list", "verdict": "PASS",
             "detail": "50 graphs, seed 0"},
        ]

    @pytest.mark.parametrize(
        "name, check",
        [("is_orientable", "packed-orientable-vs-orientation-scan"),
         ("is_break_divisor", "packed-break-vs-subset-list")],
    )
    def test_subset_kernel_suite_fails_on_a_broken_predicate(
        self, monkeypatch, name, check
    ):
        real = getattr(multigraph, name)

        def flipped(g, d):
            return not real(g, d)

        flipped.__name__ = name
        monkeypatch.setattr(multigraph, name, flipped)
        failed = [r for r in verify.suite_subset_kernel() if not r[1]]
        assert [r[0] for r in failed] == [check]
        assert "; first counterexample: graph '" in failed[0][2]
        assert f": {name} " in failed[0][2]

    def test_dt_routes_cover_the_series_cap(self):
        code, out = run_cli(["verify", "--only", "dt-two-routes", "--format", "json"])
        assert code == 0
        [record] = json.loads(out)
        assert record["verdict"] == "PASS"
        assert record["detail"] == f"m <= 3, n <= {counting.MAX_SERIES_ORDER}"


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


BAD_NUMERIC_FLAGS = [
    (["enumerate", "--m", "0", "--n", "3"], "--m: must be >= 1, got 0"),
    (["count", "--m", "-1", "--n", "3"], "--m: must be >= 1, got -1"),
    (["character", "--m", "0", "--n", "3"], "--m: must be >= 1, got 0"),
    (["dt", "--m", "0", "--n-max", "3"], "--m: must be >= 1, got 0"),
    (["enumerate", "--m", "2", "--n", "0"], "--n: must be >= 1, got 0"),
    (["count", "--m", "2", "--n", "-4"], "--n: must be >= 1, got -4"),
    (["character", "--m", "2", "--n", "0"], "--n: must be >= 1, got 0"),
    (["dt", "--m", "2", "--n-max", "0"], "--n-max: must be >= 1, got 0"),
    (["dt", "--m", "2", "--n-max", "-3"], "--n-max: must be >= 1, got -3"),
    (["enumerate", "--m", "2", "--n", "3", "--budget", "-1"],
     "--budget: must be >= 0, got -1"),
    (["count", "--m", "2", "--n", "3", "--budget", "-1"],
     "--budget: must be >= 0, got -1"),
    (["character", "--m", "2", "--n", "3", "--budget", "-5"],
     "--budget: must be >= 0, got -5"),
    (["enumerate", "--m", "2", "--n", "x"], "--n: invalid int value: 'x'"),
]


@pytest.mark.parametrize(
    "args, message", BAD_NUMERIC_FLAGS,
    ids=[" ".join(args) for args, _ in BAD_NUMERIC_FLAGS],
)
def test_bad_numeric_flag_is_a_usage_error(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        run_cli([*args, "--format", "json"])
    assert exc.value.code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: breakpark {args[0]} ")
    assert err.endswith(f"breakpark {args[0]}: error: argument {message}\n")


def test_budget_zero_is_a_budget_not_a_usage_error():
    code, out = run_cli(["enumerate", "--m", "2", "--n", "3", "--budget", "0"])
    assert code == cli.EXIT_BUDGET
    assert out == ""


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

    # A suite with a bug raises what no `run_suites` handler expects; once
    # that left `main` with exit 1 and a traceback.
    BUGGY_SUITE = """
import sys
from breakpark import cli, verify
def buggy():
    return 1 // 0
verify.SUITES["dt-two-routes"] = buggy
sys.exit(cli.main(["verify", "--only", "dt-two-routes"]))
"""
    BUG_LINE = "error: internal error: ZeroDivisionError: integer division or modulo by zero\n"

    def test_bug_in_a_suite_exits_5_one_line(self, monkeypatch, capsys):
        monkeypatch.setitem(verify.SUITES, "dt-two-routes", lambda: 1 // 0)
        code, out = run_cli(["verify", "--only", "dt-two-routes"])
        assert (code, out, capsys.readouterr().err) == (cli.EXIT_INTERNAL, "", self.BUG_LINE)

    def test_bug_in_a_suite_prints_no_traceback(self):
        proc = subprocess.run([sys.executable, "-c", self.BUGGY_SUITE],
                              capture_output=True, text=True, env=cli_env())
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            cli.EXIT_INTERNAL, "", self.BUG_LINE)


def json_reference(records):
    return json.dumps(records, sort_keys=True) + "\n"


def csv_reference(records):
    out = io.StringIO()
    if records:
        writer = csv.DictWriter(out, fieldnames=list(records[0]))
        writer.writeheader()
        writer.writerows(records)
    return out.getvalue()


def pretty_reference(records):
    """The pretty table as `emit` wrote it before records were streamed."""
    out = io.StringIO()
    if records:
        keys = list(records[0])
        widths = {
            k: max(len(k), *(len(str(r.get(k, ""))) for r in records))
            for k in keys
        }
        out.write("  ".join(k.ljust(widths[k]) for k in keys).rstrip() + "\n")
        for r in records:
            out.write(
                "  ".join(str(r.get(k, "")).ljust(widths[k]) for k in keys).rstrip()
                + "\n"
            )
    return out.getvalue()


REFERENCES = {"json": json_reference, "csv": csv_reference, "pretty": pretty_reference}


@st.composite
def record_lists(draw):
    """Up to 5 records with one key set.  Values are ints of up to 600
    digits or strings with non-ASCII characters: the value types of every
    command's records."""
    keys = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4,
                         unique=True))
    value = st.one_of(
        st.integers(),
        st.integers(min_value=-(10**600), max_value=10**600),
        st.text(max_size=12),
        st.sampled_from(["(3,1,0)", "Δ²", "h21 + s3", ""]),
    )
    return draw(st.lists(st.fixed_dictionaries({k: value for k in keys}), max_size=5))


class TestEmit:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(record_lists(), st.sampled_from(["json", "csv", "pretty"]),
           st.sampled_from([list, lambda rs: (r for r in rs)]))
    def test_bytes_equal_the_whole_list_encoders(self, records, fmt, container):
        out = io.StringIO()
        cli.emit(container(records), fmt, out)
        assert out.getvalue() == REFERENCES[fmt](records)

    # json dict records, the short lists of count, character, dt and
    # verify, are encoded whole; only csv streams them
    @pytest.mark.parametrize("fmt", ["csv"])
    def test_records_are_written_as_they_come(self, fmt):
        records = [{"divisor": f"({k},0)", "rank": k, "name": "é" * k} for k in range(5)]
        out = io.StringIO()

        def stream():
            for k, record in enumerate(records):
                if k:  # record k-1 is on the stream before record k is built
                    assert out.getvalue() == csv_reference(records[:k])
                yield record

        cli.emit(stream(), fmt, out)
        assert out.getvalue() == REFERENCES[fmt](records)


def reference_fmt_tuple(t):
    """The tuple formatting of the CLI before its cached `%` templates."""
    return "(" + ",".join(map(str, t)) + ")"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(),
                          st.integers(min_value=-(10**300), max_value=10**300)),
                max_size=8).map(tuple))
def test_fmt_tuple_equals_its_reference(t):
    assert knm.tuple_template(len(t)) % tuple(t) == reference_fmt_tuple(t)


class TestFlatMemory:
    """`enumerate` generates its set as it writes it: the peak of traced
    allocations stays far below the size of the set."""

    @pytest.mark.parametrize(
        "set_name, m, n, limit_mb",
        [(s, m, n, 1.0) for s in ("residue", "classes") for m, n in [(3, 5), (10, 4), (50, 3)]]
        + [(s, m, n, 0.25) for s in ("break", "park") for m, n in [(4, 5), (10, 4), (50, 3)]],
    )
    def test_peak_allocation(self, monkeypatch, set_name, m, n, limit_mb):
        args = ["enumerate", "--set", set_name, "--m", str(m), "--n", str(n),
                "--format", "json"]
        with open(os.devnull, "w") as null, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", null)
            tracemalloc.start()
            try:
                code = cli.main(args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < limit_mb * 2**20

    @pytest.mark.parametrize("m, n", [(3, 5), (4, 4), (2, 6)])
    def test_classes_leave_nothing_behind(self, monkeypatch, m, n):
        # After the walk only a few KB stay traced.  A record of 20 items
        # once left about 2,000 row tuples, 389 KB, on the tuple free
        # list, and lifted the command's peak RSS.  A full collection
        # empties the free lists first, so each tuple the walk frees onto
        # them was allocated under the trace.
        args = ["enumerate", "--set", "classes", "--m", str(m), "--n", str(n),
                "--format", "json"]
        with open(os.devnull, "w") as null, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", null)
            gc.collect()
            tracemalloc.start()
            try:
                code = cli.main(args)
                current = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert current < 64 * 2**10

    @pytest.mark.parametrize("m, n", [(4, 5), (10, 4), (50, 3)])
    def test_break_and_park_walks_hold_no_set(self, m, n):
        p = knm.KnmParams(m, n)
        tracemalloc.start()
        try:
            for generate in (knm.enumerate_break, knm.enumerate_parking):
                for _ in generate(p):
                    pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 2**20

    def test_residue_generators_copy_nothing_of_size_n(self):
        # |D| = 2*10^6 is within the default budget; three items each
        p = knm.KnmParams(10**6, 2)
        tracemalloc.start()
        try:
            for generate in (knm.enumerate_residue_tuples,
                             knm.shift_classes,
                             lambda p: knm.shift_classes(p, records=True),
                             lambda p: knm.enumerate_residue_tuples(p, records=True)):
                items = generate(p)
                for _ in range(3):
                    next(items)
                del items
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


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


def cli_env():
    """The environment of a `python -m breakpark.cli` child: this source
    tree first, and stdout block-buffered, as it is for users."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env.pop("PYTHONUNBUFFERED", None)
    return env


# Stdlib modules CLI start-up must not load: each adds milliseconds to
# every command.
HEAVY_STDLIB = ("dataclasses", "inspect", "fractions", "decimal", "numbers", "csv")

# Run in a fresh interpreter; whatever `site` loaded before the snapshot
# does not count.
IMPORT_GUARD = """
import io, json, sys
before = set(sys.modules)
from breakpark import cli
imported = sorted(set(sys.modules) - before)
out, sys.stdout = sys.stdout, io.StringIO()
code = cli.main(json.loads(sys.argv[1]))
sys.stdout = out
ran = sorted(set(sys.modules) - before)
print(json.dumps({"code": code, "imported": imported, "ran": ran}))
"""


def import_report(args):
    """The modules a fresh interpreter loads for `from breakpark import
    cli`, and after `cli.main(args)`."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, json.dumps(args)],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == cli.EXIT_OK
    return report


def test_startup_imports_no_heavy_stdlib():
    report = import_report(["dt", "--m", "3", "--n-max", "24", "--format", "json"])
    assert "breakpark.counting" in report["imported"]
    assert [m for m in HEAVY_STDLIB if m in report["imported"]] == []
    assert "fractions" not in report["ran"]


# Each form of command the benchmark runs, at a small size; GRAPH7
# stands for a graph file.
BENCHMARK_FORMS = {
    "dt": ["dt", "--m", "3", "--n-max", "24"],
    "character": ["character", "--m", "2", "--n", "5"],
    "count-graph": ["count", "--graph", "GRAPH7"],
    "enumerate-graph": ["enumerate", "--graph", "GRAPH7"],
    "verify-graphs": ["verify", "--only", "random-graphs", "--only",
                      "knm-vs-multigraph", "--seed", "0"],
    **{f"enumerate-{s}": ["enumerate", "--set", s, "--m", "2", "--n", "3"]
       for s in ("break", "park", "residue", "classes")},
}

# The argument parser and the json encoder, with the modules argparse's
# messages load; a well-formed command needs none of them.
PARSER_AND_JSON = ("argparse", "gettext", "locale", "json", "_json")

# Reports on stderr, since `IMPORT_GUARD` itself imports `json`.
PARSER_GUARD = """
import os, sys
before = set(sys.modules)
from breakpark import cli
sys.stdout = open(os.devnull, "w")
code = cli.main(sys.argv[1:])
loaded = set(sys.modules) - before
sys.stderr.write(repr([m for m in {modules!r} if m in loaded]))
sys.exit(code)
""".format(modules=PARSER_AND_JSON)


@pytest.mark.parametrize("form", BENCHMARK_FORMS)
def test_benchmark_forms_load_no_parser_or_json(tmp_path, form):
    """`main` parses these argvs from `COMMANDS` and `emit` writes their
    json itself, so none loads argparse or json."""
    path = tmp_path / "graph7.txt"
    path.write_text(GRAPH7)
    args = [str(path) if a == "GRAPH7" else a for a in BENCHMARK_FORMS[form]]
    proc = subprocess.run(
        [sys.executable, "-c", PARSER_GUARD, *args, "--format", "json"],
        capture_output=True, text=True, env=cli_env(),
    )
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "[]")


def test_graph_verify_suites_import_no_heavy_stdlib():
    report = import_report(
        ["verify", "--only", "random-graphs", "--only", "knm-vs-multigraph",
         "--format", "json"]
    )
    assert [m for m in HEAVY_STDLIB if m in report["ran"]] == []


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "breakpark.cli", "count", "--m", "1", "--n", "2",
         "--format", "json"],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["breaks"] == 1


@pytest.mark.parametrize(
    "args, read, expected",
    [
        # 50,625 csv rows, far more than a pipe holds: the reader stops early.
        (["enumerate", "--set", "residue", "--m", "3", "--n", "5", "--format", "csv"],
         20, cli.EXIT_OK),
        # A failed verdict, short enough to sit in the buffer until the flush.
        (["verify", "--only", "dt-two-routes", "--n", "30"], 0, cli.EXIT_VERIFY),
    ],
    ids=["enumerate", "verify-fail"],
)
def test_closed_stdout_pipe_is_silent(args, read, expected):
    proc = subprocess.Popen(
        [sys.executable, "-m", "breakpark.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    )
    head = proc.stdout.read(read)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == expected
    assert err == b""
    assert len(head) == read


# (argv, exit code, sha256 of the bytes written: stdout for help, stderr
# for a usage error), recorded with COLUMNS=80 before `main` parsed any
# argv without argparse.  Help, usage lines and messages are argparse's
# own, also for the usage errors the handlers find; the layout of help
# differs between Python versions.
PARSER_PINS = [
    (['--help'], 0,
     '07d5a0a8406992fdc9e367d72466e315858bd267943515304d64fca3089e3472'),
    (['enumerate', '--help'], 0,
     'abd39498a88e1f0e5719bba22f3974ea86e2015183a78f57f8b77465e404d3eb'),
    (['count', '--help'], 0,
     'a03fa15332d781944963572f9307600b3499f6dd1bb930f86590d8f74ad5f123'),
    (['character', '--help'], 0,
     '97d9f611a841ae8d3fbded186b5a24ed51fb4f7060bd92f7e55fd17b3eb8c164'),
    (['dt', '--help'], 0,
     '4a4c1511da45bcff008faccd10a211499bcecdf4031e0fa1aaf13be54f679ab0'),
    (['verify', '--help'], 0,
     'e928fc85b17b84c812765d8333527f8397105b675f5dd51cc05078d2bc386c06'),
    (['-h'], 0,
     '07d5a0a8406992fdc9e367d72466e315858bd267943515304d64fca3089e3472'),
    (['dt', '-h'], 0,
     '4a4c1511da45bcff008faccd10a211499bcecdf4031e0fa1aaf13be54f679ab0'),
    ([], 2,
     'bdaa9010d17e17c39f78ddb3f93dc3ce4262411cfa81ad9b4668d6e219084a6b'),
    (['bogus'], 2,
     '4f39cd5728f31da0efeccdcc73b35998800cc4bdc142b758efc5b0b3dd821bad'),
    (['--m', '2'], 2,
     '332b76303012f416a481547b7915991e3f493576832716b0559c768887a41727'),
    (['enumerate', '--set', 'bogus', '--m', '2', '--n', '3'], 2,
     '49f20149169cc148763a28551f7dc155393fbd995cffe946c3597518c57641a9'),
    (['enumerate', '--set', 'park'], 2,
     'ad65ee03ddd5d29f0ae36c3c45c43153614838890659f7ad1def8e36db7be8eb'),
    (['enumerate', '--graph', 'g.txt', '--set', 'park'], 2,
     '1fe73d71827c3699da97bede0a053b7e4abb2fec08d352826c048f2ee7aadccc'),
    (['count', '--graph', 'g.txt', '--m', '2'], 2,
     '497b74a48536372b76c5ac386d9147c8988f52940301ae00f8c0f93894bbd274'),
    (['count', '--m', 'x', '--n', '3'], 2,
     'a03a2a66eedbb5ef57141a4019b8879e3ac7d79cc6a6ab84b2a9211d576f4413'),
    (['count', '--n', '3'], 2,
     'd9c7f4a849c287e50a6f1894e304b904df4eb8e35175b95e0392d8ba69e0e05c'),
    (['character', '--m', '2'], 2,
     'cc5895cd9f4e6962489a12e1b28b3dee1aef85984204b1d7f4a5dfd184b7547f'),
    (['character', '--m', '2', '--n', '3', '--graph', 'g.txt'], 2,
     '713f84d152fef14677841abfc306b2b740278505d182ff09b42755658c985c21'),
    (['dt', '--m', '2'], 2,
     '97875a7bc6a2f0d05f7ded709d7e1be144fd9343841f2cc446138d8d9c27690c'),
    (['dt', '--m'], 2,
     '48abc35a911d1c50c47ef72db5da3c9b1dee37aabab871f7277bdc4954902a88'),
    (['dt', '--m', '-1', '--n-max', '3'], 2,
     '2d81644b450da0574586f2bf1bb04deb2c841bd7d7eda393f30228311cfdbc55'),
    (['dt', '--m', '2', '--n-max', '3', '--seed', '1'], 2,
     'a83a0b8231e3f5686e99691c845fd52913570634b153b55065a5636d19be6aa3'),
    (['verify', '--only', 'nope'], 2,
     '768544010133d6b2221dff13fed273b81b2365c8b14ce094b3e047040185ae72'),
    (['verify', '--m', '0'], 2,
     'f384df249e0762f298638a402938e33ee02da76a7cb989b73d47f75f718794a8'),
    (['verify', '--seed', 'x'], 2,
     '47d24a7dfed457de9f58964f98e483220366608fd1c996ab36a9b8f1aadc59c7'),
    (['verify', '--format', 'xml'], 2,
     'f38e4a05e386c3938a6a4464e0043097d6c6146d43f1ab5ff06e5002b2f9976b'),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="pinned from Python 3.11's argparse")
@pytest.mark.parametrize("args, code, digest", PARSER_PINS,
                         ids=[" ".join(a) or "no-args" for a, _, _ in PARSER_PINS])
def test_help_and_usage_error_bytes(monkeypatch, capsys, args, code, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert (err if code else out) != ""
    assert (out if code else err) == ""
    assert hashlib.sha256((err if code else out).encode()).hexdigest() == digest


ALL_FLAGS = sorted({flag for _, flags in cli.COMMANDS.values() for flag, _ in flags})
ODD_TOKENS = ["--form", "--n-m", "--se", "--on", "-h", "--help", "--bogus", "--", "x"]
ANY_VALUES = ["0", "-1", "-x", "--m", "x", "", "1.5", "json", "xml", "break", "nope",
              "g.txt"]
INT_TEXTS = st.one_of(st.integers(-2, 40).map(str),
                      st.sampled_from(["007", " 4", "+2", "1_0", "٣", "4 "]))


def good_values(spec):
    """Values of the flag's type and choices, most of the time."""
    if spec.get("choices"):
        return st.sampled_from(spec["choices"])
    if spec.get("type"):
        return INT_TEXTS
    return st.sampled_from(["g.txt", "a b", "x=y", "", "dir/g"])


@st.composite
def argvs(draw):
    """COMMAND (--flag VALUE)* from the command's own flags, its required
    ones included, and values of each flag's type and choices; most get
    one change of a form argparse handles otherwise: another command's
    flag, an abbreviation, --flag=VALUE, -h, a stray token, a missing
    value or required flag, or a value that starts with "-", fails to
    convert or misses the choices."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    own = dict(cli.COMMANDS[command][1])
    names = [flag for flag, spec in own.items() if spec.get("required")]
    names += draw(st.lists(st.sampled_from(sorted(own)), max_size=4))
    pairs = [[name, draw(good_values(own[name]))]
             for name in draw(st.permutations(names))]
    change = draw(st.sampled_from(["none", "none", "flag", "value", "equals",
                                   "command", "drop", "cut"]))
    at = draw(st.integers(0, len(pairs)))
    if change == "flag":
        pairs.insert(at, [draw(st.sampled_from(ALL_FLAGS + ODD_TOKENS)),
                          draw(st.sampled_from(ANY_VALUES))])
    elif change == "value" and pairs:
        pairs[at % len(pairs)][1] = draw(st.sampled_from(ANY_VALUES))
    elif change == "equals" and pairs:
        pairs[at % len(pairs)] = ["=".join(pairs[at % len(pairs)])]
    elif change == "drop" and pairs:
        del pairs[at % len(pairs)]
    elif change == "command":
        command = draw(st.sampled_from(["bogus", "-h", "", *cli.COMMANDS]))
    argv = [command, *(token for pair in pairs for token in pair)]
    return argv[:-1] if change == "cut" and pairs else argv


ARGPARSE = cli.build_parser()[0]


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(argvs())
def test_table_parse_equals_argparse_where_it_accepts(argv):
    """Whenever `_parse_table` accepts an argv, argparse accepts it too,
    with the same value for every dest."""
    fast = cli._parse_table(argv)
    if fast is None:
        return
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            parsed = vars(ARGPARSE.parse_args(argv))
    except SystemExit as exc:
        parsed = f"argparse exits with {exc.code}"
    assert vars(fast) == parsed


@pytest.mark.parametrize("form", BENCHMARK_FORMS)
def test_table_parse_accepts_the_benchmark_forms(form):
    assert cli._parse_table([*BENCHMARK_FORMS[form], "--format", "json"]) is not None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.dictionaries(
    st.text(st.characters(max_codepoint=127), max_size=4),
    st.one_of(st.integers(), st.text(st.characters(max_codepoint=127), max_size=6),
              st.booleans(), st.none(), st.floats(allow_nan=False)),
    max_size=4), max_size=4))
def test_json_of_ascii_records_equals_json_dumps(records):
    """`emit` writes records of ints and printable ASCII strings without
    json; quotes, backslashes, control characters, bools, None and floats
    go to `json.dumps`.  Both give its bytes."""
    out = io.StringIO()
    cli.emit(records, "json", out)
    assert out.getvalue() == json_reference(records)
