"""The benchmark's workloads: the breakpark CLI commands each one runs,
the seeded graph generator, and the checks every command's stdout must
pass.

The checks are computed by this file from first principles (closed
counts, dominance and parking tests, hook lengths, Reineke's DT formula,
a Kirchhoff determinant); they share no code with the library.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("character", "enumerate", "graph", "dt")

# Output digests recorded from the seed code live next to this file.
DIGESTS_FILE = Path(__file__).with_name("digests.json")

CHARACTER_CASES = ((2, 6), (5, 5), (3, 5))
ENUMERATE_CASES = (("break", 4, 5), ("park", 4, 5), ("residue", 3, 5), ("classes", 3, 5))
DT_LOOPS = tuple(range(1, 13))
DT_N_MAX = 24

# Graph workload.  Every graph has the same vertex count and genus, so
# every enumeration scans the same C(genus + n - 1, n - 1) = 924
# candidates; the seed picks only which edges.  Simple graphs keep the
# per-graph cost within about 11% (coefficient of variation over 40
# seeds), and ten graphs per run average that down further.  Both
# commands enumerate the break divisors, so half the graphs go through
# `count --graph` and half through `enumerate --graph`.
GRAPH_VERTICES = 7
GRAPH_GENUS = 6
GRAPH_COUNT = 10
# The random-graphs verify suite draws graphs of seed-dependent size:
# over 40 seeds its work has an interquartile range of 30% of the median.
# A fixed suite seed keeps that out of the run-to-run spread; the
# benchmark's seed varies the graph files instead.
VERIFY_SEED = 0
VERIFY_ARGS = (
    "verify", "--only", "random-graphs", "--only", "knm-vs-multigraph",
    "--seed", str(VERIFY_SEED), "--format", "json",
)


class CheckFailed(Exception):
    """A command's output failed one of the benchmark's checks."""


@dataclass(frozen=True)
class Command:
    label: str  # stable name, keys the recorded stdout digest
    argv: tuple[str, ...]  # arguments after `breakpark`
    check: Callable[[bytes], None]  # raises CheckFailed


def build(workload: str, seed: int, graph_dir: Path) -> list[Command]:
    """The commands of one workload pass, in the order the seed gives."""
    if workload == "character":
        commands = [_character(m, n) for m, n in CHARACTER_CASES]
    elif workload == "enumerate":
        commands = [_enumerate(s, m, n) for s, m, n in ENUMERATE_CASES]
    elif workload == "dt":
        commands = [_dt(m) for m in DT_LOOPS]
    elif workload == "graph":
        commands = _graph_commands(seed, graph_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(commands)
    return commands


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text())["stdout_sha256"]


# ---------------------------------------------------------------- helpers


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _records(stdout: bytes) -> list[dict]:
    try:
        records = json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
    _require(isinstance(records, list), "stdout is not a JSON list")
    return records


def _tuple(text: str) -> tuple[int, ...]:
    _require(text.startswith("(") and text.endswith(")"), f"bad tuple {text!r}")
    body = text[1:-1]
    return tuple(int(x) for x in body.split(",")) if body else ()


def closed_count(m: int, n: int) -> int:
    """|Break| = |Park| on K_n^m."""
    return m ** (n - 1) * n ** max(n - 2, 0)


def _genus_knm(m: int, n: int) -> int:
    return m * n * (n - 1) // 2 - n + 1


def _dominated(m: int, n: int, d: tuple[int, ...]) -> bool:
    delta = [m * k - 1 for k in range(n - 1, 0, -1)] + [0]
    return all(
        a <= b
        for a, b in zip(
            itertools.accumulate(sorted(d, reverse=True)), itertools.accumulate(delta)
        )
    )


def _is_park(m: int, a: tuple[int, ...]) -> bool:
    return all(0 <= v <= m * i - 1 for i, v in enumerate(sorted(a), start=1))


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _h_dimension(mu: tuple[int, ...]) -> int:
    dim = math.factorial(sum(mu))
    for part in mu:
        dim //= math.factorial(part)
    return dim


def _s_dimension(lam: tuple[int, ...]) -> int:
    """Standard Young tableaux of shape lam, by the hook length formula."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= (part - j) + (conj[j] - i) - 1
    return math.factorial(sum(lam)) // hooks


def _expansion_dimension(text: str, basis: str) -> int:
    """Dimension of the module whose Frobenius characteristic is `text`,
    a sum of terms like `3 h321` or `1 s2,11`."""
    dim_of = _h_dimension if basis == "h" else _s_dimension
    total = 0
    for term in text.split(" + "):
        coeff, _, index = term.partition(f" {basis}")
        _require(index != "", f"bad {basis}-term {term!r}")
        parts = index.split(",") if "," in index else list(index)
        total += int(coeff) * dim_of(tuple(int(p) for p in parts))
    return total


def _moebius(k: int) -> int:
    sign, d = 1, 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if k > 1 else sign


def reineke_dt(m: int, n: int) -> int:
    """DT invariant of the (m+1)-loop quiver by Reineke's formula."""
    acc = sum(
        _moebius(n // e) * (-1) ** (m * (n - e)) * math.comb((m + 1) * e - 1, e - 1)
        for e in range(1, n + 1)
        if n % e == 0
    )
    q, r = divmod(acc, n * n)
    if r:
        raise ArithmeticError(f"Reineke sum not divisible at m={m}, n={n}")
    return q


# ------------------------------------------------------------- character


def _character(m: int, n: int) -> Command:
    argv = ("character", "--m", str(m), "--n", str(n), "--format", "json")

    def check(stdout: bytes):
        rows = {r["cycle_type"]: r for r in _records(stdout)}
        count = closed_count(m, n)
        lams = list(_partitions(n))
        _require(len(rows) == len(lams) + 3, f"{len(rows)} rows")
        for lam in lams:
            row = rows.get("(" + ",".join(map(str, lam)) + ")")
            _require(row is not None, f"no row for {lam}")
            _require(row["closed"] == row["bruteforce"], f"closed != bruteforce at {lam}")
        _require(rows["(" + ",".join(["1"] * n) + ")"]["closed"] == count, "identity value")
        for key in ("Frob(Break)", "Frob(Park)"):
            h_text, _, s_text = rows[key]["closed"].partition(" = ")
            _require(_expansion_dimension(h_text, "h") == count, f"{key} h-dimension")
            _require(_expansion_dimension(s_text, "s") == count, f"{key} s-dimension")
        _require(rows["Res = Park"]["closed"] == "PASS", "Res = Park is not PASS")

    return Command(" ".join(argv), argv, check)


# ------------------------------------------------------------- enumerate


def _enumerate(which: str, m: int, n: int) -> Command:
    argv = ("enumerate", "--set", which, "--m", str(m), "--n", str(n), "--format", "json")
    checks = {"break": _check_break, "park": _check_park,
              "residue": _check_residue, "classes": _check_classes}

    def check(stdout: bytes):
        checks[which](m, n, _records(stdout))

    return Command(" ".join(argv), argv, check)


def _check_break(m, n, rows):
    _require(len(rows) == closed_count(m, n), f"{len(rows)} break divisors")
    g = _genus_knm(m, n)
    seen = set()
    for r in rows:
        d = _tuple(r["divisor"])
        _require(len(d) == n and min(d) >= 0 and sum(d) == g, f"bad divisor {d}")
        _require(_dominated(m, n, d), f"{d} is not dominated by delta")
        _require(_tuple(r["orbit_key"]) == tuple(sorted(d, reverse=True)), "orbit key")
        seen.add(d)
    _require(len(seen) == len(rows), "repeated divisors")


def _check_park(m, n, rows):
    _require(len(rows) == closed_count(m, n), f"{len(rows)} parking functions")
    seen = set()
    for r in rows:
        a = _tuple(r["parking"])
        _require(len(a) == n - 1 and _is_park(m, a), f"{a} is not parking")
        _require(_tuple(r["orbit_key"]) == tuple(sorted(a, reverse=True)), "orbit key")
        seen.add(a)
    _require(len(seen) == len(rows), "repeated parking functions")


def _shift_orbit(m, n, x):
    N = m * n
    return [tuple((v + j * m) % N for v in x) for j in range(n)]


def _check_residue(m, n, rows):
    N, g = m * n, _genus_knm(m, n)
    _require(len(rows) == N ** (n - 1), f"{len(rows)} residue tuples")
    seen = set()
    for r in rows:
        x = _tuple(r["tuple"])
        _require(len(x) == n and all(0 <= v < N for v in x), f"bad tuple {x}")
        _require(sum(x) % N == g % N, f"{x} has the wrong residue")
        _require(_tuple(r["class_key"]) == min(_shift_orbit(m, n, x)), "class key")
        _require(_tuple(r["orbit_key"]) == tuple(sorted(x, reverse=True)), "orbit key")
        seen.add(x)
    _require(len(seen) == len(rows), "repeated residue tuples")


def _check_classes(m, n, rows):
    N = m * n
    _require(len(rows) == N ** (n - 1) // n, f"{len(rows)} shift classes")
    members_seen = set()
    for r in rows:
        members = [_tuple(t) for t in r["members"].split(";")]
        key = _tuple(r["class_key"])
        _require(len(set(members)) == n, f"class {key} has {len(members)} members")
        _require(set(members) == set(_shift_orbit(m, n, key)), f"class {key} not a shift orbit")
        _require(key == min(members), f"class key {key} is not the least member")
        b = _tuple(r["break_rep"])
        _require(b in members and _dominated(m, n, b), f"bad break rep {b}")
        p = _tuple(r["parking_rep"])
        _require(_is_park(m, p) and any(x[: n - 1] == p for x in members), f"bad parking rep {p}")
        members_seen.update(members)
    _require(len(members_seen) == N ** (n - 1), "classes do not partition the residue tuples")


# -------------------------------------------------------------------- dt


def _dt(m: int) -> Command:
    argv = ("dt", "--m", str(m), "--n-max", str(DT_N_MAX), "--format", "json")

    def check(stdout: bytes):
        rows = _records(stdout)
        _require([r["n"] for r in rows] == list(range(1, DT_N_MAX + 1)), "rows are not n = 1..n_max")
        for r in rows:
            _require(r["verdict"] == "AGREE", f"n={r['n']} is {r['verdict']}")
            _require(
                r["dt_closed"] == r["dt_euler_product"] == reineke_dt(m, r["n"]),
                f"DT at n={r['n']} differs from Reineke's formula",
            )

    return Command(" ".join(argv), argv, check)


# ----------------------------------------------------------------- graph


def random_graph(rng: random.Random, n: int = GRAPH_VERTICES, genus: int = GRAPH_GENUS):
    """Edge set of a connected simple graph on n vertices with the given
    genus, as sorted 0-based pairs; the rng picks which pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    edges = genus + n - 1
    if edges > len(pairs):
        raise ValueError("genus too large for a simple graph")
    while True:
        chosen = sorted(rng.sample(pairs, edges))
        if _connected(n, chosen):
            return chosen


def _connected(n, edges):
    reach = {0}
    grew = True
    while grew:
        grew = False
        for i, j in edges:
            if (i in reach) != (j in reach):
                reach |= {i, j}
                grew = True
    return len(reach) == n


def _graph_file_text(n: int, edges) -> str:
    return f"{n}\n" + "".join(f"{i + 1} {j + 1} 1\n" for i, j in edges)


def tree_count(n: int, edges) -> int:
    """Spanning trees by Kirchhoff's theorem, with exact rational
    elimination on the reduced Laplacian."""
    lap = [[Fraction(0)] * n for _ in range(n)]
    for i, j in edges:
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    a = [row[: n - 1] for row in lap[: n - 1]]
    det = Fraction(1)
    for k in range(n - 1):
        pivot = next((r for r in range(k, n - 1) if a[r][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n - 1):
            factor = a[r][k] / a[k][k]
            for c in range(k, n - 1):
                a[r][c] -= factor * a[k][c]
    return int(det)


def _is_break(n, edges, d) -> bool:
    """deg(D|S) >= |E(S)| - |S| + 1 on every nonempty vertex set S."""
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            s = set(subset)
            inside = sum(1 for i, j in edges if i in s and j in s)
            if sum(d[v] for v in subset) < inside - size + 1:
                return False
    return True


def _graph_commands(seed: int, graph_dir: Path) -> list[Command]:
    rng = random.Random(seed)
    commands = []
    for k in range(GRAPH_COUNT):
        edges = random_graph(rng)
        text = _graph_file_text(GRAPH_VERTICES, edges)
        path = graph_dir / f"graph-{k}.txt"
        path.write_text(text)
        tag = digest(text.encode())[:12]
        trees = tree_count(GRAPH_VERTICES, edges)
        if k % 2:
            sub, check = "enumerate", _enumerate_graph_check(edges, trees)
        else:
            sub, check = "count", _count_graph_check(edges, trees)
        argv = (sub, "--graph", str(path), "--format", "json")
        commands.append(Command(f"{sub} --graph {tag} --format json", argv, check))
    commands.append(Command(" ".join(VERIFY_ARGS), VERIFY_ARGS, _check_verify))
    return commands


def _count_graph_check(edges, trees):
    def check(stdout: bytes):
        rows = _records(stdout)
        _require(len(rows) == 1, f"{len(rows)} count rows")
        r = rows[0]
        _require(
            (r["vertices"], r["edges"], r["genus"])
            == (GRAPH_VERTICES, len(edges), GRAPH_GENUS),
            "vertex, edge or genus count",
        )
        _require(
            r["break_divisors"] == r["spanning_trees"] == trees,
            f"break divisors {r['break_divisors']}, spanning trees "
            f"{r['spanning_trees']}, expected {trees}",
        )

    return check


def _enumerate_graph_check(edges, trees):
    def check(stdout: bytes):
        rows = _records(stdout)
        _require(len(rows) == trees, f"{len(rows)} break divisors, expected {trees}")
        divisors = [_tuple(r["divisor"]) for r in rows]
        _require(len(set(divisors)) == len(divisors), "repeated divisors")
        for d in divisors:
            _require(
                len(d) == GRAPH_VERTICES and min(d) >= 0 and sum(d) == GRAPH_GENUS,
                f"bad divisor {d}",
            )
        # The subset test is slow in Python; every 25th divisor suffices
        # to catch a wrong predicate, and the count catches the rest.
        for d in divisors[::25]:
            _require(_is_break(GRAPH_VERTICES, edges, d), f"{d} is not a break divisor")

    return check


def _check_verify(stdout: bytes):
    rows = _records(stdout)
    _require(len(rows) == 4, f"{len(rows)} verify rows")
    for r in rows:
        _require(r["verdict"] == "PASS", f"{r['invariant']} is {r['verdict']}")
