"""Connected multigraphs and divisor predicates.

A multigraph is stored as a symmetric matrix of edge multiplicities with
zero diagonal.  Divisors are plain integer tuples indexed by vertex.

The subset-quantified predicates (orientable, break, and the break
enumeration) compare sums over every vertex set S, as a bitmask, with
|E(G[S])|.  They work on packed integers: one Python int holds a lane
of B bytes per mask S, lane S at bits [8B*S, 8B*(S+1)), with
B = ceil((bit_length(|E| + 1) + 1) / 8).  Every lane value they form is
at most |E| + 1, so the top bit of each lane stays clear as a guard
bit.  The |E(G[S])| table and the lanes-of-one masks are built once per
graph by doubling over vertices, in O(2^n) int work, and cached on the
instance.  A test packs the subset sums of d_v + 1 by the same doubling
and compares all 2^n lanes at once with one borrow-guarded subtraction
(`_lanes_at_least`).  The list table `subset_edges` and the list pass
remain as the `*_subset_bruteforce` oracles.  These predicates and the
G-parking subset oracle cap the vertex count at 24 and raise
BudgetExceededError above it.  On K_n (Python 3.11, a 2-core VM, a
fresh process per run, three runs) the first break test, which builds
the table, takes 0.03 s and a second one 0.013 s at n = 20, with 31 MB
peak RSS; at n = 22 they take 0.13-0.16 s and 0.05 s, with 82 MB.
Genus and the spanning-tree count need no subset work and have no cap;
G-parking uses Dhar's burning algorithm, in O(n^2), with no subset scan
and no cap.  The break enumeration checks its candidates with
`errors.check_budget`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Iterator, Sequence

from .errors import (
    DEFAULT_SET_BUDGET,
    BudgetExceededError,
    GraphFormatError,
    PreconditionError,
    as_ints,
    check_budget,
)

SUBSET_VERTEX_CAP = 24


class Multigraph:
    """Undirected multigraph on vertices 1..n.

    mult[i][j] is the number of edges between vertices i+1 and j+1
    (0-based storage, 1-based labels in the file format and error
    messages).
    """

    def __init__(self, mult: Sequence[Sequence[int]]):
        n = len(mult)
        if n == 0:
            raise GraphFormatError("graph must have at least one vertex")
        rows = [as_ints(row, "multiplicities", GraphFormatError) for row in mult]
        if any(len(row) != n for row in rows):
            raise GraphFormatError("multiplicity matrix must be square")
        for i, row in enumerate(rows):
            if row[i] != 0:
                raise GraphFormatError(f"self-loop at vertex {i + 1}")
            for j, x in enumerate(row):
                if x < 0:
                    raise GraphFormatError(
                        f"negative multiplicity at ({i + 1},{j + 1})"
                    )
                if rows[j][i] != x:
                    raise GraphFormatError(
                        f"asymmetric multiplicities at ({i + 1},{j + 1})"
                    )
        self.n = n
        self.mult = tuple(rows)

    def __eq__(self, other):
        return isinstance(other, Multigraph) and self.mult == other.mult

    def __hash__(self):
        return hash(self.mult)

    def __repr__(self):
        return f"Multigraph(n={self.n}, edges={self.edge_count()})"

    # The graph is immutable after construction, so derived data is
    # cached on the instance and freed with it.

    @functools.cached_property
    def _edge_count(self) -> int:
        return sum(
            self.mult[i][j] for i in range(self.n) for j in range(i + 1, self.n)
        )

    @functools.cached_property
    def _connected(self) -> bool:
        return len(_bfs_tree(self)) == self.n - 1

    @functools.cached_property
    def subset_edges(self) -> list[int]:
        """|E(G[S])| for every bitmask S of 0-based vertices.

        Built by doubling over vertices: the masks whose top bit is k
        add the edges from k into the lower mask.  O(2^n) list work;
        callers check SUBSET_VERTEX_CAP first.  The predicates read the
        packed table instead; this list serves the oracles.
        """
        table = [0]
        for k in range(self.n):
            row = self.mult[k]
            into = [0]  # edges from k into each mask of vertices < k
            for j in range(k):
                w = row[j]
                into += [x + w for x in into]
            table += map(operator.add, table, into)
        return table

    # Packed subset tables: lane S of a packed int is bits
    # [S * lane_bits, (S + 1) * lane_bits).  Every lane value the
    # predicates form is at most |E| + 1, below the lane's top (guard)
    # bit.  Callers check SUBSET_VERTEX_CAP first.

    @functools.cached_property
    def _lane_bits(self) -> int:
        return 8 * (((self.edge_count() + 1).bit_length() + 8) // 8)

    @functools.cached_property
    def _lane_ones(self) -> list[int]:
        """ones[k] holds 1 in each of the lanes 0 .. 2^k - 1."""
        w = self._lane_bits
        ones = [1]
        for k in range(self.n - 1):
            ones.append(ones[-1] | ones[-1] << (w << k))
        return ones

    @functools.cached_property
    def _lane_guard(self) -> int:
        """The top bit of each of the 2^n lanes."""
        w, top = self._lane_bits, self.n - 1
        ones = self._lane_ones[top]
        return (ones | ones << (w << top)) << (w - 1)

    @functools.cached_property
    def _packed_subset_edges(self) -> int:
        """`subset_edges` packed one lane per mask, built by the same
        doubling with int operations only."""
        w, ones = self._lane_bits, self._lane_ones
        table = 0
        for k in range(self.n):
            row = self.mult[k]
            into = 0  # edges from k into each mask of vertices < k
            for j in range(k):
                into |= (into + row[j] * ones[j]) << (w << j)
            table |= (table + into) << (w << k)
        return table

    def edge_count(self) -> int:
        return self._edge_count

    def degree(self, v: int) -> int:
        """Degree of 0-based vertex v, counting multiplicities."""
        return sum(self.mult[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once per multiplicity, as 0-based (i, j) with i < j."""
        for i in range(self.n):
            for j in range(i + 1, self.n):
                for _ in range(self.mult[i][j]):
                    yield (i, j)

    def is_connected(self) -> bool:
        return self._connected


def _bfs_tree(graph: Multigraph) -> set[tuple[int, int]]:
    """The vertex pairs (i, j), i < j, of a breadth-first spanning tree
    of the component of vertex 0."""
    order, seen, tree = [0], {0}, set()
    for v in order:
        for w in range(graph.n):
            if graph.mult[v][w] and w not in seen:
                seen.add(w)
                order.append(w)
                tree.add((min(v, w), max(v, w)))
    return tree


def complete_multigraph(m: int, n: int) -> Multigraph:
    """K_n^m: m parallel edges between every pair of distinct vertices."""
    m, n = as_ints((m, n), "complete_multigraph arguments")
    if m < 1 or n < 1:
        raise PreconditionError("complete_multigraph requires m >= 1, n >= 1")
    return Multigraph(
        [[0 if i == j else m for j in range(n)] for i in range(n)]
    )


def parse_graph_file(text: str) -> Multigraph:
    """Parse the textual graph format.

    First non-comment line: n (vertex count).  Remaining lines: triples
    "i j mult" with 1 <= i < j <= n.  '#' starts a comment.  Pairs not
    listed have multiplicity 0; repeated pairs are rejected.  Every edge
    line is checked before the n x n matrix is built, and a file with
    fewer than n - 1 pairs of positive multiplicity, which no connected
    graph has, is rejected then, so a bare vertex count allocates
    nothing.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GraphFormatError("empty graph file")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphFormatError(f"expected vertex count, got {lines[0]!r}")
    if n < 1:
        raise GraphFormatError("vertex count must be positive")
    edges = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"expected 'i j mult', got {line!r}")
        try:
            i, j, k = (int(p) for p in parts)
        except ValueError:
            raise GraphFormatError(f"non-integer edge entry in {line!r}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphFormatError(f"vertex out of range in {line!r}")
        if i == j:
            raise GraphFormatError(f"self-loop in {line!r}")
        if i > j:
            raise GraphFormatError(f"edges must be listed with i < j: {line!r}")
        if (i, j) in edges:
            raise GraphFormatError(f"duplicate edge pair in {line!r}")
        if k < 0:
            raise GraphFormatError(f"negative multiplicity in {line!r}")
        edges[i, j] = k
    adjacent = sum(1 for k in edges.values() if k)
    if adjacent < n - 1:
        raise GraphFormatError(
            f"{adjacent} pairs of positive multiplicity cannot connect "
            f"{n} vertices"
        )
    mult = [[0] * n for _ in range(n)]
    for (i, j), k in edges.items():
        mult[i - 1][j - 1] = mult[j - 1][i - 1] = k
    return Multigraph(mult)


def format_graph_file(graph: Multigraph) -> str:
    """The graph in the textual format `parse_graph_file` reads: the
    vertex count, then one "i j mult" line per adjacent pair, i < j."""
    n = graph.n
    lines = [str(n)] + [
        f"{i + 1} {j + 1} {graph.mult[i][j]}"
        for i in range(n)
        for j in range(i + 1, n)
        if graph.mult[i][j]
    ]
    return "\n".join(lines) + "\n"


def _require_connected(graph: Multigraph):
    if not graph.is_connected():
        raise PreconditionError("graph must be connected")


def _require_subset_cap(graph: Multigraph):
    """The subset table and the subset scans take 2^n memory or time."""
    if graph.n > SUBSET_VERTEX_CAP:
        raise BudgetExceededError(
            f"subset-quantified predicates support at most {SUBSET_VERTEX_CAP} vertices"
        )


def _subset_divisor(graph: Multigraph, divisor: Sequence[int]) -> tuple[int, ...]:
    """The opening checks of every subset predicate, in order."""
    _require_connected(graph)
    _require_subset_cap(graph)
    return _as_divisor(graph, divisor)


def check_composition_budget(g: int, n: int, budget: int):
    """The budget check on the C(g+n-1, n-1) compositions of g into n
    parts."""
    check_budget(math.comb(g + n - 1, n - 1), budget,
                 f"compositions of {g} into {n} parts")


def genus(graph: Multigraph) -> int:
    """|E| - |V| + 1 for a connected graph."""
    _require_connected(graph)
    return graph.edge_count() - graph.n + 1


def _internal_edges(graph: Multigraph, mask: int) -> int:
    total = 0
    for i in range(graph.n):
        if not (mask >> i) & 1:
            continue
        row = graph.mult[i]
        for j in range(i + 1, graph.n):
            if (mask >> j) & 1:
                total += row[j]
    return total


def euler_char_subset(graph: Multigraph, subset: Iterable[int]) -> int:
    """|S| - |E(G[S])| for a nonempty set S of 0-based vertices."""
    mask = 0
    for v in subset:
        if not 0 <= v < graph.n:
            raise PreconditionError(f"vertex {v} out of range")
        mask |= 1 << v
    if mask == 0:
        raise PreconditionError("subset must be nonempty")
    return mask.bit_count() - _internal_edges(graph, mask)


def _packed_subset_sums(graph: Multigraph, d: tuple[int, ...]) -> int:
    """The sum of d_v + 1 over S in lane S, for every mask S.

    Built by doubling: at vertex k the lanes [2^k, 2^(k+1)) are the
    lower lanes plus d_k + 1.  Callers make every d_v + 1 nonnegative
    and the total at most |E| + 1, so no lane reaches its guard bit.
    """
    w, ones = graph._lane_bits, graph._lane_ones
    sums = 0
    for k, x in enumerate(d):
        sums |= (sums + (x + 1) * ones[k]) << (w << k)
    return sums


def _lanes_at_least(sums: int, bound: int, guard: int) -> bool:
    """Whether each lane of sums is at least the same lane of bound.

    With the guard bits set, each lane's borrow stays inside it and
    clears its guard bit exactly where sums is the smaller.
    """
    return ((sums | guard) - bound) & guard == guard


def _subset_sums_pass(graph: Multigraph, d: tuple[int, ...], fails) -> bool:
    """Whether fails(sum of d_v + 1 over S, |E(G[S])|) is false for every
    nonempty vertex set S, by list work on `subset_edges`.

    The subset sums are built level by level: at vertex k the masks with
    top bit k extend the lower masks by d_k + 1.  Only those new masks
    are compared, and the first failing level returns.
    """
    table = graph.subset_edges
    sums = [0]
    for k, x in enumerate(d):
        step = x + 1
        new = [s + step for s in sums]
        if any(map(fails, new, table[1 << k : 2 << k])):
            return False
        sums += new
    return True


def is_orientable(graph: Multigraph, divisor: Sequence[int]) -> bool:
    """Whether divisor = (indeg_O(v) - 1)_v for some edge orientation O.

    Checked via the degree condition deg(D) = |E| - |V| together with
    deg(D|_S) + chi(S) >= 0, i.e. sum over S of (d_v + 1) >= |E(G[S])|,
    for every nonempty subset S, on the packed tables.
    """
    d = _subset_divisor(graph, divisor)
    if sum(d) != graph.edge_count() - graph.n:
        return False
    if min(d) < -1:  # no in-degree is negative; lanes are unsigned
        return False
    return _lanes_at_least(
        _packed_subset_sums(graph, d), graph._packed_subset_edges, graph._lane_guard
    )


def orientable_subset_bruteforce(graph: Multigraph, divisor: Sequence[int]) -> bool:
    """Oracle: the subset inequalities of `is_orientable` by the list
    pass over `subset_edges`."""
    d = _subset_divisor(graph, divisor)
    if sum(d) != graph.edge_count() - graph.n:
        return False
    return _subset_sums_pass(graph, d, operator.lt)


def orientable_bruteforce(graph: Multigraph, divisor: Sequence[int]) -> bool:
    """Oracle: scan all 2^|E| orientations of the expanded edge list."""
    d = _as_divisor(graph, divisor)
    edge_list = list(graph.edges())
    if len(edge_list) > 20:
        raise BudgetExceededError("orientation oracle limited to 20 edges")
    target = tuple(x + 1 for x in d)
    for choice in itertools.product((0, 1), repeat=len(edge_list)):
        indeg = [0] * graph.n
        for (i, j), c in zip(edge_list, choice):
            indeg[j if c else i] += 1
        if tuple(indeg) == target:
            return True
    return False


def is_break_divisor(graph: Multigraph, divisor: Sequence[int]) -> bool:
    """Effective, degree = genus, and deg(D|_S) >= |E(G[S])| - |S| + 1,
    i.e. sum over S of (d_v + 1) > |E(G[S])|, for every nonempty
    subset S, on the packed tables."""
    d = _subset_divisor(graph, divisor)
    if min(d) < 0:
        return False
    if sum(d) != graph.edge_count() - graph.n + 1:
        return False
    guard = graph._lane_guard
    # strict: at least |E(G[S])| + 1 on every lane but the empty set's
    bound = graph._packed_subset_edges + (guard >> (graph._lane_bits - 1)) - 1
    return _lanes_at_least(_packed_subset_sums(graph, d), bound, guard)


def break_subset_bruteforce(graph: Multigraph, divisor: Sequence[int]) -> bool:
    """Oracle: the subset inequalities of `is_break_divisor` by the list
    pass over `subset_edges`."""
    d = _subset_divisor(graph, divisor)
    if any(x < 0 for x in d):
        return False
    if sum(d) != graph.edge_count() - graph.n + 1:
        return False
    return _subset_sums_pass(graph, d, operator.le)


def _lanes_holding(graph: Multigraph, q: int) -> int:
    """1 in each lane whose mask holds vertex q, 0 in the others: the
    lanes [2^q, 2^(q+1)), then doubled over the higher vertices."""
    w = graph._lane_bits
    lanes = graph._lane_ones[q] << (w << q)
    for k in range(q + 1, graph.n):
        lanes |= lanes << (w << k)
    return lanes


def break_via_orientability(graph: Multigraph, divisor: Sequence[int]) -> bool:
    """D is break iff D - (q) is orientable for every vertex q.

    The test of `is_orientable` on each D - (q), with D validated and
    its subset sums packed once: D - (q) has the degree |E| - |V| iff D
    has the genus, no entry below -1 for every q iff D is effective, and
    its packed sums are those of D less 1 in each lane holding q."""
    _require_connected(graph)
    d = _as_divisor(graph, divisor)
    _require_subset_cap(graph)
    if sum(d) != graph.edge_count() - graph.n + 1 or min(d) < 0:
        return False
    sums = _packed_subset_sums(graph, d)
    edges, guard = graph._packed_subset_edges, graph._lane_guard
    return all(
        _lanes_at_least(sums - _lanes_holding(graph, q), edges, guard)
        for q in range(graph.n)
    )


def _parking_values(graph: Multigraph, q: int, values: Sequence[int]) -> dict[int, int]:
    _require_connected(graph)
    if not 0 <= q < graph.n:
        raise PreconditionError(f"vertex {q} out of range")
    others = [v for v in range(graph.n) if v != q]
    if len(values) != len(others):
        raise PreconditionError("values must cover exactly V \\ {q}")
    return dict(zip(others, as_ints(values, "parking values")))


def is_g_parking(graph: Multigraph, q: int, values: Sequence[int]) -> bool:
    """G-parking predicate for the distinguished vertex q (0-based).

    values lists the divisor on V \\ {q} in increasing vertex order.
    Dhar's burning algorithm: a fire starts at q, and a vertex burns once
    its edges to burnt vertices outnumber its value.  The values are
    G-parking iff every vertex burns, which is equivalent to the subset
    condition of `g_parking_bruteforce`.  O(n^2) on the matrix.
    """
    val = _parking_values(graph, q, values)
    if any(x < 0 for x in val.values()):
        return False
    fire = dict.fromkeys(val, 0)  # edges from each unburnt vertex to the fire
    burning = [q]
    while burning:
        row = graph.mult[burning.pop()]
        for w in list(fire):
            if row[w]:
                fire[w] += row[w]
                if fire[w] > val[w]:
                    del fire[w]
                    burning.append(w)
    return not fire


def g_parking_bruteforce(graph: Multigraph, q: int, values: Sequence[int]) -> bool:
    """Oracle: every nonempty S avoiding q must contain a vertex whose
    value is below its out-degree from S.  Scans all 2^(n-1) subsets."""
    _require_connected(graph)
    _require_subset_cap(graph)
    val = _parking_values(graph, q, values)
    if any(x < 0 for x in val.values()):
        return False
    others = list(val)
    k = len(others)
    for smask in range(1, 1 << k):
        members = [others[i] for i in range(k) if (smask >> i) & 1]
        in_s = set(members)
        ok = False
        for v in members:
            outdeg = sum(
                graph.mult[v][w] for w in range(graph.n) if w not in in_s
            )
            if val[v] < outdeg:
                ok = True
                break
        if not ok:
            return False
    return True


def enumerate_break_divisors(
    graph: Multigraph, budget: int = DEFAULT_SET_BUDGET
) -> Iterator[tuple[int, ...]]:
    """An iterator over all break divisors in lexicographic order.

    On call, before the first item, the graph must be connected, and
    BudgetExceededError is raised if n exceeds SUBSET_VERTEX_CAP or the
    number of compositions of the genus into n parts exceeds the budget;
    the packed subset table is built then too.  A depth-first search
    over vertices 0..n-1 then carries the packed subset sums of d_v + 1
    one vertex at a time, as in `is_break_divisor`, and yields each
    divisor as it is read: at vertex k the masks with top bit k fix the
    least admissible d_k, so a failing prefix is never extended and
    shared prefixes are summed once.
    """
    g = genus(graph)
    _require_subset_cap(graph)
    n = graph.n
    check_composition_budget(g, n, budget)
    w, ones = graph._lane_bits, graph._lane_ones
    table = graph._packed_subset_edges
    guards = [x << (w - 1) for x in ones]
    # |E(G[S])| for the masks S with top bit k, in lane S - 2^k
    levels = [(table >> (w << k)) & ((1 << (w << k)) - 1) for k in range(n)]
    prefix: list[int] = []

    def extend(k: int, sums: int, remaining: int):
        # sum over S of (d_v + 1) > |E(G[S])| for each mask S with top
        # bit k holds iff sums[S without k] + d_k >= |E(G[S])|: lane by
        # lane, margin + d_k * ones keeps its guard bit
        guard, one = guards[k], ones[k]
        margin = (sums | guard) - levels[k]
        if k == n - 1:
            if (margin + remaining * one) & guard == guard:
                yield (*prefix, remaining)
            return
        least = 0
        while least <= remaining and (margin + least * one) & guard != guard:
            least += 1
        shift = w << k
        for x in range(least, remaining + 1):
            prefix.append(x)
            yield from extend(k + 1, sums | (sums + (x + 1) * one) << shift, remaining - x)
            prefix.pop()

    return extend(0, 0, g)


def _as_divisor(graph: Multigraph, divisor: Sequence[int]) -> tuple[int, ...]:
    d = as_ints(divisor, "divisor entries")
    if len(d) != graph.n:
        raise PreconditionError(f"divisor length {len(d)} != vertex count {graph.n}")
    return d


def spanning_tree_count(graph: Multigraph) -> int:
    """Matrix-Tree count by fraction-free (Bareiss) elimination on the
    reduced Laplacian, positive definite on a connected graph, so each
    pivot (a leading principal minor) is positive: no row swaps."""
    _require_connected(graph)
    n = graph.n
    if n == 1:
        return 1
    # reduced Laplacian: drop last row/column
    a = [
        [
            (graph.degree(i) if i == j else -graph.mult[i][j])
            for j in range(n - 1)
        ]
        for i in range(n - 1)
    ]
    size = n - 1
    prev = 1
    for k in range(size - 1):
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[size - 1][size - 1]
