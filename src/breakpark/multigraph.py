"""Connected multigraphs and divisor predicates.

A multigraph is stored as a symmetric matrix of edge multiplicities with
zero diagonal.  Divisors are plain integer tuples indexed by vertex.

The subset-quantified predicates (orientable, break, and the break
enumeration) read |E(G[S])| for every bitmask S from a table built once
per graph in O(2^n) and cached on the instance.  A predicate call is
then O(2^n) list work that stops at the first failing vertex level, so
these predicates and the G-parking subset oracle cap the vertex count
at 24 and raise BudgetExceededError above it.  On K_n (Python 3.11, a
2-core Xeon VM) the table build takes 0.09 s and a break test on it
0.08 s at n = 20, with 48 MB peak RSS; at n = 22 they take 0.33 s and
0.29 s, with 108 MB.  Genus and the spanning-tree count need no subset
work and have no cap; G-parking uses Dhar's burning algorithm, in
O(n^2), with no subset scan and no cap.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import deque
from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetExceededError,
    GraphFormatError,
    PreconditionError,
)

SUBSET_VERTEX_CAP = 24

# default cap on the number of candidate compositions scanned by
# enumerate_break_divisors
DEFAULT_ENUM_BUDGET = 10_000_000


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
        rows = [tuple(int(x) for x in row) for row in mult]
        for i, row in enumerate(rows):
            if len(row) != n:
                raise GraphFormatError("multiplicity matrix must be square")
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
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in range(self.n):
                if self.mult[v][w] > 0 and w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n

    @functools.cached_property
    def subset_edges(self) -> list[int]:
        """|E(G[S])| for every bitmask S of 0-based vertices.

        Built by doubling over vertices: the masks whose top bit is k
        add the edges from k into the lower mask.  O(2^n) list work;
        callers check SUBSET_VERTEX_CAP first.
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


def complete_multigraph(m: int, n: int) -> Multigraph:
    """K_n^m: m parallel edges between every pair of distinct vertices."""
    if m < 1 or n < 1:
        raise PreconditionError("complete_multigraph requires m >= 1, n >= 1")
    return Multigraph(
        [[0 if i == j else m for j in range(n)] for i in range(n)]
    )


def parse_graph_file(text: str) -> Multigraph:
    """Parse the textual graph format.

    First non-comment line: n (vertex count).  Remaining lines: triples
    "i j mult" with 1 <= i < j <= n.  '#' starts a comment.  Pairs not
    listed have multiplicity 0; repeated pairs are rejected.
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
    mult = [[0] * n for _ in range(n)]
    seen = set()
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
        if (i, j) in seen:
            raise GraphFormatError(f"duplicate edge pair in {line!r}")
        if k < 0:
            raise GraphFormatError(f"negative multiplicity in {line!r}")
        seen.add((i, j))
        mult[i - 1][j - 1] = k
        mult[j - 1][i - 1] = k
    return Multigraph(mult)


def _require_connected(graph: Multigraph):
    if not graph.is_connected():
        raise PreconditionError("graph must be connected")


def _require_subset_cap(graph: Multigraph):
    """The subset table and the subset scans take 2^n memory or time."""
    if graph.n > SUBSET_VERTEX_CAP:
        raise BudgetExceededError(
            f"subset-quantified predicates support at most {SUBSET_VERTEX_CAP} vertices"
        )


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


def _subset_sums_pass(graph: Multigraph, d: tuple[int, ...], fails) -> bool:
    """Whether fails(sum of d_v + 1 over S, |E(G[S])|) is false for every
    nonempty vertex set S.

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
    for every nonempty subset S.
    """
    _require_connected(graph)
    _require_subset_cap(graph)
    d = _as_divisor(graph, divisor)
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
    subset S."""
    _require_connected(graph)
    _require_subset_cap(graph)
    d = _as_divisor(graph, divisor)
    if any(x < 0 for x in d):
        return False
    if sum(d) != graph.edge_count() - graph.n + 1:
        return False
    return _subset_sums_pass(graph, d, operator.le)


def break_via_orientability(graph: Multigraph, divisor: Sequence[int]) -> bool:
    """D is break iff D - (q) is orientable for every vertex q."""
    _require_connected(graph)
    d = _as_divisor(graph, divisor)
    for q in range(graph.n):
        shifted = list(d)
        shifted[q] -= 1
        if not is_orientable(graph, shifted):
            return False
    return True


def _parking_values(graph: Multigraph, q: int, values: Sequence[int]) -> dict[int, int]:
    if not graph.is_connected():
        raise PreconditionError("graph must be connected")
    if not 0 <= q < graph.n:
        raise PreconditionError(f"vertex {q} out of range")
    others = [v for v in range(graph.n) if v != q]
    if len(values) != len(others):
        raise PreconditionError("values must cover exactly V \\ {q}")
    return dict(zip(others, values))


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
    graph: Multigraph, budget: int = DEFAULT_ENUM_BUDGET
) -> list[tuple[int, ...]]:
    """All break divisors, sorted lexicographically.

    Raises BudgetExceededError if n exceeds SUBSET_VERTEX_CAP or the
    number of compositions of the genus into n parts exceeds the budget.
    A depth-first search over vertices 0..n-1 then extends the subset
    sums of d_v + 1 one vertex at a time, as in
    `is_break_divisor`: at vertex k the masks with top bit k fix the
    least admissible d_k, so a failing prefix is never extended and
    shared prefixes are summed once.
    """
    g = genus(graph)
    _require_subset_cap(graph)
    n = graph.n
    candidates = math.comb(g + n - 1, n - 1)
    if candidates > budget:
        raise BudgetExceededError(
            f"{candidates} candidate compositions exceed budget {budget}"
        )
    table = graph.subset_edges
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def extend(k: int, sums: list[int], remaining: int):
        # sum over S of (d_v + 1) > |E(G[S])| for each mask S with top
        # bit k holds iff d_k >= |E(G[S])| - sums[S without k]
        least = max(0, max(map(operator.sub, table[1 << k : 2 << k], sums)))
        if k == n - 1:
            if least <= remaining:
                out.append((*prefix, remaining))
            return
        for x in range(least, remaining + 1):
            prefix.append(x)
            step = x + 1
            extend(k + 1, sums + [s + step for s in sums], remaining - x)
            prefix.pop()

    extend(0, [0], g)
    return out


def _as_divisor(graph: Multigraph, divisor: Sequence[int]) -> tuple[int, ...]:
    d = tuple(int(x) for x in divisor)
    if len(d) != graph.n:
        raise PreconditionError(
            f"divisor length {len(d)} != vertex count {graph.n}"
        )
    return d


def spanning_tree_count(graph: Multigraph) -> int:
    """Matrix-Tree count via fraction-free (Bareiss) elimination on the
    reduced Laplacian.  Exact integers throughout."""
    if not graph.is_connected():
        raise PreconditionError("graph must be connected")
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
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for r in range(k + 1, size):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[size - 1][size - 1]
