import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from breakpark import knm, verify
from breakpark import multigraph as mg
from breakpark.errors import (
    BudgetExceededError,
    GraphFormatError,
    PreconditionError,
)
from breakpark.verify import random_connected_multigraph


def triangle():
    return mg.complete_multigraph(1, 3)


def k32():
    return mg.complete_multigraph(2, 3)


def path4():
    return mg.Multigraph(
        [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
    )


def path_graph(n):
    return mg.Multigraph(
        [[1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    )


class TestConstruction:
    def test_rejects_no_vertices(self):
        with pytest.raises(GraphFormatError, match="at least one vertex"):
            mg.Multigraph([])

    def test_rejects_asymmetric(self):
        with pytest.raises(GraphFormatError):
            mg.Multigraph([[0, 1], [2, 0]])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            mg.Multigraph([[1, 1], [1, 0]])

    def test_rejects_negative(self):
        with pytest.raises(GraphFormatError):
            mg.Multigraph([[0, -1], [-1, 0]])

    @pytest.mark.parametrize("mult", [
        [[0, 0, 1], [0, 0, 0], [1]],
        [[0, 1], [1, 0, 0]],
        [[0, 1, 1], [1, 0, 0], [1]],
        [[0, 1, 1], [1, 0], [1, 0, 0]],
    ], ids=["short-last-row", "long-last-row", "short-row-read-early", "short-middle-row"])
    def test_rejects_ragged(self, mult):
        with pytest.raises(GraphFormatError, match="multiplicity matrix must be square"):
            mg.Multigraph(mult)

    def test_connectivity(self):
        assert triangle().is_connected()
        assert not mg.Multigraph(
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        ).is_connected()


def random_simple_graph(rng, n, genus):
    """A connected simple graph on n vertices with the given genus: a
    random spanning tree plus randomly chosen non-tree pairs."""
    mult = [[0] * n for _ in range(n)]
    for v in range(1, n):
        w = rng.randrange(v)
        mult[v][w] = mult[w][v] = 1
    free = [(i, j) for i, j in itertools.combinations(range(n), 2) if not mult[i][j]]
    for i, j in rng.sample(free, genus):
        mult[i][j] = mult[j][i] = 1
    return mg.Multigraph(mult)


class TestSubsetTable:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_multigraph(self, m, n):
        g = mg.complete_multigraph(m, n)
        assert g.subset_edges == [mg._internal_edges(g, s) for s in range(1 << n)]

    def test_random_multigraphs(self):
        rng = random.Random(23)
        for _ in range(100):
            g = random_connected_multigraph(rng, max_vertices=9, max_extra_edges=12)
            table = g.subset_edges
            assert len(table) == 1 << g.n
            assert all(table[s] == mg._internal_edges(g, s) for s in range(1 << g.n))

    def test_cached_per_graph(self):
        g = k32()
        assert g.subset_edges is g.subset_edges
        assert mg.complete_multigraph(2, 3).subset_edges is not g.subset_edges


class TestGenus:
    def test_triangle(self):
        assert mg.genus(triangle()) == 1

    def test_k32(self):
        # m*C(n,2) - n + 1 at m=2, n=3
        assert mg.genus(k32()) == 4

    def test_tree(self):
        assert mg.genus(path4()) == 0

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            mg.genus(mg.Multigraph([[0, 0], [0, 0]]))

    def test_no_vertex_cap(self):
        path = path_graph(30)
        assert mg.genus(path) == 0
        assert mg.spanning_tree_count(path) == 1


def test_subset_work_over_the_cap_is_a_budget_error():
    path = path_graph(mg.SUBSET_VERTEX_CAP + 1)
    zero = (0,) * path.n
    for call in (
        lambda: mg.is_orientable(path, zero),
        lambda: mg.is_break_divisor(path, zero),
        lambda: mg.enumerate_break_divisors(path),
        lambda: mg.g_parking_bruteforce(path, 0, zero[1:]),
    ):
        with pytest.raises(BudgetExceededError, match="at most 24 vertices"):
            call()
    assert "subset_edges" not in vars(path)


def test_subset_cap_is_inclusive(monkeypatch):
    # a small cap, so the boundary is tested without a 2^24 table
    monkeypatch.setattr(mg, "SUBSET_VERTEX_CAP", 4)
    assert mg.is_break_divisor(path_graph(4), (0,) * 4)
    with pytest.raises(BudgetExceededError, match="at most 4 vertices"):
        mg.is_break_divisor(path_graph(5), (0,) * 5)


SUBSET_PREDICATES = (mg.is_orientable, mg.orientable_subset_bruteforce,
                     mg.is_break_divisor, mg.break_subset_bruteforce)


@pytest.mark.parametrize("predicate", SUBSET_PREDICATES,
                         ids=[f.__name__ for f in SUBSET_PREDICATES])
def test_subset_predicates_check_connected_then_cap_then_length(predicate):
    # each argument below fails every later check too
    cap = mg.SUBSET_VERTEX_CAP + 1
    with pytest.raises(PreconditionError, match="graph must be connected"):
        predicate(mg.Multigraph([[0] * cap for _ in range(cap)]), (0,))
    with pytest.raises(BudgetExceededError, match="at most 24 vertices"):
        predicate(path_graph(cap), (0,))
    with pytest.raises(PreconditionError, match="divisor length 1 != vertex count 3"):
        predicate(triangle(), (0,))


class TestEulerCharSubset:
    def test_whole_triangle(self):
        assert mg.euler_char_subset(triangle(), [0, 1, 2]) == 0

    def test_single_vertex(self):
        assert mg.euler_char_subset(triangle(), [0]) == 1

    def test_parallel_pair(self):
        assert mg.euler_char_subset(k32(), [0, 1]) == 0

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            mg.euler_char_subset(triangle(), [])

    @pytest.mark.parametrize("v", [3, -1])
    def test_out_of_range_vertex_rejected(self, v):
        with pytest.raises(PreconditionError, match=f"vertex {v} out of range"):
            mg.euler_char_subset(triangle(), [0, v])


class TestOrientable:
    def test_cyclic_orientation(self):
        assert mg.is_orientable(triangle(), (0, 0, 0))

    def test_negative_entry_allowed(self):
        assert mg.is_orientable(triangle(), (1, -1, 0))

    def test_degree_mismatch(self):
        single = mg.Multigraph([[0, 1], [1, 0]])
        assert not mg.is_orientable(single, (0, 0))

    def test_orientation_oracle_refuses_more_than_20_edges(self):
        g = mg.Multigraph([[0, 21], [21, 0]])
        with pytest.raises(BudgetExceededError, match="limited to 20 edges"):
            mg.orientable_bruteforce(g, (10, 9))

    def test_agrees_with_orientation_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_connected_multigraph(rng, max_vertices=4, max_extra_edges=3)
            if g.edge_count() > 9:
                continue
            target = g.edge_count() - g.n
            for _ in range(10):
                d = [rng.randint(-1, 2) for _ in range(g.n)]
                d[0] += target - sum(d)
                assert mg.is_orientable(g, d) == mg.orientable_bruteforce(g, d)


# Entries that are not ints, of integral value or not: each is refused,
# never truncated (1.7 once read as 1, so (0, 1.7, 0) passed as a break
# divisor of the triangle).
NON_INTEGERS = [1.7, 1.0, Fraction(3, 2), Fraction(1), "1"]
NON_INTEGER_IDS = ["float", "integral-float", "fraction", "integral-fraction", "str"]


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=NON_INTEGER_IDS)
class TestNonIntegerEntries:
    def test_multiplicity(self, bad):
        with pytest.raises(GraphFormatError, match="multiplicities must be integers"):
            mg.Multigraph([[0, bad], [bad, 0]])

    @pytest.mark.parametrize("predicate", [
        mg.is_break_divisor, mg.break_via_orientability, mg.is_orientable,
        mg.break_subset_bruteforce, mg.orientable_subset_bruteforce,
    ])
    def test_divisor_entry(self, bad, predicate):
        with pytest.raises(PreconditionError, match="divisor entries must be integers"):
            predicate(triangle(), (0, bad, 0))

    @pytest.mark.parametrize("predicate", [mg.is_g_parking, mg.g_parking_bruteforce])
    def test_parking_value(self, bad, predicate):
        with pytest.raises(PreconditionError, match="parking values must be integers"):
            predicate(triangle(), 0, (0, bad))


class TestBreakDivisor:
    def test_paper_member(self):
        assert mg.is_break_divisor(k32(), (2, 2, 0))

    def test_concentrated_fails(self):
        # S = {2, 3} has degree 0 < genus 1 of the induced K_2^2
        assert not mg.is_break_divisor(k32(), (4, 0, 0))

    def test_tree_zero(self):
        assert mg.is_break_divisor(path4(), (0, 0, 0, 0))

    def test_orientability_route_agrees(self):
        for d in knm.compositions(4, 3, 4):
            assert mg.is_break_divisor(k32(), d) == mg.break_via_orientability(
                k32(), d
            )


class TestGParking:
    def test_burning_equals_subset_scan(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_connected_multigraph(rng, max_vertices=6, max_extra_edges=6)
            for q in range(g.n):
                for _ in range(15):
                    a = [rng.randint(-1, 4) for _ in range(g.n - 1)]
                    assert mg.is_g_parking(g, q, a) == mg.g_parking_bruteforce(g, q, a)

    def test_burning_equals_subset_scan_exhaustive(self):
        g = mg.Multigraph(
            [[0, 2, 1, 0], [2, 0, 1, 1], [1, 1, 0, 3], [0, 1, 3, 0]]
        )
        for q in range(g.n):
            for a in itertools.product(range(5), repeat=g.n - 1):
                assert mg.is_g_parking(g, q, a) == mg.g_parking_bruteforce(g, q, a)

    def test_no_vertex_cap(self):
        n = mg.SUBSET_VERTEX_CAP + 6
        path = mg.Multigraph(
            [[1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
        )
        assert mg.is_g_parking(path, 0, (0,) * (n - 1))
        # the far leaf has one edge, so value 1 keeps it from burning
        assert not mg.is_g_parking(path, 0, (0,) * (n - 2) + (1,))

    def test_rejects_bad_arguments(self):
        with pytest.raises(PreconditionError):
            mg.is_g_parking(triangle(), 3, (0, 0))
        with pytest.raises(PreconditionError):
            mg.is_g_parking(triangle(), 0, (0,))
        with pytest.raises(PreconditionError):
            mg.is_g_parking(mg.Multigraph([[0, 0], [0, 0]]), 0, (0,))

    def test_classical(self):
        assert mg.is_g_parking(triangle(), 2, (0, 1))

    def test_all_maximal_fails(self):
        assert not mg.is_g_parking(triangle(), 2, (1, 1))

    def test_zero_always_parks(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_connected_multigraph(rng)
            assert mg.is_g_parking(g, 0, (0,) * (g.n - 1))

    def test_increment_breaks_maximal(self):
        # bump every coordinate of a maximal parking function by one
        import itertools

        g = k32()
        best = max(
            (
                a
                for a in itertools.product(range(5), repeat=2)
                if mg.is_g_parking(g, 2, a)
            ),
            key=sum,
        )
        bumped = tuple(x + 1 for x in best)
        assert not mg.is_g_parking(g, 2, bumped)


class TestEnumeration:
    def test_k32_twelve(self):
        divs = list(mg.enumerate_break_divisors(k32()))
        assert len(divs) == 12
        expected = {
            (3, 1, 0), (3, 0, 1), (1, 3, 0), (1, 0, 3), (0, 3, 1), (0, 1, 3),
            (2, 2, 0), (2, 0, 2), (0, 2, 2),
            (2, 1, 1), (1, 2, 1), (1, 1, 2),
        }
        assert set(divs) == expected

    def test_sorted_output(self):
        divs = list(mg.enumerate_break_divisors(k32()))
        assert divs == sorted(divs)

    def test_tree_single(self):
        assert list(mg.enumerate_break_divisors(path4())) == [(0, 0, 0, 0)]

    def test_cycle4(self):
        c4 = mg.Multigraph(
            [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
        )
        assert len(list(mg.enumerate_break_divisors(c4))) == 4

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            mg.enumerate_break_divisors(mg.complete_multigraph(3, 6), budget=10)

    def test_verify_scan_checks_the_same_compositions(self):
        # one check of C(g+n-1, n-1), named alike in both: g = 9, n = 4
        with pytest.raises(BudgetExceededError) as enumerated:
            mg.enumerate_break_divisors(mg.complete_multigraph(2, 4), budget=219)
        with pytest.raises(BudgetExceededError) as scanned:
            verify._scan_budget(knm.KnmParams(2, 4), 219)
        assert str(enumerated.value) == str(scanned.value) == (
            "|compositions of 9 into 4 parts| = 220 exceeds budget 219")

    def test_budget_checked_before_table(self):
        g = mg.complete_multigraph(3, 6)
        with pytest.raises(BudgetExceededError):
            mg.enumerate_break_divisors(g, budget=10)
        assert "subset_edges" not in vars(g)

    def test_default_budget_is_the_set_budget(self):
        # K_7^2 has genus 36 and C(42, 6) = 5,245,786 candidates, over the
        # default budget of 2,000,000; no table is built before the check
        g = mg.complete_multigraph(2, 7)
        with pytest.raises(BudgetExceededError) as exc:
            mg.enumerate_break_divisors(g)
        assert str(exc.value) == (
            "|compositions of 36 into 7 parts| = 5245786 exceeds budget 2000000"
        )
        assert not {"subset_edges", "_packed_subset_edges", "_lane_ones"} & set(vars(g))

    def test_single_vertex(self):
        assert list(mg.enumerate_break_divisors(mg.Multigraph([[0]]))) == [(0,)]

    def test_equals_orientation_definition(self):
        """Break divisors are the effective d of degree genus with
        d - (q) orientable for every q, checked by scanning orientations."""
        rng = random.Random(31)
        checked = 0
        while checked < 12:
            g = random_connected_multigraph(rng, max_vertices=5, max_extra_edges=5)
            if g.edge_count() > 10:
                continue
            gen = mg.genus(g)
            expected = [
                d
                for d in knm.compositions(gen, g.n, gen)
                if all(
                    mg.orientable_bruteforce(
                        g, [x - (v == q) for v, x in enumerate(d)]
                    )
                    for q in range(g.n)
                )
            ]
            assert list(mg.enumerate_break_divisors(g)) == expected
            checked += 1

    def test_count_equals_spanning_trees_on_8_vertices(self):
        rng = random.Random(37)
        for _ in range(10):
            g = random_simple_graph(rng, 8, 7)
            assert mg.genus(g) == 7
            divs = list(mg.enumerate_break_divisors(g))
            assert len(divs) == mg.spanning_tree_count(g)
            assert divs == sorted(divs)


class TestSpanningTrees:
    def test_triangle(self):
        assert mg.spanning_tree_count(triangle()) == 3

    def test_tree(self):
        assert mg.spanning_tree_count(path4()) == 1

    @pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (3, 4), (2, 5), (3, 5)])
    def test_complete_multigraph_formula(self, m, n):
        assert mg.spanning_tree_count(mg.complete_multigraph(m, n)) == (
            m ** (n - 1) * n ** (n - 2)
        )

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError, match="graph must be connected"):
            mg.spanning_tree_count(mg.Multigraph([[0, 0], [0, 0]]))

    def test_matches_break_count(self):
        rng = random.Random(11)
        for _ in range(15):
            g = random_connected_multigraph(rng, max_extra_edges=3)
            assert len(list(mg.enumerate_break_divisors(g))) == mg.spanning_tree_count(g)


def fraction_determinant(rows) -> Fraction:
    """Gaussian elimination over Fraction, with row swaps."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((r for r in range(k, len(a)) if a[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, len(a)):
            factor = a[r][k] / a[k][k]
            for c in range(k, len(a)):
                a[r][c] -= factor * a[k][c]
    return det


@st.composite
def multigraphs_up_to_9_vertices(draw):
    """Graphs on 1 to 9 vertices, connected or not; each pair is absent,
    of small multiplicity or of multiplicity up to 10^12."""
    n = draw(st.integers(1, 9))
    mult = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        mult[i][j] = mult[j][i] = draw(
            st.one_of(st.just(0), st.integers(1, 3), st.integers(1, 10**12))
        )
    return mg.Multigraph(mult)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(multigraphs_up_to_9_vertices())
def test_spanning_tree_count_is_the_reduced_laplacian_determinant(g):
    """The Matrix-Tree theorem against an independent determinant: the
    elimination without pivoting gives the determinant on every
    connected graph, and a zero determinant means a disconnected graph,
    which is refused."""
    laplacian = [[sum(g.mult[i]) if i == j else -g.mult[i][j] for j in range(g.n - 1)]
                 for i in range(g.n - 1)]
    det = fraction_determinant(laplacian)
    if det == 0:
        with pytest.raises(PreconditionError, match="graph must be connected"):
            mg.spanning_tree_count(g)
    else:
        assert mg.spanning_tree_count(g) == det


class TestGraphFile:
    def test_roundtrip(self):
        text = "3\n1 2 2\n1 3 2\n2 3 2\n"
        assert mg.parse_graph_file(text) == k32()

    def test_comments_and_blanks(self):
        text = "# triangle\n3\n\n1 2 1  # edge\n1 3 1\n2 3 1\n"
        assert mg.parse_graph_file(text) == triangle()

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x",
            "2\n1 1 1",
            "2\n2 1 1",
            "2\n1 2 1\n1 2 2",
            "2\n1 3 1",
            "2\n1 2",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(GraphFormatError):
            mg.parse_graph_file(text)

    @pytest.mark.parametrize("text, adjacent, n", [
        ("200", 0, 200),
        ("3\n1 2 1\n", 1, 3),
        ("4\n1 2 1\n2 3 0\n3 4 2\n", 2, 4),
    ])
    def test_rejects_too_few_adjacent_pairs(self, text, adjacent, n):
        with pytest.raises(GraphFormatError) as exc:
            mg.parse_graph_file(text)
        assert str(exc.value) == (
            f"{adjacent} pairs of positive multiplicity cannot connect {n} vertices"
        )

    def test_a_malformed_line_is_named_before_the_pair_count(self):
        with pytest.raises(GraphFormatError, match="self-loop in '1 1 2'"):
            mg.parse_graph_file("3\n1 1 2\n")

    @pytest.mark.parametrize("text", ["1", "2\n1 2 1", "3\n1 2 1\n2 3 1\n1 3 0"])
    def test_accepts_n_minus_1_adjacent_pairs(self, text):
        assert mg.parse_graph_file(text).is_connected()


@st.composite
def multigraphs(draw, max_vertices=8):
    n = draw(st.integers(2, max_vertices))
    mult = [[0] * n for _ in range(n)]
    for v in range(1, n):
        w = draw(st.integers(0, v - 1))
        mult[v][w] = mult[w][v] = draw(st.integers(1, 2))
    pairs = list(itertools.combinations(range(n), 2))
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=6)):
        mult[i][j] = mult[j][i] = min(mult[i][j] + 1, 3)
    return mg.Multigraph(mult)


@st.composite
def graphs_with_divisor(draw):
    g = draw(multigraphs())
    gen = mg.genus(g)
    cuts = sorted(draw(st.lists(st.integers(0, gen), min_size=g.n - 1, max_size=g.n - 1)))
    d = [b - a for a, b in zip([0] + cuts, cuts + [gen])]
    return g, d


@settings(derandomize=True, max_examples=60, deadline=None)
@given(graphs_with_divisor())
def test_table_and_break_test_against_oracles(case):
    g, d = case
    assert g.subset_edges == [mg._internal_edges(g, s) for s in range(1 << g.n)]
    assert mg.is_break_divisor(g, d) == mg.break_via_orientability(g, d)


def lanes(g, packed):
    """The 2^n lanes of a packed subset table of g, lowest mask first."""
    w = g._lane_bits
    return [(packed >> (w * s)) & ((1 << w) - 1) for s in range(1 << g.n)]


PACKED_CACHE = ("_lane_bits", "_lane_ones", "_lane_guard", "_packed_subset_edges")


class TestPackedKernel:
    @pytest.mark.parametrize("edges, lane_bits", [(126, 8), (127, 16), (254, 16)])
    def test_guard_bit_boundary(self, edges, lane_bits):
        # |E| + 1 = 127 is the largest lane value one byte holds below
        # its guard bit; at 128 and 255 the lane takes two bytes
        g = mg.Multigraph(
            [[0, edges // 2, edges - edges // 2 - 1], [edges // 2, 0, 1],
             [edges - edges // 2 - 1, 1, 0]]
        )
        assert g.edge_count() == edges
        assert g._lane_bits == lane_bits
        assert lanes(g, g._packed_subset_edges) == g.subset_edges
        gen = mg.genus(g)
        for d in knm.compositions(gen, 3, gen):
            assert mg.is_break_divisor(g, d) == mg.break_subset_bruteforce(g, d)
            e = (d[0] - 1, *d[1:])
            assert mg.is_orientable(g, e) == mg.orientable_subset_bruteforce(g, e)

    def test_multiplicity_one_million(self):
        big = 10**6
        g = mg.Multigraph([[0, big, 1], [big, 0, big], [1, big, 0]])
        assert g._lane_bits == 24
        assert lanes(g, g._packed_subset_edges) == g.subset_edges
        gen = mg.genus(g)
        for d in [(gen, 0, 0), (0, gen, 0), (big, 0, gen - big), (big - 1, 1, gen - big),
                  (gen // 3, gen // 3, gen - 2 * (gen // 3)), (gen + 1, -1, 0)]:
            assert mg.is_break_divisor(g, d) == mg.break_subset_bruteforce(g, d)
            e = (d[0] - 1, *d[1:])
            assert mg.is_orientable(g, e) == mg.orientable_subset_bruteforce(g, e)
        assert mg.is_break_divisor(g, (big, 0, gen - big))
        assert not mg.is_break_divisor(g, (gen, 0, 0))

    def test_one_vertex(self):
        g = mg.Multigraph([[0]])
        assert lanes(g, g._packed_subset_edges) == [0, 0]
        assert mg.is_break_divisor(g, (0,))
        assert not mg.is_break_divisor(g, (1,))
        assert mg.is_orientable(g, (-1,))
        assert not mg.is_orientable(g, (0,))
        assert list(mg.enumerate_break_divisors(g)) == [(0,)]

    def test_minus_one_and_minus_two(self):
        g = triangle()
        assert mg.is_orientable(g, (1, -1, 0))
        assert not mg.is_orientable(g, (2, -2, 0))
        assert not mg.orientable_subset_bruteforce(g, (2, -2, 0))
        assert not mg.is_break_divisor(g, (2, -1, 0))
        star = mg.Multigraph([[0, 2, 2], [2, 0, 0], [2, 0, 0]])
        # the centre takes all four edges, each leaf none
        assert mg.is_orientable(star, (3, -1, -1))
        assert not mg.is_orientable(star, (4, -2, -1))
        # every divisor of the right degree with entries down to -3: an
        # entry below -1 must not reach the unsigned lanes
        for g in (path_graph(3), star, k32()):
            target = g.edge_count() - g.n
            for head in itertools.product(range(-3, 5), repeat=g.n - 1):
                d = (*head, target - sum(head))
                assert mg.is_orientable(g, d) == mg.orientable_subset_bruteforce(g, d)

    @pytest.mark.parametrize(
        "call",
        [mg.is_orientable, mg.is_break_divisor, mg.orientable_subset_bruteforce,
         mg.break_subset_bruteforce],
    )
    def test_wrong_length(self, call):
        with pytest.raises(PreconditionError, match=r"divisor length 2 != vertex count 3"):
            call(triangle(), (0, 0))

    def test_over_the_cap_leaves_no_packed_table(self):
        path = path_graph(25)
        for call in (mg.is_orientable, mg.is_break_divisor, mg.break_via_orientability):
            with pytest.raises(BudgetExceededError, match="at most 24 vertices"):
                call(path, (0,) * 25)
        with pytest.raises(BudgetExceededError, match="at most 24 vertices"):
            mg.enumerate_break_divisors(path)
        assert not set(PACKED_CACHE + ("subset_edges",)) & set(vars(path))

    def test_predicates_build_no_list_table(self):
        g = mg.complete_multigraph(2, 5)
        gen = mg.genus(g)
        mg.is_break_divisor(g, (gen, 0, 0, 0, 0))
        mg.is_orientable(g, (gen - 1, 0, 0, 0, 0))
        mg.break_via_orientability(g, (gen, 0, 0, 0, 0))
        mg.enumerate_break_divisors(g)
        assert "subset_edges" not in vars(g)
        assert set(PACKED_CACHE) <= set(vars(g))


@st.composite
def packed_cases(draw):
    """A connected multigraph on up to 9 vertices with multiplicities up
    to 300, and a divisor: random entries from -3 to genus + 2, indeg - 1
    of an orientation, or one chip on an endpoint of each edge outside a
    spanning tree (a break divisor); the last two sometimes with one chip
    moved, which can leave some S with equality or a vertex at -2, or
    with one chip more or less."""
    n = draw(st.integers(1, 9))
    mult = [[0] * n for _ in range(n)]
    tree = set()
    for v in range(1, n):
        w = draw(st.integers(0, v - 1))
        mult[v][w] = mult[w][v] = draw(st.integers(1, 300))
        tree.add((w, v))
    pairs = list(itertools.combinations(range(n), 2))
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else ():
        mult[i][j] = mult[j][i] = draw(st.integers(1, 300))
    g = mg.Multigraph(mult)
    gen = mg.genus(g)
    kind = draw(st.sampled_from(["random", "orientation", "tree"]))
    if kind == "random":
        return g, draw(st.lists(st.integers(-3, gen + 2), min_size=n, max_size=n))
    d = [-1 if kind == "orientation" else 0] * n
    for i, j in pairs:
        copies = mult[i][j] - (kind == "tree" and (i, j) in tree)
        heads = draw(st.integers(0, copies))
        d[j] += heads
        d[i] += copies - heads
    # sometimes one chip moves from a to b, or one goes or comes
    take, give = draw(st.sampled_from([(0, 0), (1, 1), (1, 1), (1, 0), (0, 1)]))
    d[draw(st.integers(0, n - 1))] -= take
    d[draw(st.integers(0, n - 1))] += give
    return g, d


@settings(derandomize=True, max_examples=200, deadline=None)
@given(packed_cases())
def test_orientability_route_against_its_definition(case):
    # one packing of D and one lane subtraction per q, against
    # is_orientable on each D - (q), entries at -1 and wrong degrees too
    g, d = case
    shifted = [[x - (v == q) for v, x in enumerate(d)] for q in range(g.n)]
    assert mg.break_via_orientability(g, d) == all(
        mg.is_orientable(g, e) for e in shifted)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(packed_cases())
def test_packed_kernel_against_list_oracles(case):
    g, d = case
    packed = g._packed_subset_edges
    assert lanes(g, packed) == g.subset_edges
    assert packed >> (g._lane_bits << g.n) == 0
    assert mg.is_orientable(g, d) == mg.orientable_subset_bruteforce(g, d)
    assert mg.is_break_divisor(g, d) == mg.break_subset_bruteforce(g, d)
