import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from breakpark import knm
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
    def test_rejects_asymmetric(self):
        with pytest.raises(GraphFormatError):
            mg.Multigraph([[0, 1], [2, 0]])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            mg.Multigraph([[1, 1], [1, 0]])

    def test_rejects_negative(self):
        with pytest.raises(GraphFormatError):
            mg.Multigraph([[0, -1], [-1, 0]])

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


class TestOrientable:
    def test_cyclic_orientation(self):
        assert mg.is_orientable(triangle(), (0, 0, 0))

    def test_negative_entry_allowed(self):
        assert mg.is_orientable(triangle(), (1, -1, 0))

    def test_degree_mismatch(self):
        single = mg.Multigraph([[0, 1], [1, 0]])
        assert not mg.is_orientable(single, (0, 0))

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
        divs = mg.enumerate_break_divisors(k32())
        assert len(divs) == 12
        expected = {
            (3, 1, 0), (3, 0, 1), (1, 3, 0), (1, 0, 3), (0, 3, 1), (0, 1, 3),
            (2, 2, 0), (2, 0, 2), (0, 2, 2),
            (2, 1, 1), (1, 2, 1), (1, 1, 2),
        }
        assert set(divs) == expected

    def test_sorted_output(self):
        divs = mg.enumerate_break_divisors(k32())
        assert divs == sorted(divs)

    def test_tree_single(self):
        assert mg.enumerate_break_divisors(path4()) == [(0, 0, 0, 0)]

    def test_cycle4(self):
        c4 = mg.Multigraph(
            [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
        )
        assert len(mg.enumerate_break_divisors(c4)) == 4

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            mg.enumerate_break_divisors(mg.complete_multigraph(3, 6), budget=10)

    def test_budget_checked_before_table(self):
        g = mg.complete_multigraph(3, 6)
        with pytest.raises(BudgetExceededError):
            mg.enumerate_break_divisors(g, budget=10)
        assert "subset_edges" not in vars(g)

    def test_single_vertex(self):
        assert mg.enumerate_break_divisors(mg.Multigraph([[0]])) == [(0,)]

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
            assert mg.enumerate_break_divisors(g) == expected
            checked += 1

    def test_count_equals_spanning_trees_on_8_vertices(self):
        rng = random.Random(37)
        for _ in range(10):
            g = random_simple_graph(rng, 8, 7)
            assert mg.genus(g) == 7
            divs = mg.enumerate_break_divisors(g)
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

    def test_matches_break_count(self):
        rng = random.Random(11)
        for _ in range(15):
            g = random_connected_multigraph(rng, max_extra_edges=3)
            assert len(mg.enumerate_break_divisors(g)) == mg.spanning_tree_count(g)


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
