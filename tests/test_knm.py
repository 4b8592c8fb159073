import itertools
import random

import pytest

from breakpark import counting, knm
from breakpark import multigraph as mg
from breakpark.errors import BudgetExceededError, PreconditionError


def params(m, n):
    return knm.KnmParams(m, n)


class TestParams:
    def test_derived_quantities(self):
        p = params(2, 3)
        assert p.N == 6
        assert p.genus == 4
        assert p.delta == (3, 1, 0)

    def test_delta_sums_to_genus(self):
        for m in range(1, 4):
            for n in range(1, 7):
                p = params(m, n)
                assert sum(p.delta) == p.genus

    def test_rejects_bad_params(self):
        with pytest.raises(PreconditionError):
            knm.KnmParams(0, 3)

    def test_delta_and_prefix_cached(self):
        p = params(3, 5)
        assert p.delta is p.delta
        assert p.delta_prefix is p.delta_prefix
        assert p.delta_prefix == (11, 19, 24, 26, 26)
        assert p.delta_prefix[-1] == p.genus

    def test_cache_keeps_equality_and_hash(self):
        p, q = params(2, 4), params(2, 4)
        p.delta_prefix
        assert p == q and hash(p) == hash(q)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 5), (4, 6)])
    def test_break_count(self, m, n):
        assert knm.break_count(params(m, n)) == m ** (n - 1) * n ** max(n - 2, 0)


class TestBreakMembership:
    def test_paper_tuple(self):
        assert knm.is_break_mn(params(2, 3), (3, 1, 0))

    def test_prefix_violation(self):
        assert not knm.is_break_mn(params(2, 3), (4, 0, 0))

    def test_delta_itself(self):
        for m in range(1, 4):
            for n in range(1, 6):
                p = params(m, n)
                assert knm.is_break_mn(p, p.delta)

    @pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)])
    def test_agrees_with_subset_test(self, m, n):
        p = params(m, n)
        g = mg.complete_multigraph(m, n)
        for d in knm.compositions(p.genus, n, p.genus):
            assert knm.is_break_mn(p, d) == mg.is_break_divisor(g, d)


def test_compositions_lexicographic():
    assert list(knm.compositions(2, 3, 1)) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert list(knm.compositions(0, 0, 5)) == [()]
    assert list(knm.compositions(1, 0, 5)) == []
    assert list(knm.compositions(3, 1, 2)) == []
    for total, parts, bound in [(4, 3, 4), (5, 4, 2), (0, 2, 3)]:
        expected = [
            c
            for c in itertools.product(range(bound + 1), repeat=parts)
            if sum(c) == total
        ]
        assert list(knm.compositions(total, parts, bound)) == expected


class TestParkingMembership:
    def test_paper_bound(self):
        assert knm.is_parking_mn(params(2, 3), (0, 3))

    def test_sorted_bound_violation(self):
        assert not knm.is_parking_mn(params(2, 3), (2, 2))

    def test_zero_always(self):
        for m in range(1, 4):
            for n in range(2, 6):
                assert knm.is_parking_mn(params(m, n), (0,) * (n - 1))

    @pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)])
    def test_agrees_with_g_parking(self, m, n):
        p = params(m, n)
        g = mg.complete_multigraph(m, n)
        bound = m * (n - 1)
        for a in itertools.product(range(bound + 1), repeat=n - 1):
            assert knm.is_parking_mn(p, a) == mg.is_g_parking(g, n - 1, a)


class TestEnumerations:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cardinalities(self, m, n):
        p = params(m, n)
        expected = m ** (n - 1) * n ** max(n - 2, 0)
        assert len(knm.enumerate_break(p)) == expected
        assert len(knm.enumerate_parking(p)) == expected
        assert len(knm.enumerate_residue_tuples(p)) == p.N ** (n - 1)

    def test_break_23_exact(self):
        expected = sorted(
            set(itertools.permutations((3, 1, 0)))
            | set(itertools.permutations((2, 2, 0)))
            | set(itertools.permutations((2, 1, 1)))
        )
        assert knm.enumerate_break(params(2, 3)) == expected

    def test_n1_degenerate(self):
        p = params(3, 1)
        assert knm.enumerate_break(p) == [(0,)]
        assert knm.enumerate_parking(p) == [()]
        assert knm.enumerate_residue_tuples(p) == [(0,)]

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            knm.enumerate_residue_tuples(params(3, 5), budget=100)


ORACLE_RANGE = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3, 4, 5)] + [(2, 6)]


class TestOrbitGeneration:
    @pytest.mark.parametrize("m,n", ORACLE_RANGE)
    def test_break_reps_are_orbit_keys_of_scan(self, m, n):
        p = params(m, n)
        scanned = knm.enumerate_break_bruteforce(p)
        assert knm.break_orbit_reps(p) == sorted(
            {knm.sort_orbit_key(d) for d in scanned}
        )

    @pytest.mark.parametrize("m,n", ORACLE_RANGE)
    def test_parking_reps_are_orbit_keys_of_scan(self, m, n):
        p = params(m, n)
        scanned = knm.enumerate_parking_bruteforce(p)
        assert knm.parking_orbit_reps(p) == sorted(
            {knm.sort_orbit_key(a) for a in scanned}
        )

    @pytest.mark.parametrize("m,n", ORACLE_RANGE)
    def test_enumerations_equal_scans(self, m, n):
        p = params(m, n)
        assert knm.enumerate_break(p) == list(knm.enumerate_break_bruteforce(p))
        assert knm.enumerate_parking(p) == list(knm.enumerate_parking_bruteforce(p))

    def test_orbit_count_is_dt(self):
        # S_n-orbits of break divisors are counted by DT_n of the
        # (m+1)-loop quiver, checked past the reach of the scans
        for m in range(1, 4):
            for n in range(1, 9):
                assert len(knm.break_orbit_reps(params(m, n))) == (
                    counting.dt_invariant(m, n)
                ), (m, n)

    def test_reps_are_weakly_decreasing(self):
        p = params(3, 6)
        for rep in knm.break_orbit_reps(p) + knm.parking_orbit_reps(p):
            assert list(rep) == sorted(rep, reverse=True)

    def test_break_reps_23(self):
        assert knm.break_orbit_reps(params(2, 3)) == [(2, 1, 1), (2, 2, 0), (3, 1, 0)]

    def test_parking_reps_23(self):
        # increasing a~ with a~_1 <= 1, a~_2 <= 3, reversed
        assert knm.parking_orbit_reps(params(2, 3)) == [
            (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1),
        ]

    def test_scans_keep_one_case_without_copying(self):
        p = params(2, 4)
        first = knm.enumerate_break_bruteforce(p)
        assert knm.enumerate_break_bruteforce(p) is first
        assert knm.enumerate_parking_bruteforce(p) is knm.enumerate_parking_bruteforce(p)
        knm.enumerate_break_bruteforce(params(2, 3))
        assert knm._scan_break.cache_info().currsize == 1
        assert knm._scan_parking.cache_info().maxsize == 1

    def test_budget_checked_before_work(self):
        p = params(3, 6)
        for enumerate_set in (
            knm.enumerate_break,
            knm.enumerate_parking,
            knm.enumerate_break_bruteforce,
            knm.enumerate_parking_bruteforce,
        ):
            with pytest.raises(BudgetExceededError):
                enumerate_set(p, budget=100)


class TestShift:
    def test_example_23(self):
        assert knm.shift(params(2, 3), (2, 2, 0)) == (4, 4, 2)

    def test_example_35(self):
        assert knm.shift(params(3, 5), (3, 13, 7, 13, 5)) == (6, 1, 10, 1, 8)

    def test_order_n(self):
        p = params(3, 4)
        x = (0, 1, 2, 0)
        cur = x
        for _ in range(p.n):
            cur = knm.shift(p, cur)
        assert cur == x

    def test_class_members_23(self):
        cls = knm.shift_class(params(2, 3), (2, 2, 0))
        assert set(cls) == {(2, 2, 0), (4, 4, 2), (0, 0, 4)}

    def test_class_members_35(self):
        cls = knm.shift_class(params(3, 5), (3, 13, 7, 13, 5))
        assert set(cls) == {
            (3, 13, 7, 13, 5),
            (6, 1, 10, 1, 8),
            (9, 4, 13, 4, 11),
            (12, 7, 1, 7, 14),
            (0, 10, 4, 10, 2),
        }

    def test_class_key_is_lex_min(self):
        cls = knm.shift_class(params(2, 3), (4, 4, 2))
        assert cls[0] == min(cls)

    def test_invalid_tuple_rejected(self):
        with pytest.raises(PreconditionError):
            knm.shift(params(2, 3), (0, 0, 2))


class TestRepresentatives:
    def test_break_rep_23(self):
        assert knm.break_representative(params(2, 3), (0, 0, 4)) == (2, 2, 0)

    def test_break_rep_35(self):
        p = params(3, 5)
        assert knm.break_representative(p, (3, 13, 7, 13, 5)) == (6, 1, 10, 1, 8)

    def test_break_rep_fixed_point(self):
        p = params(2, 3)
        for b in knm.enumerate_break(p):
            assert knm.break_representative(p, b) == b

    def test_parking_rep_35(self):
        p = params(3, 5)
        assert knm.parking_representative(p, (3, 13, 7, 13, 5)) == (6, 1, 10, 1)

    def test_parking_rep_23(self):
        assert knm.parking_representative(params(2, 3), (2, 2, 0)) == (0, 0)

    def test_parking_rep_fixed_point(self):
        p = params(2, 4)
        for x in knm.enumerate_residue_tuples(p):
            if knm.is_parking_mn(p, x[:3]):
                assert knm.parking_representative(p, x) == x[:3]

    def test_last_coordinate_unused(self):
        # perturbing the last coordinate never changes the output
        p = params(2, 4)
        head = (3, 5, 0)
        reps = {
            knm.parking_representative(p, head + (t,)) for t in range(p.N)
        }
        assert len(reps) == 1

    def test_equivariance(self):
        # permuting the first n-1 coordinates permutes the parking rep
        p = params(2, 4)
        rng = random.Random(5)
        tuples = rng.sample(knm.enumerate_residue_tuples(p), 40)
        for x in tuples:
            for sigma in itertools.permutations(range(p.n - 1)):
                y = tuple(x[sigma[i]] for i in range(p.n - 1)) + (x[-1],)
                rep = knm.parking_representative(p, x)
                assert knm.parking_representative(p, y) == tuple(
                    rep[sigma[i]] for i in range(p.n - 1)
                )


class TestCircularPark:
    def test_paper_example(self):
        assert knm.circular_park((3, 13, 7, 13), 15) == {3, 7, 13, 14}

    def test_empty(self):
        assert knm.circular_park((), 5) == set()

    def test_collision_rolls_forward(self):
        assert knm.circular_park((0, 0), 6) == {0, 1}

    def test_wraparound(self):
        assert knm.circular_park((5, 5), 6) == {5, 0}

    def test_too_many_cars(self):
        with pytest.raises(PreconditionError):
            knm.circular_park((0, 1, 2), 3)


class TestShiftClassStructure:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_partition_into_classes(self, m, n):
        p = params(m, n)
        classes = knm.shift_classes(p)
        assert len(classes) == p.N ** (n - 1) // n
        seen = set()
        for cls in classes:
            assert len(cls) == n
            members = set(cls)
            assert not members & seen
            seen |= members
            breaks = [a for a in cls if knm.is_break_mn(p, a)]
            parks = [a for a in cls if knm.is_parking_mn(p, a[: n - 1])]
            assert len(breaks) == 1
            assert len(parks) == 1
        assert len(seen) == p.N ** (n - 1)


class TestSortOrbitKey:
    def test_already_sorted(self):
        assert knm.sort_orbit_key((2, 2, 0)) == (2, 2, 0)

    def test_resort(self):
        assert knm.sort_orbit_key((0, 0, 2)) == (2, 0, 0)

    def test_longer(self):
        assert knm.sort_orbit_key((3, 13, 7, 13, 5)) == (13, 13, 7, 5, 3)
