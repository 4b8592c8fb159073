import itertools
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from breakpark import counting, errors, knm, verify
from breakpark.reptheory import perm_module_h_expansion
from breakpark import multigraph as mg
from breakpark.errors import (
    BudgetExceededError,
    InternalInvariantError,
    PreconditionError,
)


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

    def test_value_semantics(self):
        p = params(2, 3)
        assert p == params(2, 3) == knm.KnmParams(m=2, n=3)
        assert p != params(3, 2) and p != params(2, 4)
        assert p != (2, 3)
        assert hash(p) == hash(params(2, 3))
        assert len({p, params(2, 3), params(3, 2)}) == 2
        assert repr(p) == "KnmParams(m=2, n=3)"

    @pytest.mark.parametrize("name", ["m", "n", "genus", "other"])
    def test_read_only(self, name):
        p = params(2, 3)
        p.genus
        with pytest.raises(AttributeError):
            setattr(p, name, 5)
        with pytest.raises(AttributeError):
            delattr(p, name)
        assert (p.m, p.n, p.genus) == (2, 3, 4)

    @pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (-1, 2), (0, 0)])
    def test_rejects_m_or_n_below_one(self, m, n):
        with pytest.raises(PreconditionError):
            knm.KnmParams(m, n)

    def test_derived_values_equal_closed_forms(self):
        for m in range(1, 5):
            for n in range(1, 8):
                p = params(m, n)
                assert p.N == m * n
                assert p.genus == m * n * (n - 1) // 2 - n + 1
                assert p.delta == tuple(
                    m * (n - 1 - i) - 1 for i in range(n - 1)
                ) + (0,)
                assert p.delta_prefix == tuple(
                    sum(p.delta[: i + 1]) for i in range(n)
                )

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 5), (4, 6)])
    def test_break_count(self, m, n):
        assert knm.break_count(params(m, n)) == m ** (n - 1) * n ** max(n - 2, 0)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 5), (4, 6)])
    def test_residue_count(self, m, n):
        assert knm.residue_count(params(m, n)) == (m * n) ** (n - 1)


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


class TestPredicateEntries:
    """`is_break_mn` and `is_parking_mn` refuse what `errors.as_ints`
    refuses, whatever the entries sum to, and give int-likes the verdict
    of the equal ints."""

    @pytest.mark.parametrize("pred,x", [
        ("is_break_mn", (2.5, 1.5, 0)),
        ("is_break_mn", (Fraction(5, 2), Fraction(3, 2), 0)),
        ("is_parking_mn", (0.5, 1.5)),
        ("is_parking_mn", (Fraction(1, 2), Fraction(3, 2))),
    ], ids=str)
    def test_halves_summing_to_an_int_are_refused(self, pred, x):
        with pytest.raises(PreconditionError, match="must be integers"):
            getattr(knm, pred)(params(2, 3), x)

    @pytest.mark.parametrize("kind", [float, Fraction, Decimal, str],
                             ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize("pred,x", [
        ("is_break_mn", (3, 1, 0)), ("is_break_mn", (4, 0, 0)),
        ("is_parking_mn", (0, 3)), ("is_parking_mn", (2, 2)),
    ], ids=str)
    def test_integral_values_of_other_types_are_refused(self, pred, x, kind):
        with pytest.raises(PreconditionError, match="must be integers"):
            getattr(knm, pred)(params(2, 3), (kind(x[0]),) + x[1:])

    @pytest.mark.parametrize("kind", ["bool", "numpy.int64"])
    def test_int_likes_get_the_verdict_of_the_equal_ints(self, kind):
        if kind == "bool":
            def like(v):
                return bool(v) if v < 2 else v
        else:
            like = pytest.importorskip("numpy").int64
        p = params(2, 3)
        for d in itertools.product(range(5), repeat=3):
            assert knm.is_break_mn(p, tuple(map(like, d))) == knm.is_break_mn(p, d)
            a = d[:2]
            assert knm.is_parking_mn(p, tuple(map(like, a))) == knm.is_parking_mn(p, a)


class TestEnumerations:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cardinalities(self, m, n):
        p = params(m, n)
        expected = m ** (n - 1) * n ** max(n - 2, 0)
        assert len(list(knm.enumerate_break(p))) == expected
        assert len(list(knm.enumerate_parking(p))) == expected
        assert len(list(knm.enumerate_residue_tuples(p))) == p.N ** (n - 1)

    def test_break_23_exact(self):
        expected = sorted(
            set(itertools.permutations((3, 1, 0)))
            | set(itertools.permutations((2, 2, 0)))
            | set(itertools.permutations((2, 1, 1)))
        )
        assert list(knm.enumerate_break(params(2, 3))) == expected

    def test_n1_degenerate(self):
        p = params(3, 1)
        assert list(knm.enumerate_break(p)) == [(0,)]
        assert list(knm.enumerate_parking(p)) == [()]
        assert list(knm.enumerate_residue_tuples(p)) == [(0,)]

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            knm.enumerate_residue_tuples(params(3, 5), budget=100)

    @pytest.mark.parametrize(
        "size, message",
        [(101, "|D| = 101 exceeds budget 100"),
         (10**100 - 1, f"|D| = {10**100 - 1} exceeds budget 100"),
         (10**100, "|D| > 10^99 exceeds budget 100"),
         (2**10000, "|D| > 10^3010 exceeds budget 100")],
        ids=["small", "below-limit", "at-limit", "2^10000"],
    )
    def test_budget_error_names_an_exact_size_or_a_bound(self, size, message):
        with pytest.raises(BudgetExceededError) as exc:
            errors.check_budget(size, 100, "D")
        assert str(exc.value) == message

    def test_budget_error_bound_is_below_the_size_and_close(self):
        for bits in range(334, 4000, 7):  # 2^333 is the least power of 2 over 10^100
            size = 1 << (bits - 1)  # the least size of that bit length
            with pytest.raises(BudgetExceededError) as exc:
                errors.check_budget(size, 0, "D")
            k = int(str(exc.value).split("^")[1].split()[0])
            assert 10**k < size < 10 ** (k + 2)


ORACLE_RANGE = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3, 4, 5)] + [(2, 6)]
# Shapes the walks' closed forms treat specially: n = 3, where the root of
# the Break walk already has three coordinates left, m large at n = 4, and
# m = 1, where blocks and intervals are narrowest.
WALK_SHAPES = [(20, 3), (50, 3), (10, 4), (1, 7)]


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

    @pytest.mark.parametrize("m,n", ORACLE_RANGE + WALK_SHAPES)
    def test_enumerations_equal_scans(self, m, n):
        p = params(m, n)
        assert list(knm.enumerate_break(p)) == list(knm.enumerate_break_bruteforce(p))
        assert list(knm.enumerate_parking(p)) == list(knm.enumerate_parking_bruteforce(p))

    @pytest.mark.parametrize("n", [1, 2])
    def test_enumerations_equal_scans_below_the_walks(self, n):
        # n = 1 and n = 2 are listed without a walk
        for m in range(1, 101):
            p = params(m, n)
            assert list(knm.enumerate_break(p)) == list(
                knm.enumerate_break_bruteforce(p)), m
            assert list(knm.enumerate_parking(p)) == list(
                knm.enumerate_parking_bruteforce(p)), m

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


def _max_m(n, cap=40, size=50_000):
    """The largest m <= cap with break_count(m, n) <= size."""
    return max(m for m in range(1, cap + 1) if knm.break_count(params(m, n)) <= size)


@st.composite
def params_within_scan_reach(draw):
    n = draw(st.integers(1, 7))
    return params(draw(st.integers(1, _max_m(n))), n)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(params_within_scan_reach())
def test_streamed_enumerations_equal_scans(p):
    assert list(knm.enumerate_break(p)) == list(knm.enumerate_break_bruteforce(p))
    assert list(knm.enumerate_parking(p)) == list(knm.enumerate_parking_bruteforce(p))


@st.composite
def params_with_listable_orbits(draw):
    """(m, n) with m <= 4, n <= 7 whose orbits are few enough to list."""
    return params(draw(st.integers(1, 4)), draw(st.integers(1, 7)))


def listed_types(p):
    """The h-expansions of the listed Break and Park representatives."""
    return (perm_module_h_expansion(knm.break_orbit_reps(p)),
            perm_module_h_expansion(knm.parking_orbit_reps(p)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(params_with_listable_orbits())
def test_orbit_types_equal_the_listed_orbits(p):
    # the same keys in the same (sorted) order, with the same counts
    break_types, park_types = listed_types(p)
    assert list(knm.break_orbit_types(p).items()) == list(break_types.items())
    assert list(knm.parking_orbit_types(p).items()) == list(park_types.items())


def test_closed_park_types_equal_the_listed_orbits():
    # every m <= 6, n <= 9 with at most 50,000 Park orbits (41 cases)
    cases = [p for m in range(1, 7) for n in range(1, 10)
             if knm.parking_orbit_count(p := params(m, n)) <= 50_000]
    assert len(cases) == 41
    for p in cases:
        listed = perm_module_h_expansion(knm.parking_orbit_reps(p))
        assert list(knm.parking_orbit_types(p).items()) == list(listed.items()), p


class TestOrbitTypes:
    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_n1(self, m):
        p = params(m, 1)
        assert knm.break_orbit_types(p) == {(1,): 1}  # the divisor (0)
        assert knm.parking_orbit_types(p) == {(): 1}  # the empty tuple
        assert listed_types(p) == ({(1,): 1}, {(): 1})

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8])
    def test_n2(self, m):
        # Break: (a, m-1-a) with a >= m-1-a, a pair of equal entries when
        # m is odd; Park: (v,) for every v <= m-1
        p = params(m, 2)
        pairs = {(2,): 1} if m % 2 else {}
        if m > 1:
            pairs[(1, 1)] = (m - 1) // 2 + (m % 2 == 0)
        assert knm.break_orbit_types(p) == dict(sorted(pairs.items()))
        assert knm.parking_orbit_types(p) == {(1,): m}
        assert listed_types(p) == (knm.break_orbit_types(p), {(1,): m})

    def test_break_23(self):
        # (2,1,1), (2,2,0) and (3,1,0)
        assert knm.break_orbit_types(params(2, 3)) == {(1, 1, 1): 1, (2, 1): 2}

    def test_orbit_count_is_dt_past_enumeration(self):
        for m in range(1, 4):
            for n in range(1, 15):
                assert sum(knm.break_orbit_types(params(m, n)).values()) == (
                    counting.dt_invariant(m, n)
                ), (m, n)

    def test_parking_orbits_at_n14(self):
        # S_(n-1)-orbits of Park: weakly increasing a~ with a~_i <= m*i - 1,
        # a ballot count; at m = 1 the Catalan number C_(n-1)
        assert sum(knm.parking_orbit_types(params(1, 14)).values()) == 742900

    @pytest.mark.parametrize(
        "orbit_types, m, n, message",
        [(knm.break_orbit_types, 2, 10**6,
          "|Break orbit-type state space| >= 999998000002 exceeds budget 2000000"),
         (knm.break_orbit_types, 1, 40,
          "|Break orbit-type state space| >= 2013788 exceeds budget 2000000")],
        ids=["break-wide", "break-long"],
    )
    def test_state_space_checked_before_the_first_state(
        self, orbit_types, m, n, message
    ):
        # each sweep would run for hours; the check stops it at once and
        # reads no delta: the prefix sums of n = 10^6 are never built
        p = params(m, n)
        with pytest.raises(BudgetExceededError) as exc:
            orbit_types(p)
        assert str(exc.value) == message
        assert "delta_prefix" not in vars(p)

    def test_park_types_closed_at_a_large_m(self):
        # one type, (1,), with m orbits; no sweep over the m(n-1) values
        assert knm.parking_orbit_types(params(10**9, 2)) == {(1,): 10**9}

    @pytest.mark.parametrize("m, n", [(1, 80), (2, 10**6)])
    def test_park_types_refuse_a_large_n(self, m, n):
        # p(n-1) is checked up to the first p(k) over budget, p(65)
        with pytest.raises(BudgetExceededError) as exc:
            knm.parking_orbit_types(params(m, n))
        assert str(exc.value) == (
            f"|partitions of {n - 1}| >= 2012558 exceeds budget 2000000")

    def test_state_space_bound_holds_at_the_budget(self):
        # (2,14): (g + 1) * (p(0) + ... + p(14)) = 170 * 508
        p = params(2, 14)
        assert sum(knm.break_orbit_types(p, budget=170 * 508).values()) == 89898151
        with pytest.raises(BudgetExceededError, match="state space"):
            knm.break_orbit_types(p, budget=170 * 508 - 1)

    @pytest.mark.parametrize(
        "orbit_reps, m, n, message",
        [(knm.break_orbit_reps, 2, 14,
          "|Break orbits| = 89898151 exceeds budget 2000000"),
         (knm.parking_orbit_reps, 2, 12,
          "|Park orbits| = 23841480 exceeds budget 2000000")],
        ids=["break", "park"],
    )
    def test_orbit_reps_check_the_orbit_count_before_listing(
        self, monkeypatch, orbit_reps, m, n, message
    ):
        def refuse(*args):
            raise AssertionError("listed the orbits")

        monkeypatch.setattr(knm, "_lex_walk", refuse)
        with pytest.raises(BudgetExceededError) as exc:
            orbit_reps(params(m, n))
        assert str(exc.value) == message

    def test_orbit_reps_budget_is_the_exact_orbit_count(self):
        # at (2,8) the closed counts are exact: 3828 lists, 3827 refuses
        p = params(2, 8)
        assert len(knm.break_orbit_reps(p, budget=3828)) == 3828
        assert len(knm.parking_orbit_reps(p, budget=21318)) == 21318
        with pytest.raises(BudgetExceededError, match=r"\|Break orbits\| = 3828 "):
            knm.break_orbit_reps(p, budget=3827)
        with pytest.raises(BudgetExceededError, match=r"\|Park orbits\| = 21318 "):
            knm.parking_orbit_reps(p, budget=21317)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_closed_park_count_is_the_orbit_type_sum(self, m):
        for n in range(1, 11):
            p = params(m, n)
            assert knm.parking_orbit_count(p) == sum(
                knm.parking_orbit_types(p).values()), (m, n)

    def test_closed_park_count_at_n14(self):
        assert knm.parking_orbit_count(params(1, 14)) == 742900

    def test_floor_is_below_both_orbit_counts(self):
        for m in range(1, 5):
            for n in range(1, 16):
                floor = (1 << max(n - 2, 0)) // n
                assert floor <= counting.dt_invariant(m, n), (m, n)
                assert floor <= knm.parking_orbit_count(params(m, n)), (m, n)

    @pytest.fixture
    def no_orbit_type_dp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ran an orbit-type DP")

        for name in ("break_orbit_types", "parking_orbit_types",
                     "count_break_types"):
            monkeypatch.setattr(knm, name, refuse)

    @pytest.mark.parametrize(
        "orbit_reps, m, n, message",
        [(knm.break_orbit_reps, 20, 12,
          "|Break orbits| = 34703493898525440 exceeds budget 2000000"),
         (knm.break_orbit_reps, 50, 12,
          "|Break orbits| = 704069629169647758030 exceeds budget 2000000"),
         (knm.parking_orbit_reps, 20, 12,
          "|Park orbits| = 398191483794604500 exceeds budget 2000000"),
         (knm.parking_orbit_reps, 50, 12,
          "|Park orbits| = 8296728854374022939800 exceeds budget 2000000"),
         (knm.parking_orbit_reps, 2, 12,
          "|Park orbits| = 23841480 exceeds budget 2000000")],
        ids=["break-20", "break-50", "park-20", "park-50", "park-2"],
    )
    def test_orbit_reps_refuse_by_the_closed_count(
        self, no_orbit_type_dp, orbit_reps, m, n, message
    ):
        with pytest.raises(BudgetExceededError) as exc:
            orbit_reps(params(m, n))
        assert str(exc.value) == message

    def test_orbit_reps_list_past_the_state_space_bound(self, no_orbit_type_dp):
        # (1000,2): 500 and 1000 orbits, in budget, though the Break state
        # space, (g + 1) * (p(0) + p(1) + p(2)) = 4000, is not
        p = params(1000, 2)
        assert len(knm.break_orbit_reps(p, budget=1000)) == 500
        assert len(knm.parking_orbit_reps(p, budget=1000)) == 1000

    @pytest.mark.parametrize(
        "orbit_reps, m, n, message",
        [(knm.break_orbit_reps, 1, 30,
          "|Break orbits| >= 8947848 exceeds budget 2000000"),
         (knm.parking_orbit_reps, 1, 30,
          "|Park orbits| >= 8947848 exceeds budget 2000000"),
         (knm.break_orbit_reps, 2, 10**6,
          "|Break orbits| > 10^300993 exceeds budget 2000000"),
         (knm.parking_orbit_reps, 10**6, 10**6,
          "|Park orbits| > 10^300993 exceeds budget 2000000")],
        ids=["break-30", "park-30", "break-wide", "park-wide"],
    )
    def test_orbit_reps_refuse_a_large_n_by_the_floor(
        self, monkeypatch, orbit_reps, m, n, message
    ):
        # an exact count at n = 10^6 would take most of a minute
        def refuse(*args):
            raise AssertionError("computed the exact count")

        monkeypatch.setattr(counting, "dt_invariant", refuse)
        monkeypatch.setattr(knm, "parking_orbit_count", refuse)
        with pytest.raises(BudgetExceededError) as exc:
            orbit_reps(params(m, n))
        assert str(exc.value) == message

    def test_enumerators_keep_their_set_check(self):
        # |Break| bounds the orbits, so the enumerators run no DP and
        # name the set, not its orbits
        p = params(3, 6)
        for enumerate_set, name in ((knm.enumerate_break, "Break"),
                                    (knm.enumerate_parking, "Park")):
            with pytest.raises(BudgetExceededError) as exc:
                enumerate_set(p, budget=100)
            assert str(exc.value) == f"|{name}| = 314928 exceeds budget 100"


SET_ENUMERATORS = (
    knm.enumerate_break,
    knm.enumerate_parking,
    knm.enumerate_residue_tuples,
    knm.shift_classes,
)


class TestStreaming:
    @pytest.mark.parametrize("enumerate_set", SET_ENUMERATORS)
    def test_budget_raises_on_call(self, enumerate_set):
        # the call alone raises; no item is ever requested
        with pytest.raises(BudgetExceededError):
            enumerate_set(params(3, 6), budget=100)

    @pytest.mark.parametrize("enumerate_set", SET_ENUMERATORS)
    def test_returns_an_iterator(self, enumerate_set):
        items = enumerate_set(params(2, 4))
        assert iter(items) is items
        first = next(items)
        assert first == min([first, *items])


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
        tuples = rng.sample(list(knm.enumerate_residue_tuples(p)), 40)
        for x in tuples:
            for sigma in itertools.permutations(range(p.n - 1)):
                y = tuple(x[sigma[i]] for i in range(p.n - 1)) + (x[-1],)
                rep = knm.parking_representative(p, x)
                assert knm.parking_representative(p, y) == tuple(
                    rep[sigma[i]] for i in range(p.n - 1)
                )


def reference_parking_representative(p, x):
    """The all-rotations scan: park, count the blocks, and test every
    rotation of the counts for prefix sums >= their length; exactly one
    passes (the cycle lemma)."""
    m, n, N = p.m, p.n, p.N
    counts = [0] * n
    for s in reference_circular_park(x[: n - 1], N):
        counts[s // m] += 1
    valid = [
        j
        for j in range(n)
        if all(sum((counts[j:] + counts[:j])[:k]) >= k for k in range(1, n))
    ]
    assert len(valid) == 1, (p, x, counts, valid)
    j = valid[0]
    return tuple((v + (n - j) * m) % N for v in x[: n - 1])


class TestParkingRepresentativeEqualsRotationScan:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_residue_tuple(self, m, n):
        p = params(m, n)
        for x in knm.enumerate_residue_tuples(p):
            assert knm.parking_representative(
                p, x
            ) == reference_parking_representative(p, x), x

    def test_non_parking_projection_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(knm, "is_parking_mn", lambda p, a: False)
        with pytest.raises(InternalInvariantError, match="non-parking tuple"):
            knm.parking_representative(params(2, 3), (2, 2, 0))


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
        classes = list(knm.shift_classes(p))
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


def _shift_iterates(p, x):
    """x and its n-1 further images under knm.shift, in that order."""
    out = [tuple(x)]
    for _ in range(p.n - 1):
        out.append(knm.shift(p, out[-1]))
    return out


def _scanned_shift_classes(p):
    """The classes as found by scanning all of D with a `seen` set, each
    the sorted set of shift iterates, sorted by key."""
    seen, classes = set(), []
    for x in knm.enumerate_residue_tuples(p):
        if x in seen:
            continue
        members, cur = set(), x
        for _ in range(p.n):
            members.add(cur)
            cur = tuple((v + p.m) % p.N for v in cur)
        cls = tuple(sorted(members))
        seen.update(cls)
        classes.append(cls)
    return sorted(classes, key=lambda cls: cls[0])


SHIFT_RANGE = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3, 4, 5)]
# The edges of the run generator not in SHIFT_RANGE: no head (n = 2), a
# head of x_0 alone (n = 3), the n = 1 special case, and long heads.
RUN_EDGES = [(m, n) for n in (1, 2, 3) for m in range(4, 41)] + [(1, 6)]


def reference_residue_tuples(p):
    """D from every head in [0, N-1]^(n-1), the last coordinate from the sum."""
    return [h + ((p.genus - sum(h)) % p.N,)
            for h in itertools.product(range(p.N), repeat=p.n - 1)]


class TestClassKey:
    @pytest.mark.parametrize("m,n", SHIFT_RANGE)
    def test_key_is_min_of_shift_iterates(self, m, n):
        p = params(m, n)
        for x in knm.enumerate_residue_tuples(p):
            assert knm.class_key(p, x) == min(_shift_iterates(p, x))

    def test_example_35(self):
        p = params(3, 5)
        assert knm.class_key(p, (3, 13, 7, 13, 5)) == (0, 10, 4, 10, 2)
        assert knm.shift_class(p, (9, 4, 13, 4, 11))[0] == (0, 10, 4, 10, 2)

    @pytest.mark.parametrize("x", [(0, 0, 2), (6, 0, 4), (2, 2)])
    def test_invalid_tuple_rejected(self, x):
        for fn in (knm.class_key, knm.shift_class):
            with pytest.raises(PreconditionError):
                fn(params(2, 3), x)

    @pytest.mark.parametrize("m,n", ORACLE_RANGE)
    def test_shift_classes_equal_residue_scan(self, m, n):
        p = params(m, n)
        assert list(knm.shift_classes(p)) == _scanned_shift_classes(p)

    def test_shift_classes_read_no_residue_tuples(self, monkeypatch):
        p = params(3, 4)
        expected = _scanned_shift_classes(p)

        def refuse(*args, **kwargs):
            raise AssertionError("shift_classes read the residue tuples")

        monkeypatch.setattr(knm, "enumerate_residue_tuples", refuse)
        assert list(knm.shift_classes(p)) == expected

    def test_shift_classes_budget_is_on_D(self):
        # |Break| = 10125 fits, |D| = 50625 does not
        with pytest.raises(BudgetExceededError, match=r"\|D\| = 50625"):
            knm.shift_classes(params(3, 5), budget=20_000)

    @pytest.mark.parametrize("m,n", SHIFT_RANGE + [(2, 6), (4, 5)] + RUN_EDGES)
    def test_key_route_equals_break_route(self, m, n):
        # the route shift_classes took before it generated the keys
        p = params(m, n)
        expected = sorted(knm.shift_class(p, d) for d in knm.enumerate_break(p))
        assert list(knm.shift_classes(p)) == expected

    def test_key_route_reads_no_break_divisors(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("shift_classes read the break divisors")

        monkeypatch.setattr(knm, "enumerate_break", refuse)
        assert list(knm.shift_classes(params(1, 1))) == [((0,),)]
        classes = list(knm.shift_classes(params(2, 3)))
        assert [cls[0] for cls in classes] == [
            (0, 0, 4), (0, 1, 3), (0, 2, 2), (0, 3, 1), (0, 4, 0), (0, 5, 5),
            (1, 0, 3), (1, 1, 2), (1, 2, 1), (1, 3, 0), (1, 4, 5), (1, 5, 4),
        ]

    def test_residue_tuples_sorted(self):
        for m, n in [(1, 1), (2, 3), (3, 4)]:
            tuples = list(knm.enumerate_residue_tuples(params(m, n)))
            assert tuples == sorted(tuples)


@st.composite
def residue_tuples_past_exhaustive_range(draw):
    m, n = draw(st.sampled_from([(5, 9), (7, 8)]))
    p = params(m, n)
    head = draw(st.lists(st.integers(0, p.N - 1), min_size=n - 1, max_size=n - 1))
    return p, (*head, (p.genus - sum(head)) % p.N)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(residue_tuples_past_exhaustive_range())
def test_shift_class_structure_on_random_tuples(case):
    p, x = case
    iterates = _shift_iterates(p, x)
    cls = knm.shift_class(p, x)
    assert knm.class_key(p, x) == cls[0] == min(iterates)
    assert cls == tuple(sorted(set(iterates))) and len(cls) == p.n
    assert {knm.shift(p, a) for a in cls} == set(cls)
    assert all(knm.class_key(p, a) == cls[0] for a in cls)
    assert sum(knm.is_break_mn(p, a) for a in cls) == 1


@st.composite
def residue_tuples_up_to_60_12(draw):
    p = params(draw(st.integers(1, 60)), draw(st.integers(1, 12)))
    head = draw(st.lists(st.integers(0, p.N - 1), min_size=p.n - 1, max_size=p.n - 1))
    return p, (*head, (p.genus - sum(head)) % p.N)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(residue_tuples_up_to_60_12())
def test_class_key_and_sum_filtered_break_rep_equal_their_references(case):
    p, x = case
    shifts = [tuple((v + j * p.m) % p.N for v in x) for j in range(p.n)]
    assert knm.class_key(p, x) == min(shifts)
    hits = [a for a in reference_shift_class(p, x) if knm.is_break_mn(p, a)]
    assert [knm.break_representative(p, x)] == hits


class TestKeyedResidueTuples:
    """Each `enumerate --set residue` record carries its tuple's class
    key, from one shift back per run: filled into the templates of
    `knm.residue_fields`, its class-key text is that of `class_key`."""

    @pytest.mark.parametrize("m,n", SHIFT_RANGE + RUN_EDGES + [(2, 6)])
    def test_keys_are_class_keys_of_the_residue_tuples(self, m, n):
        p = params(m, n)
        tuples = list(knm.enumerate_residue_tuples(p))
        assert tuples == reference_residue_tuples(p)
        filled = list(filled_records(knm.residue_fields(p),
                                     knm.enumerate_residue_tuples(p, records=True)))
        assert [r["tuple"] for r in filled] == [tuple_text(x) for x in tuples]
        assert [r["class_key"] for r in filled] == [
            tuple_text(knm.class_key(p, x)) for x in tuples]

    def test_tuples_come_from_the_module_enumerator(self, monkeypatch):
        # verify's record check reads both the tuples and their records
        # from the module enumerator
        calls = []
        real = knm.enumerate_residue_tuples

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(knm, "enumerate_residue_tuples", counted)
        assert verify._residue_record_counterexample(params(2, 3), "m 2, n 3") is None
        assert calls == [{}, {"records": True}]


def per_key_texts(p, keys):
    """The `enumerate --set classes` record of each class key from
    `shift_class`, `break_representative` and `parking_representative`,
    as a dict of texts in JSON key order."""
    return [{"break_rep": tuple_text(knm.break_representative(p, key)),
             "class_key": tuple_text(key),
             "members": ";".join(map(tuple_text, knm.shift_class(p, key))),
             "parking_rep": tuple_text(knm.parking_representative(p, key))}
            for key in keys]


def class_records(p, budget=knm.DEFAULT_SET_BUDGET):
    """The `records=True` items of `shift_classes` filled into the
    templates of `knm.class_fields`."""
    return list(filled_records(knm.class_fields(p),
                               knm.shift_classes(p, budget, records=True)))


class TestRepresentedClasses:
    """The `enumerate --set classes` records, built by `shift_classes`
    from per-run tables, against the per-key functions, and the checks
    the walk makes on every record."""

    @pytest.mark.parametrize("m,n", SHIFT_RANGE + RUN_EDGES + [(2, 6)])
    def test_triples_equal_the_per_key_functions(self, m, n):
        p = params(m, n)
        keys = [cls[0] for cls in knm.shift_classes(p)]
        assert class_records(p) == per_key_texts(p, keys)

    def test_classes_come_from_the_module_enumerator(self, monkeypatch):
        # the records walk the class-key runs once, and check |D| on call
        calls = []
        real = knm._runs

        def counted(p, keys):
            calls.append(keys)
            return real(p, keys)

        monkeypatch.setattr(knm, "_runs", counted)
        records = knm.shift_classes(params(2, 3), records=True)
        assert next(records) == ("(2,", 2, 0, "(0,", 0, 4, "(0,", 0, 4, "(2,", 2, 0,
                                 "(4,", 4, 2, "(0,0)")
        assert calls == [True]
        with pytest.raises(BudgetExceededError, match=r"\|D\| = 50625"):
            knm.shift_classes(params(3, 5), budget=20_000, records=True)

    @pytest.mark.parametrize("rooms, hits", [(range(0), 0), (range(3), 2)],
                             ids=["no-hit", "two-hits"])
    def test_room_hit_count_not_one_is_internal_error(self, monkeypatch, rooms, hits):
        # the members of (0, 0, 4) end in y = 0, 2 and 4
        monkeypatch.setattr(knm, "_pair_rooms", lambda p, head: rooms)
        with pytest.raises(InternalInvariantError, match=rf"shift class of \(0, 0, 4\) "
                           rf"has {hits} members within the break rooms"):
            next(knm.shift_classes(params(2, 3), records=True))

    @pytest.mark.parametrize("head, rooms, key, hits", [
        ((0,), range(0), "(0, 1, 3)", 0), ((4,), range(1), "(0, 2, 2)", 2)])
    def test_room_fault_names_the_first_class_not_covered_once(
            self, monkeypatch, head, rooms, key, hits):
        # in the run of x_0 = 0 at (2, 3), members with heads (0,) and
        # (2,) are the break members, of v = 1, 2, 3 and of v = 0, 4, 5;
        # y = 0 puts (4, 0, 0), of v = 2, within the rooms
        real = knm._pair_rooms
        monkeypatch.setattr(knm, "_pair_rooms",
                            lambda p, h: rooms if h == head else real(p, h))
        with pytest.raises(InternalInvariantError, match=rf"shift class of {re.escape(key)} "
                           rf"has {hits} members within the break rooms"):
            next(knm.shift_classes(params(2, 3), records=True))

    def test_member_within_the_rooms_is_confirmed_by_is_break_mn(self, monkeypatch):
        checked = []

        def rejects(p, d):
            checked.append(d)
            return False

        monkeypatch.setattr(knm, "is_break_mn", rejects)
        with pytest.raises(InternalInvariantError, match=r"class of \(0, 0, 4\): "
                           r"\(2, 2, 0\) is within the break rooms but not a break divisor"):
            next(knm.shift_classes(params(2, 3), records=True))
        assert checked == [(2, 2, 0)]

    def test_non_parking_projection_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(knm, "is_parking_mn", lambda p, a: False)
        with pytest.raises(InternalInvariantError, match=r"class of \(0, 0, 4\) "
                           r"projected to non-parking tuple \(0, 0\)"):
            next(knm.shift_classes(params(2, 3), records=True))

    @pytest.mark.parametrize("name", ["break_representative", "parking_representative"])
    def test_first_class_of_each_run_is_cross_checked(self, monkeypatch, name):
        # at (2, 3) the runs are x_0 = 0 and x_0 = 1, six classes each
        real, keys = getattr(knm, name), []

        def wrong_on_the_second_run(p, x):
            keys.append(tuple(x))
            rep = real(p, x)
            return rep[::-1] if x[0] == 1 else rep

        monkeypatch.setattr(knm, name, wrong_on_the_second_run)
        records = knm.shift_classes(params(2, 3), records=True)
        assert len(list(itertools.islice(records, 6))) == 6
        with pytest.raises(InternalInvariantError, match=r"class of \(1, 0, 3\): run "
                           r"tables give \(1, 0, 3\), \(1, 0\); the representatives give"):
            next(records)
        assert keys == [(0, 0, 4), (1, 0, 3)]


@st.composite
def sampled_key_runs(draw):
    """K_n^m with m <= 60, 2 <= n <= 8, and one or two of its class-key
    runs in order, as `_runs(p, True)` gives them: at n = 2 its one run,
    else heads x[:n-2] with x_0 < m and the free coordinate from [0, N-1]."""
    p = params(draw(st.integers(1, 60)), draw(st.integers(2, 8)))
    if p.n == 2:
        return p, list(knm._runs(p, True))
    head = st.tuples(st.integers(0, p.m - 1), *[st.integers(0, p.N - 1)] * (p.n - 3))
    heads = sorted(draw(st.lists(head, min_size=1, max_size=2, unique=True)))
    return p, [(h, p.genus - sum(h), 0, range(p.N)) for h in heads]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sampled_key_runs())
def test_represented_classes_of_sampled_runs_equal_the_per_key_functions(case):
    """Past the exhaustive range: `_runs` yields only the sampled runs to
    the `records=True` walk of `shift_classes`."""
    p, runs = case
    with mock.patch.object(knm, "_runs", lambda p, keys: iter(runs)):
        records = class_records(p, budget=knm.residue_count(p))
    keys = [h + (v, (c - v) % p.N) for h, c, _, vs in runs for v in vs]
    assert records == per_key_texts(p, keys)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(1, 10**6))
def test_class_records_at_n_2_hold_nothing_of_the_run(m):
    """At n = 2 the one class-key run holds all m classes and N = |D|, so
    the walk keeps no table of the run: its first 50 records equal the
    per-key functions, and reading them traces under 1 MB."""
    p = params(m, 2)
    tracemalloc.start()
    try:
        records = knm.shift_classes(p, records=True)
        head = list(itertools.islice(records, 50))
        del records
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    keys = [(v, (p.genus - v) % p.N) for v in range(min(m, 50))]
    assert list(filled_records(knm.class_fields(p), head)) == per_key_texts(p, keys)
    assert peak < 2**20


@st.composite
def shifted_heads(draw):
    """K_n^m with m <= 50, 2 <= n <= 9, and a head of n - 2 entries
    shifted by j*m: the heads whose rooms the `records=True` walk of
    `shift_classes` takes.  The entries come from [0, N-1] or from
    delta's range [0, m(n-1)-1], where more heads keep delta's prefix
    sums."""
    p = params(draw(st.integers(1, 50)), draw(st.integers(2, 9)))
    top = draw(st.sampled_from([p.N, p.m * (p.n - 1)]))
    head = draw(st.lists(st.integers(0, top - 1), min_size=p.n - 2, max_size=p.n - 2))
    j = draw(st.integers(0, p.n - 1))
    return p, tuple([(u + j * p.m) % p.N for u in head])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(shifted_heads())
def test_pair_rooms_accept_exactly_the_break_members(case):
    """Over every member head + (y, (want - y) % N) of D with this head,
    want = g - sum(head): the range of `_pair_rooms`, which the
    `records=True` walk of `shift_classes` turns into runs of classes,
    holds exactly the y that `is_break_mn` accepts."""
    p, head = case
    rooms, want = knm._pair_rooms(p, head), p.genus - sum(head)
    assert rooms.step == 1 and set(rooms) <= set(range(p.N))
    for y in range(p.N):
        assert (y in rooms) == knm.is_break_mn(p, head + (y, (want - y) % p.N)), (head, y)


def first_difference(got, expected):
    """(index, item, expected item) where two iterables first differ, or
    None; neither is held whole."""
    pairs = enumerate(itertools.zip_longest(got, expected))
    return next(((i, a, b) for i, (a, b) in pairs if a != b), None)


# Every K_n^m with m <= 6, n <= 8 whose set has at most 300,000 items
RECORD_SHAPES = {
    count: [(m, n) for m in range(1, 7) for n in range(1, 9)
            if count(params(m, n)) <= 300_000]
    for count in (knm.break_count, knm.residue_count)
}


def tuple_text(t):
    return "(" + ",".join(map(str, t)) + ")"


# The str arguments of a record: a row of them needs no JSON escaping
RECORD_TEXT = re.compile(r"[0-9(),]*")


def filled_records(fields, records):
    """Each record filled into its set's templates, as a dict in JSON key
    order; every argument is an int or a str of RECORD_TEXT."""
    names = [name for name, _ in fields]
    assert names == sorted(names)
    for record in records:
        assert all(type(a) is int or (type(a) is str and RECORD_TEXT.fullmatch(a))
                   for a in record), record
        filled, start = {}, 0
        for name, template in fields:
            count = template.count("%")
            filled[name] = template % record[start:start + count]
            start += count
        assert start == len(record), record
        yield filled


class TestRecords:
    """The records of `enumerate`, built inside the set walks and filled
    into their `knm` templates, against the plain walk formatted with one
    `sort_orbit_key` (and `class_key`) per item."""

    @pytest.mark.parametrize("m, n", RECORD_SHAPES[knm.break_count])
    def test_break_and_park_records(self, m, n):
        p = params(m, n)
        assert first_difference(
            filled_records(knm.break_fields(p), knm.enumerate_break(p, records=True)),
            ({"divisor": tuple_text(d), "orbit_key": tuple_text(knm.sort_orbit_key(d))}
             for d in knm.enumerate_break(p))) is None
        assert first_difference(
            filled_records(knm.parking_fields(p), knm.enumerate_parking(p, records=True)),
            ({"orbit_key": tuple_text(knm.sort_orbit_key(a)), "parking": tuple_text(a)}
             for a in knm.enumerate_parking(p))) is None

    @pytest.mark.parametrize("m, n", RECORD_SHAPES[knm.residue_count])
    def test_residue_records(self, m, n):
        p = params(m, n)
        assert first_difference(
            filled_records(knm.residue_fields(p),
                           knm.enumerate_residue_tuples(p, records=True)),
            ({"class_key": tuple_text(knm.class_key(p, x)),
              "orbit_key": tuple_text(knm.sort_orbit_key(x)), "tuple": tuple_text(x)}
             for x in knm.enumerate_residue_tuples(p))) is None

    @pytest.mark.parametrize("enumerate_set", SET_ENUMERATORS)
    def test_records_check_the_budget_on_call(self, enumerate_set):
        with pytest.raises(BudgetExceededError):
            enumerate_set(params(3, 6), budget=100, records=True)


class TestSizeChecks:
    """`check_break_budget` and `check_d_budget` refuse a huge set from
    the float log2 of its size, with the error the exact size gives."""

    # n = 256 and 512 at m = 2 and 4 give an integral log2: the exact route
    SHAPES = [(m, n) for m in (1, 2, 3, 4, 12)
              for n in (1, 2, 3, 40, 119, 120, 256, 300, 512)]

    @pytest.mark.parametrize("budget", [0, 2_000_000, 2**400, 2**3000])
    def test_equal_the_exact_check(self, budget):
        def error(check, *args):
            try:
                check(*args)
            except BudgetExceededError as exc:
                return str(exc)

        for m, n in self.SHAPES:
            p = params(m, n)
            assert error(knm.check_break_budget, p, budget, "Park") == error(
                errors.check_budget, knm.break_count(p), budget, "Park"), (m, n)
            assert error(knm.check_d_budget, p, budget) == error(
                errors.check_budget, knm.residue_count(p), budget, "D"), (m, n)

    def test_huge_sizes_are_not_built(self, monkeypatch):
        def unbuilt(p):
            raise AssertionError(f"built the size of {p}")

        monkeypatch.setattr(knm, "break_count", unbuilt)
        monkeypatch.setattr(knm, "residue_count", unbuilt)
        p = params(3, 400)
        with pytest.raises(BudgetExceededError, match=r"\|Break\| > 10\^"):
            knm.check_break_budget(p, 2_000_000)
        with pytest.raises(BudgetExceededError, match=r"\|D\| > 10\^"):
            knm.check_d_budget(p, 2_000_000)


class TestSortOrbitKey:
    def test_already_sorted(self):
        assert knm.sort_orbit_key((2, 2, 0)) == (2, 2, 0)

    def test_resort(self):
        assert knm.sort_orbit_key((0, 0, 2)) == (2, 0, 0)

    def test_longer(self):
        assert knm.sort_orbit_key((3, 13, 7, 13, 5)) == (13, 13, 7, 5, 3)


# The per-record kernels were rewritten for speed (early O(n) rejections,
# list-built tuples, min/max range checks).  These copies of their earlier
# definitions are the oracles: every input, valid or not, must give the
# same value or the same error with the same message.


def reference_is_break_mn(p, d):
    d = tuple(d)
    if len(d) != p.n:
        raise PreconditionError(f"expected length {p.n}, got {len(d)}")
    if any(v < 0 for v in d):
        return False
    if sum(d) != p.m * p.n * (p.n - 1) // 2 - p.n + 1:
        return False
    prefix = 0
    for dv, bound in zip(sorted(d, reverse=True), p.delta_prefix):
        prefix += dv
        if prefix > bound:
            return False
    return True


def reference_is_parking_mn(p, a):
    a = tuple(a)
    if len(a) != p.n - 1:
        raise PreconditionError(f"expected length {p.n - 1}, got {len(a)}")
    if any(v < 0 for v in a):
        return False
    for i, v in enumerate(sorted(a), start=1):
        if v > p.m * i - 1:
            return False
    return True


def reference_class_key(p, x):
    x = tuple(x)
    if len(x) != p.n:
        raise PreconditionError(f"expected length {p.n}, got {len(x)}")
    if min(x) < 0 or max(x) > p.N - 1:
        raise PreconditionError("residue entries must lie in [0, N-1]")
    if sum(x) % p.N != p.genus % p.N:
        raise PreconditionError("residue sum must be g mod N")
    s = x[0] - x[0] % p.m
    return tuple((v - s) % p.N for v in x)


def reference_shift_class(p, x):
    key = reference_class_key(p, x)
    return tuple(tuple((v + j * p.m) % p.N for v in key) for j in range(p.n))


def reference_circular_park(prefs, spots):
    prefs = list(prefs)
    if len(prefs) >= spots:
        raise PreconditionError("need fewer cars than spots")
    if any(not 0 <= v < spots for v in prefs):
        raise PreconditionError("preferences must lie in [0, spots-1]")
    occupied = set()
    for pref in prefs:
        spot = pref
        while spot in occupied:
            spot = (spot + 1) % spots
        occupied.add(spot)
    return occupied


def outcome(fn, *args):
    """("value", the result) or ("error", its type, its message)."""
    try:
        return ("value", fn(*args))
    except PreconditionError as exc:
        return ("error", type(exc), str(exc))


small_params = st.builds(params, st.integers(1, 4), st.integers(1, 6))


@st.composite
def params_and_vector(draw, length_offset):
    """K_n^m and an int vector of about length n + length_offset: the
    length is sometimes off by one, entries may be negative or above the
    ranges, and the entry sum is sometimes set to the genus."""
    p = draw(small_params)
    length = max(0, p.n + length_offset + draw(st.sampled_from([0, 0, 0, -1, 1])))
    top = max(p.delta[0], p.m * p.n)
    v = draw(st.lists(st.integers(-3, top + 2), min_size=length, max_size=length))
    if v and draw(st.booleans()):
        v[-1] = p.genus - sum(v[:-1])
    return p, tuple(v)


@pytest.mark.parametrize("x", [(0.5, 1.5, 2.0), (0, 0.0, 4), (0, Fraction(0), 4),
                               (Fraction(1, 2), 0, 4), (0, "0", 4)],
                         ids=["floats", "integral-float", "integral-fraction",
                              "fraction", "str"])
@pytest.mark.parametrize("fn", [knm.class_key, knm.shift, knm.shift_class,
                                knm.break_representative, knm.parking_representative])
def test_residue_entries_must_be_integers(fn, x):
    # (0.5, 1.5, 2.0) once came back from break_representative as a
    # break divisor of K_3^2
    with pytest.raises(PreconditionError, match="residue entries must be integers"):
        fn(params(2, 3), x)


class TestKernelsEqualTheirReferences:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(params_and_vector(0))
    def test_is_break_mn(self, case):
        p, d = case
        assert outcome(knm.is_break_mn, p, d) == outcome(reference_is_break_mn, p, d)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(params_and_vector(-1))
    def test_is_parking_mn(self, case):
        p, a = case
        assert outcome(knm.is_parking_mn, p, a) == outcome(
            reference_is_parking_mn, p, a
        )

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(small_params, st.data())
    def test_class_key_and_shift_class(self, p, data):
        length = max(1, p.n + data.draw(st.sampled_from([0, 0, 0, -1, 1])))
        x = data.draw(st.lists(st.integers(-2, p.N + 1), min_size=length,
                               max_size=length))
        if data.draw(st.booleans()):  # the residue sum, mod N, of D
            x[-1] = (p.genus - sum(x[:-1])) % p.N
        for fn, reference in ((knm.class_key, reference_class_key),
                              (knm.shift_class, reference_shift_class)):
            assert outcome(fn, p, x) == outcome(reference, p, x)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 12), max_size=10), st.integers(0, 10))
    def test_circular_park(self, prefs, spots):
        assert outcome(knm.circular_park, prefs, spots) == outcome(
            reference_circular_park, prefs, spots
        )

    def test_genus_is_cached_and_closed_form(self):
        for m in range(1, 5):
            for n in range(1, 7):
                p = params(m, n)
                assert p.genus == m * n * (n - 1) // 2 - n + 1
                assert vars(p)["genus"] == p.genus
