import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from breakpark import counting, knm, reptheory as rt
from breakpark.errors import BudgetExceededError, InternalInvariantError, PreconditionError


def reference_character_break_closed(m, n, lam):
    """The closed break character in rationals: m^(ell-1) n^(ell-2),
    doubled when d = 2, m is odd and n = 2 mod 4, else 0 unless d = 1."""
    ell = len(lam)
    d = 0
    for part in lam:
        d = math.gcd(d, part)
    base = Fraction(m) ** (ell - 1) * Fraction(n) ** (ell - 2)
    if d == 1:
        value = base
    elif d == 2 and m % 2 == 1 and n % 4 == 2:
        value = 2 * base
    else:
        value = Fraction(0)
    assert value.denominator == 1
    return value.numerator


class TestPartitions:
    def test_zero(self):
        assert rt.partitions_of(0) == [()]

    def test_three(self):
        assert rt.partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]

    def test_count_nine(self):
        assert len(rt.partitions_of(9)) == 30

    def test_reverse_lex_order(self):
        parts = rt.partitions_of(6)
        assert parts == sorted(parts, reverse=True)

    def test_counts_by_pentagonal_recurrence(self):
        counts = [len(rt.partitions_of(k)) for k in range(41)]
        assert list(knm.partition_counts(40)) == counts


@lru_cache(maxsize=None)
def distributions_by_subsets(cycles, blocks):
    """The subset scan `_distributions` replaced: fill the first block
    with every subset of the cycles that sums to it, then the rest."""
    if not blocks:
        return 1 if not cycles else 0
    total, k = 0, len(cycles)
    for r in range(k + 1):
        for combo in itertools.combinations(range(k), r):
            if sum(cycles[i] for i in combo) == blocks[0]:
                rest = tuple(cycles[i] for i in range(k) if i not in combo)
                total += distributions_by_subsets(rest, blocks[1:])
    return total


class TestDistributions:
    @pytest.mark.parametrize("n", range(11))
    def test_equals_subset_scan(self, n):
        parts = rt.partitions_of(n)
        for nu in parts:
            for mu in parts:
                assert rt._distributions(nu, mu) == distributions_by_subsets(nu, mu)

    @pytest.mark.parametrize(
        "cycles, blocks", [((2, 1), (2,)), ((1,), (1, 1)), ((), (1,)), ((3,), ())]
    )
    def test_sizes_differ(self, cycles, blocks):
        assert rt._distributions(cycles, blocks) == 0
        assert distributions_by_subsets(cycles, blocks) == 0


class TestClassSize:
    def test_identity(self):
        assert rt.class_size((1, 1, 1, 1)) == 1

    def test_full_cycle(self):
        for n in range(1, 8):
            assert rt.class_size((n,)) == math.factorial(n - 1)

    def test_transpositions_s3(self):
        assert rt.class_size((2, 1)) == 3

    def test_sizes_sum_to_factorial(self):
        for n in range(1, 8):
            assert sum(
                rt.class_size(mu) for mu in rt.partitions_of(n)
            ) == math.factorial(n)

    @pytest.mark.parametrize("lam", [(2, -1, 1), (1, 2), (2, 0)])
    def test_non_partition_rejected(self, lam):
        # (2, -1, 1) once had class size -1
        with pytest.raises(PreconditionError, match="is not a partition"):
            rt.class_size(lam)


class TestMurnaghanNakayama:
    def test_trivial_rep(self):
        for mu in rt.partitions_of(5):
            assert rt.murnaghan_nakayama((5,), mu) == 1

    def test_sign_rep(self):
        for mu in rt.partitions_of(5):
            sign = (-1) ** (sum(mu) - len(mu))
            assert rt.murnaghan_nakayama((1, 1, 1, 1, 1), mu) == sign

    def test_single_strip(self):
        assert rt.murnaghan_nakayama((2, 1), (3,)) == -1

    def test_dimension_via_identity(self):
        # hook length formula cross-check on S_4
        dims = {
            (4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1,
        }
        for lam, dim in dims.items():
            assert rt.murnaghan_nakayama(lam, (1, 1, 1, 1)) == dim

    @pytest.mark.parametrize("n", range(1, 8))
    def test_column_orthogonality(self, n):
        parts = rt.partitions_of(n)
        for mu in parts:
            for nu in parts:
                acc = sum(
                    rt.murnaghan_nakayama(lam, mu) * rt.murnaghan_nakayama(lam, nu)
                    for lam in parts
                )
                expected = (
                    math.factorial(n) // rt.class_size(mu) if mu == nu else 0
                )
                assert acc == expected


class TestCharacterBreak:
    def test_budget_on_the_partitions(self):
        with pytest.raises(BudgetExceededError, match=r"^\|partitions of 30\| >= 1002 "
                           "exceeds budget 1000$"):
            rt.character_break(1, 30, budget=1000)
        assert len(rt.character_break(1, 30, budget=5604)) == 5604

    def test_identity_class_is_cardinality(self):
        assert rt.character_break_closed(2, 3, (1, 1, 1)) == 12

    @pytest.mark.parametrize("lam, message", [
        ((2, -1, 2), "is not a partition"),  # sums to n = 3; returned 12
        ((1, 2), "is not a partition"),
        ((1.0, 1, 1), "must be integers"),  # raised a bare TypeError
    ])
    def test_closed_refuses_a_cycle_type_that_is_no_partition(self, lam, message):
        with pytest.raises(PreconditionError, match=message):
            rt.character_break_closed(2, 3, lam)

    def test_full_cycle_vanishes(self):
        assert rt.character_break_closed(2, 3, (3,)) == 0

    def test_doubled_case(self):
        # d=2, m odd, n = 2 mod 4
        assert rt.character_break_closed(1, 6, (2, 2, 2)) == 2 * 1 * 6
        assert rt.character_break_closed(
            1, 6, (2, 2, 2)
        ) == rt.character_break_bruteforce(1, 6)[(2, 2, 2)]

    def test_bruteforce_23(self):
        chi = rt.character_break_bruteforce(2, 3)
        assert chi == {(3,): 0, (2, 1): 2, (1, 1, 1): 12}
        assert list(chi) == rt.partitions_of(3)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_closed_equals_bruteforce(self, m, n):
        scanned = rt.character_break_bruteforce(m, n)
        for lam in rt.partitions_of(n):
            assert rt.character_break_closed(m, n, lam) == scanned[lam]


class TestHExpansion:
    def test_break_23(self):
        breaks = knm.enumerate_break(knm.KnmParams(2, 3))
        reps = sorted({knm.sort_orbit_key(b) for b in breaks})
        assert rt.perm_module_h_expansion(reps) == {(1, 1, 1): 1, (2, 1): 2}

    def test_park_23(self):
        parks = knm.enumerate_parking(knm.KnmParams(2, 3))
        reps = sorted({knm.sort_orbit_key(a) for a in parks})
        assert rt.perm_module_h_expansion(reps) == {(1, 1): 5, (2,): 2}

    def test_constant_tuple(self):
        assert rt.perm_module_h_expansion([(7, 7, 7, 7)]) == {(4,): 1}

    def test_h_character_matches_fixed_points(self):
        # the tabloid-count character must reproduce brute-force fixed
        # points of the break module
        m, n = 2, 4
        breaks = knm.enumerate_break(knm.KnmParams(m, n))
        reps = sorted({knm.sort_orbit_key(b) for b in breaks})
        h = rt.perm_module_h_expansion(reps)
        chi = rt.h_module_character(h, n)
        assert chi == rt.character_break_bruteforce(m, n)


def listed_module(reps, n):
    """The Frobenius data of the S_n-module on the orbits of the listed
    representatives, one per orbit: the oracle for `h_module` of a count."""
    return rt.h_module(rt.perm_module_h_expansion(reps), n)


class TestPermutationModule:
    def test_break_23(self):
        module = listed_module(knm.break_orbit_reps(knm.KnmParams(2, 3)), 3)
        assert module.h == {(1, 1, 1): 1, (2, 1): 2}
        assert module.character == {(3,): 0, (2, 1): 2, (1, 1, 1): 12}
        assert module.s == {(3,): 3, (2, 1): 4, (1, 1, 1): 1}

    def test_park_23(self):
        module = listed_module(knm.parking_orbit_reps(knm.KnmParams(2, 3)), 2)
        assert module.h == {(1, 1): 5, (2,): 2}
        assert module.s == {(2,): 7, (1, 1): 5}

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_orbit_route_equals_per_tuple_scans(self, m, n):
        p = knm.KnmParams(m, n)
        breaks = listed_module(knm.break_orbit_reps(p), n).character
        assert breaks == rt.character_break_bruteforce(m, n)
        parks = listed_module(knm.parking_orbit_reps(p), n - 1).character
        assert parks == rt.character_parking(m, n)

    def test_character_parking_reads_the_scan_once(self, monkeypatch):
        real, calls = knm.enumerate_parking_bruteforce, []

        def enumerate_parking_bruteforce(p, *args):
            calls.append(p)
            return real(p, *args)

        monkeypatch.setattr(knm, "enumerate_parking_bruteforce",
                            enumerate_parking_bruteforce)
        assert list(rt.character_parking(2, 5)) == rt.partitions_of(4)
        assert calls == [knm.KnmParams(2, 5)]

    def test_wrong_length_rejected(self):
        with pytest.raises(PreconditionError):
            listed_module([(1, 0)], 3)
        with pytest.raises(PreconditionError):
            rt.h_module({(2,): 1}, 3)

    @pytest.mark.parametrize("fn", [rt.h_module, rt.h_module_character, rt.h_to_s])
    @pytest.mark.parametrize("mu", [(3, -1), (1, 1, 0), (1, 2)])
    def test_non_partition_rejected(self, fn, mu):
        # h_module({(3, -1): 1}, 2) once returned a module
        with pytest.raises(PreconditionError, match="must be partitions of"):
            fn({mu: 1}, 2 if sum(mu) == 2 else 3)

    def test_h_module_is_the_module_of_the_listed_reps(self):
        # the orbit representatives against the orbits of the whole set
        p = knm.KnmParams(3, 4)
        orbits = {knm.sort_orbit_key(d) for d in knm.enumerate_break(p)}
        assert listed_module(knm.break_orbit_reps(p), 4) == listed_module(orbits, 4)


def refuse(*args, **kwargs):
    raise AssertionError("listed the orbits")


def orbit_count(m, n):
    """The number of Break orbits, from the orbit-type counts."""
    return sum(knm.break_orbit_types(knm.KnmParams(m, n)).values())


class TestKnmModules:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_equal_the_modules_of_the_listed_reps(self, m, n):
        p = knm.KnmParams(m, n)
        modules = rt.knm_modules(p)
        assert modules.breaks == listed_module(knm.break_orbit_reps(p), n)
        if n > 1:
            assert modules.parks == listed_module(
                knm.parking_orbit_reps(p), n - 1
            )

    def test_list_no_orbit(self, monkeypatch):
        for name in ("break_orbit_reps", "parking_orbit_reps",
                     "_lex_walk"):
            monkeypatch.setattr(knm, name, refuse)
        monkeypatch.setattr(rt, "perm_module_h_expansion", refuse)
        modules = rt.knm_modules(knm.KnmParams(2, 7))
        assert sum(modules.breaks.h.values()) == 791
        assert modules.restricts

    def test_parks_closed_at_a_large_m(self, monkeypatch):
        # the Break DP at (10^6, 2) takes seconds; its count, (m-1)//2 + 1
        # pairs (a, m-1-a) for even m, stands in for it
        monkeypatch.setattr(knm, "count_break_types", lambda p: {(1, 1): 500_000})
        modules = rt.knm_modules(knm.KnmParams(10**6, 2))
        assert modules.parks.h == {(1,): 10**6}
        assert modules.restricts

    @pytest.mark.parametrize("m, n, budget", [(1, 1, 1), (2, 3, 12), (1000, 2, 1000)])
    def test_budget_is_on_break_alone(self, m, n, budget):
        # |Break| = budget; the state-space bounds of the orbit-type
        # counts, (g + 1) * (p(0) + ... + p(n)) for Break, exceed it
        p = knm.KnmParams(m, n)
        assert knm.break_count(p) == budget
        with pytest.raises(BudgetExceededError, match="state space"):
            knm.break_orbit_types(p, budget)
        modules = rt.knm_modules(p, budget)
        assert modules.breaks.h == knm.break_orbit_types(p)
        assert modules.restricts
        with pytest.raises(BudgetExceededError, match=r"^\|Break\| = "):
            rt.knm_modules(p, budget - 1)


class TestCharacterBreakClosedInIntegers:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equals_rational_reference(self, m):
        for n in range(1, 10):
            for lam in rt.partitions_of(n):
                assert rt.character_break_closed(
                    m, n, lam
                ) == reference_character_break_closed(m, n, lam), (m, n, lam)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(m=st.integers(1, 10**6), n=st.integers(1, 20), data=st.data())
    def test_equals_case_split_at_large_m(self, m, n, data):
        parts = rt.partitions_of(n)
        lam = parts[data.draw(st.integers(0, len(parts) - 1), label="index")]
        assert rt.character_break_closed(
            m, n, lam
        ) == reference_character_break_closed(m, n, lam)


class TestNonIntegralClassFunction:
    # (1/2!) (1 * 1 + 1 * 0): no integral multiplicity of s_2 or s_11
    HALF = {(1, 1): 1, (2,): 0}

    def test_schur_expansion_raises(self):
        with pytest.raises(InternalInvariantError, match=r"s_\(2,\): 1/2"):
            rt.schur_expansion(self.HALF)

    def test_trivial_multiplicity_raises(self):
        with pytest.raises(InternalInvariantError, match="not integral"):
            rt.trivial_multiplicity(self.HALF)


# Cycle types that are no partitions, and values that are not integers.
# Once each of these answered or raised another type: the first three
# read 0, -1 and 1, class_size raised a bare TypeError,
# permutation_of_type an IndexError, the next two built float values and
# trivial_multiplicity raised InternalInvariantError, a library fault.
NOT_PARTITIONS_OR_INTEGERS = {
    "mn-increasing": lambda: rt.murnaghan_nakayama((1, 2), (3,)),
    "mn-negative": lambda: rt.murnaghan_nakayama((2, -1, 2), (3,)),
    # (2, 1.0) equals and hashes as (2, 1): refused after (2, 1) is memoized
    "mn-float-after-int": lambda: (rt.murnaghan_nakayama((3,), (2, 1)),
                                   rt.murnaghan_nakayama((3,), (2, 1.0))),
    "class-size-float": lambda: rt.class_size((2.0, 1)),
    "permutation-negative": lambda: rt.permutation_of_type((2, -1)),
    "schur-float-value": lambda: rt.schur_expansion({(1,): 2.0}),
    "h-module-float-value": lambda: rt.h_module({(2, 1): 2.0}, 3),
    "trivial-float-value": lambda: rt.trivial_multiplicity({(1,): 1.5}),
}


@pytest.mark.parametrize("case", NOT_PARTITIONS_OR_INTEGERS)
def test_not_a_partition_or_integer_refused(case):
    with pytest.raises(PreconditionError):
        NOT_PARTITIONS_OR_INTEGERS[case]()


class TestEmptyClassFunction:
    @pytest.mark.parametrize(
        "fn", [rt.restrict_character, rt.schur_expansion, rt.trivial_multiplicity]
    )
    def test_precondition_error(self, fn):
        with pytest.raises(PreconditionError):
            fn({})


class TestPartialClassFunction:
    """A class function of S_n must have a value on exactly the
    partitions of n: schur_expansion({(2,): 1}) once raised KeyError."""

    @pytest.mark.parametrize(
        "fn", [rt.restrict_character, rt.schur_expansion, rt.trivial_multiplicity]
    )
    @pytest.mark.parametrize("chi", [
        {(2,): 1},
        {(2,): 1, (1, 1): 1, (3,): 1},
        {(2,): 1, (2, -1, 1): 1},
    ], ids=["missing-key", "key-of-another-n", "non-partition-key"])
    def test_precondition_error(self, fn, chi):
        with pytest.raises(PreconditionError, match="not the partitions of 2"):
            fn(chi)


class TestSchurExpansion:
    def test_break_23(self):
        chi = rt.character_break(2, 3)
        assert rt.schur_expansion(chi) == {
            (3,): 3, (2, 1): 4, (1, 1, 1): 1,
        }

    def test_park_23(self):
        chi = rt.character_parking(2, 3)
        assert rt.schur_expansion(chi) == {(2,): 7, (1, 1): 5}

    def test_irreducible_is_unit_vector(self):
        lam = (3, 2)
        chi = {mu: rt.murnaghan_nakayama(lam, mu) for mu in rt.partitions_of(5)}
        assert rt.schur_expansion(chi) == {lam: 1}

    def test_weights_once_and_the_same_mn_calls(self, monkeypatch):
        # one partition list per call, and chi^lam(mu) asked of the memo
        # for every (lam, mu) in the order of the nested inner products
        n = 6
        chi = rt.character_break(1, n)
        parts = rt.partitions_of(n)
        expected = {}
        for lam in parts:
            acc = sum(rt.class_size(mu) * chi[mu] * rt.murnaghan_nakayama(lam, mu)
                      for mu in parts)
            if acc:
                expected[lam] = acc // math.factorial(n)
        listed, asked, mn = [], [], rt._border_strips

        def partitions_of(k):
            listed.append(k)
            return parts

        def border_strips(lam, mu):
            asked.append((lam, mu))
            return mn(lam, mu)

        monkeypatch.setattr(rt, "partitions_of", partitions_of)
        monkeypatch.setattr(rt, "_border_strips", border_strips)
        out = rt.schur_expansion(chi)
        assert list(out.items()) == list(expected.items())
        assert listed == [n]
        assert asked == [(lam, mu) for lam in parts for mu in parts]

    def test_h_to_s_roundtrip(self):
        assert rt.h_to_s({(1, 1, 1): 1, (2, 1): 2}, 3) == {
            (3,): 3, (2, 1): 4, (1, 1, 1): 1,
        }
        assert rt.h_to_s({(2,): 2, (1, 1): 5}, 2) == {(2,): 7, (1, 1): 5}

    @pytest.mark.parametrize("m,n", [(1, 3), (1, 4), (2, 3), (2, 4)])
    def test_nonnegative_for_modules(self, m, n):
        p = knm.KnmParams(m, n)
        for tuples, degree in [
            (knm.enumerate_break(p), n),
            (knm.enumerate_parking(p), n - 1),
            (knm.enumerate_residue_tuples(p), n),
        ]:
            reps = sorted({knm.sort_orbit_key(t) for t in tuples})
            coeffs = rt.h_to_s(rt.perm_module_h_expansion(reps), degree)
            assert all(c > 0 for c in coeffs.values())


class TestRestriction:
    def test_23_matches_parking(self):
        chi = rt.character_break(2, 3)
        assert rt.restrict_character(chi) == rt.character_parking(2, 3)

    def test_trivial_restricts_to_trivial(self):
        chi = {mu: 1 for mu in rt.partitions_of(4)}
        assert rt.restrict_character(chi) == {
            mu: 1 for mu in rt.partitions_of(3)
        }

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_theorem_restriction(self, m, n):
        chi = rt.character_break(m, n)
        assert rt.restrict_character(chi) == rt.character_parking(m, n)


class TestShiftClassModule:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_isomorphic_to_break(self, m, n):
        assert rt.character_shift_classes_bruteforce(m, n) == rt.character_break(
            m, n
        )

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_key_test_equals_member_set_action(self, m, n):
        # a class is fixed when the permuted member set equals the original
        classes = [frozenset(c) for c in knm.shift_classes(knm.KnmParams(m, n))]
        expected = {}
        for lam in rt.partitions_of(n):
            perm = rt.permutation_of_type(lam)
            expected[lam] = sum(
                1
                for cls in classes
                if frozenset(tuple(t[perm[i]] for i in range(n)) for t in cls) == cls
            )
        assert rt.character_shift_classes_bruteforce(m, n) == expected


class TestTrivialMultiplicity:
    def test_24(self):
        assert rt.trivial_multiplicity(rt.character_break(2, 4)) == 10

    def test_23(self):
        assert rt.trivial_multiplicity(rt.character_break(2, 3)) == 3

    def test_trivial_character(self):
        chi = {mu: 1 for mu in rt.partitions_of(5)}
        assert rt.trivial_multiplicity(chi) == 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_dt_and_orbit_keys(self, m, n):
        chi = rt.character_break(m, n)
        breaks = knm.enumerate_break(knm.KnmParams(m, n))
        keys = {knm.sort_orbit_key(b) for b in breaks}
        assert (
            rt.trivial_multiplicity(chi)
            == counting.dt_invariant(m, n)
            == len(keys)
            == orbit_count(m, n)
        )


class TestDominatedCount:
    # the Break orbits are the partitions of the genus dominated by delta
    def test_24_paper_value(self):
        assert orbit_count(2, 4) == 10

    def test_past_enumeration_lists_no_orbit(self, monkeypatch):
        monkeypatch.setattr(knm, "break_orbit_reps", refuse)
        monkeypatch.setattr(knm, "_lex_walk", refuse)
        assert orbit_count(2, 14) == 89898151
        assert counting.dt_invariant(2, 14) == 89898151

    def test_budget_is_on_the_state_space(self):
        with pytest.raises(BudgetExceededError, match="Break orbit-type state space"):
            orbit_count(1, 40)

    @pytest.mark.parametrize("m,n", [(1, 5), (2, 5), (3, 4), (2, 6)])
    def test_matches_partition_scan(self, m, n):
        # independent count: every partition of the genus, padded to n
        # parts, whose prefix sums stay within those of delta
        delta = [m * k - 1 for k in range(n - 1, 0, -1)] + [0]
        genus = sum(delta)
        count = 0
        for lam in rt.partitions_of(genus):
            if len(lam) > n:
                continue
            padded = lam + (0,) * (n - len(lam))
            if all(
                sum(padded[: i + 1]) <= sum(delta[: i + 1]) for i in range(n)
            ):
                count += 1
        assert orbit_count(m, n) == count
