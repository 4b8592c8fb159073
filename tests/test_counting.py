import cmath
import math
from fractions import Fraction

import pytest

from breakpark import counting, knm, multigraph, reptheory
from breakpark.errors import (
    BudgetExceededError,
    InternalInvariantError,
    PreconditionError,
)
from breakpark.series import ExactSeries, one_minus_power


def ramanujan_numeric(b, a):
    """Exponential-sum definition, test-only numeric oracle."""
    total = sum(
        cmath.exp(2j * cmath.pi * k * a / b)
        for k in range(1, b + 1)
        if math.gcd(k, b) == 1
    )
    assert abs(total.imag) < 1e-6
    return total.real


class TestMoebiusPhi:
    @pytest.mark.parametrize(
        "k,mu,phi", [(1, 1, 1), (2, -1, 1), (4, 0, 2), (6, 1, 2), (30, -1, 8)]
    )
    def test_small_values(self, k, mu, phi):
        assert counting.moebius(k) == mu
        assert counting.euler_phi(k) == phi

    def test_phi_divisor_sum(self):
        for k in range(1, 50):
            assert sum(counting.euler_phi(d) for d in counting.divisors(k)) == k

    def test_moebius_divisor_sum(self):
        for k in range(2, 50):
            assert sum(counting.moebius(d) for d in counting.divisors(k)) == 0


class TestRamanujanSum:
    def test_c1_always_one(self):
        for a in range(10):
            assert counting.ramanujan_sum(1, a) == 1

    def test_c2_at_zero(self):
        assert counting.ramanujan_sum(2, 0) == 1

    def test_c4_at_two(self):
        assert counting.ramanujan_sum(4, 2) == -2

    def test_zero_argument_gives_phi(self):
        for b in range(1, 20):
            assert counting.ramanujan_sum(b, 0) == counting.euler_phi(b)

    def test_matches_exponential_sum(self):
        for b in range(1, 31):
            for a in range(31):
                assert (
                    abs(counting.ramanujan_sum(b, a) - ramanujan_numeric(b, a))
                    < 1e-6
                )


class TestVonSterneck:
    def test_derived_example(self):
        # multisets of size 3 from {0..5} with sum = 4 mod 6
        assert counting.von_sterneck(6, 3, 4) == 9
        assert counting.von_sterneck_bruteforce(6, 3, 4) == 9

    def test_singletons(self):
        for a in range(1, 8):
            for b in range(a):
                assert counting.von_sterneck(a, 1, b) == 1

    def test_pairs_mod_two(self):
        assert counting.von_sterneck(2, 2, 0) == 2

    def test_bruteforce_over_budget_names_its_size(self):
        # C(29 + 7 - 1, 7) = 6,724,520 multisets, over the default budget
        with pytest.raises(BudgetExceededError) as exc:
            counting.von_sterneck_bruteforce(29, 7, 0)
        assert str(exc.value) == (
            "|multisets of 7 from 29 values| = 6724520 exceeds budget 2000000"
        )

    def test_matches_bruteforce(self):
        for a in range(1, 9):
            for k in range(7):
                for b in range(a):
                    assert counting.von_sterneck(
                        a, k, b
                    ) == counting.von_sterneck_bruteforce(a, k, b)


class TestOrbitCounts:
    def test_23(self):
        assert counting.orbit_count_D(2, 3) == 9

    def test_12(self):
        assert counting.orbit_count_D(1, 2) == 2

    def test_24(self):
        assert counting.orbit_count_D(2, 4) == 40

    def test_three_routes_agree(self):
        for m in range(1, 5):
            for n in range(1, 13):
                assert (
                    counting.orbit_count_D(m, n)
                    == counting.orbit_count_D_von_sterneck(m, n)
                    == counting.orbit_count_D_split(m, n)
                )

    def test_nonintegral_sum_is_an_internal_error(self, monkeypatch):
        # With every Moebius value past 1 zeroed, each divisor sum keeps
        # one binomial that its divisor does not divide: 28/3, 56/6, 56/6.
        monkeypatch.setattr(counting, "moebius", lambda k: 1 if k == 1 else 0)
        for count in (
            lambda: counting.orbit_count_D(2, 3),
            lambda: counting.orbit_count_D_split(2, 3),
            lambda: counting.von_sterneck(6, 3, 4),
        ):
            with pytest.raises(InternalInvariantError):
                count()


class TestDTInvariant:
    def test_24_paper_value(self):
        assert counting.dt_invariant(2, 4) == 10

    def test_n1_always_one(self):
        for m in range(1, 8):
            assert counting.dt_invariant(m, 1) == 1

    def test_23(self):
        assert counting.dt_invariant(2, 3) == 3


class TestFussCatalan:
    def test_empty_tree(self):
        for m in range(1, 5):
            assert counting.fuss_catalan(m, 0) == 1

    def test_catalan(self):
        assert [counting.fuss_catalan(1, k) for k in range(6)] == [
            1, 1, 2, 5, 14, 42,
        ]

    def test_ternary(self):
        assert counting.fuss_catalan(2, 2) == 3


class TestSeries:
    def test_mul_and_reciprocal(self):
        f = ExactSeries([1, 2, 3, 4], 3)
        assert f * f.reciprocal() == ExactSeries([1], 3)

    def test_pow_negative(self):
        f = one_minus_power(1, 5)
        geom = f.pow_int(-1)
        assert [geom[k] for k in range(6)] == [1] * 6

    def test_log_of_geometric(self):
        f = one_minus_power(1, 5).pow_int(-1)
        logs = f.log()
        assert [logs[k] for k in range(1, 6)] == [
            Fraction(1, k) for k in range(1, 6)
        ]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_minus_power_equals_repeated_product(self, k):
        for e in [*range(-5, 6), 10**30, -(10**30)]:
            assert one_minus_power(k, 12, e) == one_minus_power(k, 12).pow_int(e)

    def test_one_minus_power_binomials(self):
        assert one_minus_power(2, 7, 3).coeffs == [1, 0, -3, 0, 3, 0, -1, 0]
        assert one_minus_power(3, 7, -2).coeffs == [1, 0, 0, 2, 0, 0, 3, 0]
        assert one_minus_power(4, 3, 10**30).coeffs == [1, 0, 0, 0]

    def test_one_minus_power_rejects_k_below_1(self):
        with pytest.raises(PreconditionError):
            one_minus_power(0, 5, 2)

    def test_integer_series_keep_int(self):
        f = ExactSeries([1, 2, 3], 4)
        g = ExactSeries([0, 5, -1, 7, 2], 4)
        for s in (
            f * g, f.pow_int(3),
            one_minus_power(2, 4, -7),
        ):
            assert all(type(c) is int for c in s.coeffs), s

    def test_divisions_build_fractions_never_floats(self):
        f = ExactSeries([2, 1, 3], 5)
        for s in (
            f.reciprocal(),
            ExactSeries([1], 5).reciprocal(),
            one_minus_power(1, 5).pow_int(-1),
            ExactSeries([1, 1, 2], 5).log(),
            counting._substituted_tree_series(2, 5).log(),
        ):
            assert all(type(c) is Fraction for c in s.coeffs), s
        assert f * f.reciprocal() == ExactSeries([1], 5)


class TestEulerProduct:
    def test_dt1_is_one(self):
        for m in range(1, 4):
            assert counting.dt_via_euler_product(m, 1)[1] == 1

    def test_24_via_product(self):
        assert counting.dt_via_euler_product(2, 4)[4] == 10

    def test_two_routes_match_closed_form(self):
        for m in range(1, 4):
            product = counting.dt_via_euler_product(m, 10)
            logs = counting.dt_via_formal_log(m, 10)
            for n in range(1, 11):
                assert product[n] == logs[n] == counting.dt_invariant(m, n)

    def test_routes_agree_on_the_dt_workload_range(self):
        n_max = counting.MAX_SERIES_ORDER
        for m in range(1, 13):
            closed = {n: counting.dt_invariant(m, n) for n in range(1, n_max + 1)}
            assert counting.dt_via_euler_product(m, n_max) == closed
            assert counting.dt_via_formal_log(m, n_max) == closed

    def test_order_cap(self):
        with pytest.raises(BudgetExceededError):
            counting.dt_via_euler_product(1, 25)

    def test_rejects_zero(self):
        with pytest.raises(PreconditionError):
            counting.dt_via_euler_product(1, 0)


@pytest.mark.parametrize(
    "fn, args",
    [(counting.orbit_count_D_split, (0, 1)),
     (counting.orbit_count_D_split, (1, 0)),
     (counting.orbit_count_D_split, (-1, 2)),
     (reptheory.character_break, (0, 3)),
     (reptheory.character_break_closed, (0, 3, (3,))),
     (one_minus_power, (1, -1)),
     (counting.von_sterneck_bruteforce, (0, 2, 1)),
     (counting.ramanujan_sum, (0, 1)),
     (counting.von_sterneck, (0, 2, 1)),
     (counting.orbit_count_D, (0, 3)),
     (counting.fuss_catalan, (0, 3)),
     (reptheory.character_break_closed, (2, 3, (2,))),
     (reptheory.murnaghan_nakayama, ((2,), (1,))),
     (reptheory.restrict_character, ({(1,): 1},)),
     (reptheory.partitions_of, (-1,))],
    ids=["split-m0", "split-n0", "split-m-1", "character-m0", "closed-m0",
         "one-minus-power-order-1", "von-sterneck-bruteforce-a0",
         "ramanujan-b0", "von-sterneck-a0", "orbit-count-m0", "fuss-catalan-m0",
         "closed-lam-of-another-n", "mn-sizes-differ", "restrict-n1", "partitions-n-1"],
)
def test_outside_the_domain_raises_precondition_error(fn, args):
    # as their siblings orbit_count_D, character_break_bruteforce and
    # von_sterneck do, not a ZeroDivisionError, IndexError or quiet 0
    with pytest.raises(PreconditionError):
        fn(*args)


# Scalar arguments go through `operator.index`: once KnmParams(1.5, 2).genus
# read 0.0, moebius(2.5) read -1, euler_phi(6.0) read 2.0 and divisors(0)
# and divisors(-4) read [].
SCALAR_CALLS = {
    "KnmParams-m": lambda x: knm.KnmParams(x, 2).genus,
    "KnmParams-n": lambda x: knm.KnmParams(2, x).delta,
    "moebius": counting.moebius,
    "euler_phi": counting.euler_phi,
    "divisors": counting.divisors,
}
REFUSED = [2.5, 6.0, Fraction(6), "6", 0, -4]
REFUSED_IDS = ["float", "integral-float", "fraction", "str", "zero", "negative"]


@pytest.mark.parametrize("name", SCALAR_CALLS)
@pytest.mark.parametrize("value", REFUSED, ids=REFUSED_IDS)
def test_scalar_argument_refused(name, value):
    with pytest.raises(PreconditionError):
        SCALAR_CALLS[name](value)


@pytest.mark.parametrize("name", SCALAR_CALLS)
def test_scalar_argument_numpy_int64_accepted(name):
    numpy = pytest.importorskip("numpy")
    # the same value, built from Python ints: repr shows a numpy scalar
    assert repr(SCALAR_CALLS[name](numpy.int64(6))) == repr(SCALAR_CALLS[name](6))


# The same rule for the scalars of the closed counts, each taken in one
# place.  Once character_break_closed(2.0, 3, (1, 1, 1)) read 12.0 and the
# others raised a bare TypeError.
SCALAR_PLACES = {
    "character_break_closed-m": lambda x: reptheory.character_break_closed(x, 3, (1, 1, 1)),
    "character_break_closed-n": lambda x: reptheory.character_break_closed(2, x, (1, 1)),
    "complete_multigraph-m": lambda x: multigraph.complete_multigraph(x, 3).mult,
    "complete_multigraph-n": lambda x: multigraph.complete_multigraph(2, x).mult,
    "ramanujan_sum-b": lambda x: counting.ramanujan_sum(x, 1),
    "ramanujan_sum-a": lambda x: counting.ramanujan_sum(6, x),
    "von_sterneck-a": lambda x: counting.von_sterneck(x, 2, 1),
    "von_sterneck-k": lambda x: counting.von_sterneck(6, x, 1),
    "von_sterneck-b": lambda x: counting.von_sterneck(6, 2, x),
    "orbit_count_D-m": lambda x: counting.orbit_count_D(x, 3),
    "orbit_count_D-n": lambda x: counting.orbit_count_D(2, x),
    "fuss_catalan-m": lambda x: counting.fuss_catalan(x, 3),
    "fuss_catalan-n": lambda x: counting.fuss_catalan(2, x),
    "dt_invariant-m": lambda x: counting.dt_invariant(x, 3),
    "dt_invariant-n": lambda x: counting.dt_invariant(2, x),
    "dt_via_euler_product-m": lambda x: counting.dt_via_euler_product(x, 5),
    "dt_via_euler_product-n_max": lambda x: counting.dt_via_euler_product(2, x),
}
NON_INTEGERS = [2.5, 2.0, Fraction(2), "2"]


@pytest.mark.parametrize("place", SCALAR_PLACES)
@pytest.mark.parametrize("value", NON_INTEGERS, ids=REFUSED_IDS[:4])
def test_closed_count_scalar_refused(place, value):
    with pytest.raises(PreconditionError, match="must be integers"):
        SCALAR_PLACES[place](value)


@pytest.mark.parametrize("place", SCALAR_PLACES)
def test_closed_count_scalar_numpy_int64_accepted(place):
    numpy = pytest.importorskip("numpy")
    assert repr(SCALAR_PLACES[place](numpy.int64(2))) == repr(SCALAR_PLACES[place](2))
