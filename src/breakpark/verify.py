"""Named invariant suites: every closed formula cross-checked against a
brute-force oracle.

Every check is a (name, passed, detail) built by `_check`.  A PASS
detail is the scope, such as "m <= 3, n <= 5"; a FAIL detail names the
first counterexample with every value compared, "<scope>; first
counterexample: <case>: <name> <value>, ...", where the case is (m, n)
and the entry, class or cycle type that differs, or a graph in file
format.  The CLI `verify` subcommand runs the suites and exits nonzero
on any failure; the test suite runs the same code.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable

from . import counting, knm, multigraph, reptheory
from .errors import (
    DEFAULT_SET_BUDGET,
    BudgetExceededError,
    InternalInvariantError,
    PreconditionError,
    check_budget,
)

Check = tuple[str, bool, str]


def _scope(m_max: int, n_max: int, n_min: int = 1) -> tuple[str, bool]:
    """The detail of a suite over 1 <= m <= m_max, n_min <= n <= n_max,
    and whether that range holds a case at all: a suite over an empty
    range checks nothing, so it must FAIL and name the empty scope."""
    if m_max >= 1 and n_max >= n_min:
        return f"m <= {m_max}, n <= {n_max}", True
    return (
        f"empty scope: 1 <= m <= {m_max}, {n_min} <= n <= {n_max} holds no case",
        False,
    )


def _cases(m_max: int, n_max: int, n_min: int = 1, *checks) -> list:
    """(m, n, KnmParams(m, n), "m M, n N") for 1 <= m <= m_max and
    n_min <= n <= n_max, listed after making on each case the budget
    checks `check(p, budget)` that the suite's calls make on it, in the
    same order.  A suite over budget then fails at once, with the error
    its first case over budget raises, and not after the work of every
    case before that one."""
    cases = [(m, n, knm.KnmParams(m, n), f"m {m}, n {n}")
             for m in range(1, m_max + 1) for n in range(n_min, n_max + 1)]
    for _, _, p, _ in cases:
        for check in checks:
            check(p, DEFAULT_SET_BUDGET)
    return cases


def _partitions_budget(p: knm.KnmParams, budget: int):
    knm._check_partitions(p.n, budget)


def _scan_budget(p: knm.KnmParams, budget: int):
    """The candidates `suite_knm_vs_multigraph` scans: the compositions
    of g into n parts and [0, m(n-1)]^(n-1)."""
    multigraph.check_composition_budget(p.genus, p.n, budget)
    top = p.m * (p.n - 1)
    check_budget((top + 1) ** (p.n - 1), budget, f"[0, {top}]^{p.n - 1}")


def _first(counterexamples: Iterable[str | None]) -> str | None:
    """The first counterexample that is not None, or None."""
    return next(filter(None, counterexamples), None)


def random_connected_multigraph(
    rng: random.Random, max_vertices: int = 6, max_extra_edges: int = 5
) -> multigraph.Multigraph:
    """A random connected multigraph: random spanning tree plus a few
    extra edges, multiplicities bumped up to at most 3.

    The extra-edge cap keeps the genus small enough for exhaustive
    divisor scans.
    """
    n = rng.randint(2, max_vertices)
    mult = [[0] * n for _ in range(n)]
    for v in range(1, n):
        w = rng.randrange(v)
        mult[v][w] = mult[w][v] = 1
    for _ in range(rng.randint(0, max_extra_edges)):
        i, j = rng.sample(range(n), 2)
        if mult[i][j] < 3:
            mult[i][j] += 1
            mult[j][i] = mult[i][j]
    return multigraph.Multigraph(mult)


def _disagreement(case: str, values) -> str | None:
    """The case and its (function name, value) pairs if the values are
    not all equal, else None."""
    if len({value for _, value in values}) < 2:
        return None
    return f"{case}: " + ", ".join(f"{name} {value}" for name, value in values)


def _counterexample(g: multigraph.Multigraph, case: str, values) -> str | None:
    """A disagreement on a case named by the graph in file format."""
    return _disagreement(f"graph {multigraph.format_graph_file(g)!r}, {case}", values)


def _first_disagreement(g, divisors, fast, slow) -> str | None:
    """The first divisor on which fast(g, d) != slow(g, d), named with
    both values, or None."""
    for d in divisors:
        a, b = fast(g, d), slow(g, d)
        if a != b:
            return _counterexample(
                g, f"divisor {tuple(d)}", [(fast.__name__, a), (slow.__name__, b)]
            )
    return None


def break_oracle_counterexample(g: multigraph.Multigraph) -> str | None:
    """The first effective divisor of degree genus on which
    is_break_divisor and the orientability route disagree, or None."""
    gen = multigraph.genus(g)
    return _first_disagreement(
        g, knm.compositions(gen, g.n, gen),
        multigraph.is_break_divisor, multigraph.break_via_orientability,
    )


def break_count_counterexample(g: multigraph.Multigraph) -> str | None:
    """The break count and the spanning-tree count of g if they differ."""
    breaks = sum(1 for _ in multigraph.enumerate_break_divisors(g))
    trees = multigraph.spanning_tree_count(g)
    if breaks == trees:
        return None
    return _counterexample(
        g, "counts",
        [("enumerate_break_divisors", breaks), ("spanning_tree_count", trees)],
    )


def _check(name: str, scope: str, counterexample: str | None, ok=True) -> Check:
    """A check that passes when ok and no counterexample was found; the
    detail is its scope, then the first counterexample if there is one."""
    if counterexample is None:
        return name, ok, scope
    return name, False, f"{scope}; first counterexample: {counterexample}"


RANDOM_GRAPH_SAMPLES = 100


def suite_random_graphs(seed: int = 0) -> list[Check]:
    rng = random.Random(seed)
    scope = f"{RANDOM_GRAPH_SAMPLES} graphs, seed {seed}"
    oracle_cx = count_cx = None
    for _ in range(RANDOM_GRAPH_SAMPLES):  # one graph held at a time
        g = random_connected_multigraph(rng)
        oracle_cx = oracle_cx or break_oracle_counterexample(g)
        count_cx = count_cx or break_count_counterexample(g)
    return [
        _check("break-equals-orientability-on-random-graphs", scope, oracle_cx),
        _check("break-count-equals-spanning-trees", scope, count_cx),
    ]


def _chips_on_endpoints(
    rng: random.Random, g: multigraph.Multigraph, start: int, tree=frozenset()
) -> list[int]:
    """start on every vertex, plus one chip on a random endpoint of each
    edge, leaving out one edge of each pair in tree.  With start -1 and
    no tree this is indeg - 1 of an orientation, so orientable; with
    start 0 and a spanning tree it is a break divisor (An, Baker,
    Kuperberg and Shokrieh)."""
    d = [start] * g.n
    for i, j in itertools.combinations(range(g.n), 2):
        copies = g.mult[i][j] - ((i, j) in tree)
        # all on one endpoint leaves tight vertex sets for _move_chip
        heads = rng.choice((0, copies, rng.randint(0, copies)))
        d[i] += copies - heads
        d[j] += heads
    return d


def _heavy_multigraph(rng: random.Random) -> multigraph.Multigraph:
    """A random connected multigraph on at most 9 vertices whose
    multiplicities reach 300."""
    g = random_connected_multigraph(rng, 9, max_extra_edges=18)
    mult = [[0] * g.n for _ in range(g.n)]
    for i, j in itertools.combinations(range(g.n), 2):
        if g.mult[i][j]:
            mult[i][j] = mult[j][i] = rng.randint(1, 300)
    return multigraph.Multigraph(mult)


def _random_divisor(rng: random.Random, n: int, degree: int) -> list[int]:
    """Entries from -2 up, of the given degree."""
    d = [rng.randint(-2, 2) for _ in range(n)]
    d[rng.randrange(n)] += degree - sum(d)
    return d


def _move_chip(rng: random.Random, d: list[int]) -> list[int]:
    """d with one chip moved between two random vertices: next to a
    divisor that holds, this often meets some inequality with equality."""
    d = list(d)
    d[rng.randrange(len(d))] -= 1
    d[rng.randrange(len(d))] += 1
    return d


SUBSET_KERNEL_SAMPLES = 50


def suite_subset_kernel(seed: int = 0) -> list[Check]:
    """The packed subset predicates against independent oracles on seeded
    random multigraphs: is_orientable against the scan of all
    orientations, on graphs with at most 12 edges, and is_break_divisor
    against the list pass over `subset_edges`, on graphs with up to 9
    vertices and multiplicities up to 300.  Each graph gets a divisor
    that holds by construction, the same with one chip moved, and a
    random one that mostly fails."""
    rng = random.Random(seed)
    orient_cx = break_cx = None
    for _ in range(SUBSET_KERNEL_SAMPLES):
        # a spanning tree of at most 6 edges plus at most 6 more
        g = random_connected_multigraph(rng, max_vertices=7, max_extra_edges=6)
        d = _chips_on_endpoints(rng, g, -1)
        divisors = [d, _move_chip(rng, d), _random_divisor(rng, g.n, g.edge_count() - g.n)]
        orient_cx = orient_cx or _first_disagreement(
            g, divisors, multigraph.is_orientable, multigraph.orientable_bruteforce
        )
        g = _heavy_multigraph(rng)
        d = _chips_on_endpoints(rng, g, 0, multigraph._bfs_tree(g))
        divisors = [d, _move_chip(rng, d), _move_chip(rng, d),
                    _random_divisor(rng, g.n, multigraph.genus(g))]
        break_cx = break_cx or _first_disagreement(
            g, divisors, multigraph.is_break_divisor, multigraph.break_subset_bruteforce
        )
    scope = f"{SUBSET_KERNEL_SAMPLES} graphs, seed {seed}"
    return [
        _check("packed-orientable-vs-orientation-scan",
               f"{SUBSET_KERNEL_SAMPLES} graphs with at most 12 edges, seed {seed}",
               orient_cx),
        _check("packed-break-vs-subset-list", scope, break_cx),
    ]


def _first_entry_disagreement(case: str, named) -> str | None:
    """The first index at which the two (name, sequence) pairs differ,
    named with both entries (None past the end of the shorter), or None."""
    (a_name, a), (b_name, b) = named
    return _first(_disagreement(f"{case}, entry {i}", [(a_name, x), (b_name, y)])
                  for i, (x, y) in enumerate(itertools.zip_longest(a, b)))


def _class_counterexample(p: knm.KnmParams, case: str, cls, records) -> str | None:
    """How one shift class fails to be n sorted members closed under the
    shift, with one break member and one parking projection that the
    direct representatives and the next item of `records` (the texts of
    a `records=True` class record) find, or None.  `records` is advanced
    only once the direct representatives agree, so a fault in them is
    named before the walk's own cross-check with them raises."""
    n, key, case, text = p.n, cls[0], f"{case}, class {cls[0]}", knm.tuple_template(p.n)
    breaks = [a for a in cls if knm.is_break_mn(p, a)]
    parks = [a[: n - 1] for a in cls if knm.is_parking_mn(p, a[: n - 1])]
    return (
        _disagreement(case, [("class size", len(cls)), ("n", n)])
        or _disagreement(case, [("members", tuple(cls)), ("sorted", tuple(sorted(cls))),
                                ("shifted", tuple(sorted(knm.shift(p, a) for a in cls)))])
        or _disagreement(case, [("break members", len(breaks)),
                                ("parking projections", len(parks)), ("one per class", 1)])
        or _disagreement(case, [("break_representative", knm.break_representative(p, key)),
                                ("break member", breaks[0])])
        or _disagreement(case, [
            ("parking_representative", knm.parking_representative(p, key)),
            ("parking projection", parks[0])])
        or _disagreement(case, [  # the record filled by one `%` over its templates
            ("record", None if (record := next(records, None)) is None
             else " ".join(dict(knm.class_fields(p)).values()) % record),
            ("scanned", " ".join([text % breaks[0], text % key,
                                  ";".join(map(text.__mod__, cls)),
                                  knm.tuple_template(n - 1) % parks[0]]))])
    )


def _residue_record_counterexample(p: knm.KnmParams, case: str) -> str | None:
    """The first tuple of `knm.enumerate_residue_tuples` whose record,
    the item in step with it of the `records=True` walk, filled into the
    class-key and tuple templates of `knm.residue_fields` (in JSON key
    order, each taking its `%`-count of arguments), differs from the text of its
    `class_key` or of itself, named with all four texts, or None."""
    (_, key_format), _, (_, tuple_format) = knm.residue_fields(p)
    k, t, text = key_format.count("%"), tuple_format.count("%"), knm.tuple_template(p.n)
    for x, record in zip(knm.enumerate_residue_tuples(p),
                         knm.enumerate_residue_tuples(p, records=True)):
        texts = [("record class_key", key_format % record[:k]),
                 ("class_key", text % knm.class_key(p, x)),
                 ("record tuple", tuple_format % record[-t:]), ("tuple", text % x)]
        if texts[0][1] != texts[1][1] or texts[2][1] != texts[3][1]:
            return f"{case}, tuple {x}: " + ", ".join(f"{a} {b}" for a, b in texts)
    return None


def suite_shift_classes(m_max: int = 3, n_max: int = 5) -> list[Check]:
    """The shift classes partition D into |Break| = N^(n-1)/n classes,
    each of size n, closed under the shift, listed in key order, with one
    break member and one parking projection, which the direct
    representatives and the `enumerate --set classes` records find.  No
    check reads the key rule that `shift_classes` generates the classes by.
    `knm.shift` validates every member, so N^(n-1) distinct members are
    all of D.  The `enumerate --set residue` record of each residue tuple
    prints `class_key`'s key and the tuple (`_residue_record_counterexample`)."""
    scope, ok = _scope(m_max, n_max)
    cx = None
    for _, _, p, case in _cases(m_max, n_max, 1, knm.check_d_budget):
        classes = list(knm.shift_classes(p))
        keys = [cls[0] for cls in classes]
        members = [a for cls in classes for a in cls]
        records = knm.shift_classes(p, records=True)
        cx = cx or (
            _disagreement(case, [
                ("shift_classes", len(classes)), ("break_count", knm.break_count(p))])
            or _first_entry_disagreement(case, [("keys", keys), ("sorted", sorted(keys))])
            or _first(_class_counterexample(p, case, cls, records) for cls in classes)
            or _disagreement(case, [
                ("members", len(members)), ("distinct members", len(set(members))),
                ("residue_count", knm.residue_count(p))])
            or _residue_record_counterexample(p, case)
        )
    return [_check("shift-class-structure", scope, cx, ok)]


def suite_cardinalities(m_max: int = 3, n_max: int = 5) -> list[Check]:
    """The closed counts, and the orbit-generated enumerations against
    the candidate scans, list for list.  |D| is counted off the stream."""
    scope, ok = _scope(m_max, n_max)
    count_cx = scan_cx = None
    for _, _, p, case in _cases(m_max, n_max, 1, knm.check_break_budget,
                                knm.check_d_budget):
        breaks = list(knm.enumerate_break(p))
        parks = list(knm.enumerate_parking(p))
        count_cx = count_cx or _disagreement(case, [
            ("break_count", knm.break_count(p)),
            ("enumerate_break", len(breaks)), ("enumerate_parking", len(parks)),
        ]) or _disagreement(case, [
            ("residue_count", knm.residue_count(p)),
            ("enumerate_residue_tuples", sum(1 for _ in knm.enumerate_residue_tuples(p))),
        ])
        scan_cx = scan_cx or _first_entry_disagreement(case, [
            ("enumerate_break", breaks),
            ("enumerate_break_bruteforce", knm.enumerate_break_bruteforce(p)),
        ]) or _first_entry_disagreement(case, [
            ("enumerate_parking", parks),
            ("enumerate_parking_bruteforce", knm.enumerate_parking_bruteforce(p)),
        ])
    return [
        _check("cardinalities", scope, count_cx, ok),
        _check("orbit-enumeration-equals-scan", scope, scan_cx, ok),
    ]


def suite_knm_vs_multigraph(m_max: int = 2, n_max: int = 4) -> list[Check]:
    """The sorted-dominance and subset-quantified break tests agree on
    K_n^m, and likewise for the two parking predicates."""
    scope, ok = _scope(m_max, n_max, 2)
    break_cx = park_cx = None
    for m, n, p, _ in _cases(m_max, n_max, 2, _scan_budget):
        g = multigraph.complete_multigraph(m, n)
        for d in knm.compositions(p.genus, n, p.genus):
            a, b = knm.is_break_mn(p, d), multigraph.is_break_divisor(g, d)
            if a != b and break_cx is None:
                break_cx = _counterexample(
                    g, f"divisor {d}", [("is_break_mn", a), ("is_break_divisor", b)]
                )
        for a in itertools.product(range(m * (n - 1) + 1), repeat=n - 1):
            x, y = knm.is_parking_mn(p, a), multigraph.is_g_parking(g, n - 1, a)
            if x != y and park_cx is None:
                park_cx = _counterexample(
                    g, f"q {n - 1} (0-based), values {a}",
                    [("is_parking_mn", x), ("is_g_parking", y)],
                )
    return [
        _check("break-dominance-vs-subset-test", scope, break_cx, ok),
        _check("parking-vector-vs-subset-test", scope, park_cx, ok),
    ]


def suite_orbit_counts(m_max: int = 4, n_max: int = 12) -> list[Check]:
    scope, ok = _scope(m_max, n_max)
    routes = ("orbit_count_D", "orbit_count_D_von_sterneck", "orbit_count_D_split")
    cx = _first(
        _disagreement(case, [(name, getattr(counting, name)(m, n)) for name in routes])
        for m, n, _, case in _cases(m_max, n_max)
    )
    return [_check("orbit-count-three-routes", scope, cx, ok)]


def suite_dt_two_routes(m_max: int = 3, n_max: int | None = None) -> list[Check]:
    """Both series routes against the closed form, by default over the
    whole series order the `dt` command serves (read on call, so that
    importing this module loads no `counting`)."""
    if n_max is None:
        n_max = counting.MAX_SERIES_ORDER
    scope, ok = _scope(m_max, n_max)
    cx = None
    for m in range(1, m_max + 1):
        table = counting.dt_via_euler_product(m, n_max)
        log_table = counting.dt_via_formal_log(m, n_max)
        cx = cx or _first(_disagreement(f"m {m}, n {n}", [
            ("dt_via_euler_product", table[n]), ("dt_via_formal_log", log_table[n]),
            ("dt_invariant", counting.dt_invariant(m, n)),
        ]) for n in range(1, n_max + 1))
    return [_check("dt-euler-product-vs-closed-form", scope, cx, ok)]


def _first_class_disagreement(case: str, named) -> str | None:
    """The first cycle type on which the (name, class function) pairs
    differ, named with every value, or None."""
    return _first(
        _disagreement(f"{case}, cycle type {lam}", [(k, chi[lam]) for k, chi in named])
        for lam in named[0][1]
    )


def suite_characters(m_max: int = 3, n_max: int = 6) -> list[Check]:
    """The closed character formula and the orbit-type route of
    `reptheory.knm_modules` (the `character` command's bruteforce
    column) against per-tuple fixed-point scans: the Break module's
    character against the scanned one, and for n >= 2 the Park module's
    against its restriction to S_(n-1)."""
    scope, ok = _scope(m_max, n_max)
    closed_cx = orbit_cx = None
    for m, n, p, case in _cases(m_max, n_max, 1, knm.check_break_budget,
                                _partitions_budget):
        modules = reptheory.knm_modules(p)
        scanned = ("character_break_bruteforce", reptheory.character_break_bruteforce(m, n))
        closed_cx = closed_cx or _first_class_disagreement(
            case, [("character_break_closed", modules.closed), scanned])
        orbit_cx = orbit_cx or _first_class_disagreement(
            case, [("break_orbit_types", modules.breaks.character), scanned]
        ) or (_first_class_disagreement(case, [
            ("parking_orbit_types", modules.parks.character),
            ("restricted character_break_bruteforce",
             reptheory.restrict_character(scanned[1]))]) if n > 1 else None)
    return [
        _check("closed-character-vs-bruteforce", scope, closed_cx, ok),
        _check("orbit-character-vs-bruteforce", scope, orbit_cx, ok),
    ]


def suite_module_isomorphisms(m_max: int = 2, n_max: int = 4) -> list[Check]:
    """Break module == shift-class module; restriction == parking module,
    scanned and by its orbits; trivial multiplicity == DT invariant ==
    orbits of the scanned break divisors == orbits counted by
    multiplicity partition.  The closed character, the restriction
    verdict, the parking orbit character and the Break orbit types are
    those of `reptheory.knm_modules`, so the Break DP runs once a case,
    within the |Break| check of `knm_modules`."""
    scope, ok = _scope(m_max, n_max, 2)
    iso_cx = res_cx = triv_cx = None
    for m, n, p, case in _cases(m_max, n_max, 2, knm.check_d_budget,
                                knm.check_break_budget, _partitions_budget):
        # the |D| scan first, so an over-budget run names |D|
        shift_chi = reptheory.character_shift_classes_bruteforce(m, n)
        modules = reptheory.knm_modules(p)
        chi, park_chi = modules.closed, reptheory.character_parking(m, n)
        iso_cx = iso_cx or _first_class_disagreement(case, [
            ("character_break", chi), ("character_shift_classes_bruteforce", shift_chi)])
        if not (modules.restricts and park_chi == modules.parks.character):
            # by a cycle type of S_(n-1), else by (m, n): a FAIL never passes
            res_cx = res_cx or _first_class_disagreement(case, [
                ("restrict_character", reptheory.restrict_character(chi)),
                ("character_parking", park_chi),
                ("parking_orbit_types", modules.parks.character),
            ]) or case
        breaks = knm.enumerate_break_bruteforce(p)
        triv_cx = triv_cx or _disagreement(case, [
            ("trivial_multiplicity", reptheory.trivial_multiplicity(chi)),
            ("dt_invariant", counting.dt_invariant(m, n)),
            ("scanned break orbits", len({knm.sort_orbit_key(b) for b in breaks})),
            ("count_break_types", sum(modules.breaks.h.values())),
        ])
    return [
        _check("break-module-vs-shift-class-module", scope, iso_cx, ok),
        _check("restriction-equals-parking-module", scope, res_cx, ok),
        _check("trivial-multiplicity-equals-dt", scope, triv_cx, ok),
    ]


def suite_theorems_by_orbit_types(m_max: int = 3, n_max: int = 12) -> list[Check]:
    """The module theorems past the reach of enumeration, from the orbit
    types that `knm` counts without listing an orbit: Break has DT_n
    orbits, the character of the h-expansion of Break is the closed
    character, and the closed character restricts (n >= 2) to that of
    Park, counted by its closed formula.  The largest case costs the
    most, so its costs are checked against the budget before the first
    case: the Break orbit-type state space and the pairs of a cycle type
    and an orbit type that a character sums over, at most p(n)^2.  These
    checks bound the states, not the work of the Break sweep, which
    revisits them at each of up to delta[0] + 1 values: `--m 50` passes
    them and then runs for minutes."""
    scope, ok = _scope(m_max, n_max)
    res_scope, res_ok = _scope(m_max, n_max, 2)
    if ok:
        knm._check_break_states(knm.KnmParams(m_max, n_max), DEFAULT_SET_BUDGET)
        *_, types = knm.partition_counts(n_max)
        check_budget(types * types, DEFAULT_SET_BUDGET,
                     f"partitions of {n_max} x partitions of {n_max}")
    dt_cx = chi_cx = res_cx = None
    for m, n, p, case in _cases(m_max, n_max):
        h = knm.break_orbit_types(p)
        closed = reptheory.character_break(m, n)
        dt_cx = dt_cx or _disagreement(case, [
            ("break_orbit_types", sum(h.values())),
            ("dt_invariant", counting.dt_invariant(m, n))])
        chi_cx = chi_cx or _first_class_disagreement(case, [
            ("break_orbit_types", reptheory.h_module_character(h, n)),
            ("character_break", closed)])
        if n > 1:
            parks = reptheory.h_module_character(knm.parking_orbit_types(p), n - 1)
            res_cx = res_cx or _first_class_disagreement(case, [
                ("restrict_character", reptheory.restrict_character(closed)),
                ("parking_orbit_types", parks)])
    return [
        _check("orbit-types-count-dt", scope, dt_cx, ok),
        _check("orbit-type-character-equals-closed", scope, chi_cx, ok),
        _check("orbit-type-restriction-equals-parking", res_scope, res_cx, res_ok),
    ]


SUITES: dict[str, Callable[..., list[Check]]] = {
    "random-graphs": suite_random_graphs,
    "shift-classes": suite_shift_classes,
    "cardinalities": suite_cardinalities,
    "knm-vs-multigraph": suite_knm_vs_multigraph,
    "subset-kernel": suite_subset_kernel,
    "orbit-counts": suite_orbit_counts,
    "dt-two-routes": suite_dt_two_routes,
    "characters": suite_characters,
    "module-isomorphisms": suite_module_isomorphisms,
    "theorems-by-orbit-types": suite_theorems_by_orbit_types,
}


def _unwrap(fn):
    """The function a chain of `functools.wraps` wrappers ends at."""
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


def run_suites(
    only: Iterable[str] | None = None, seed: int = 0, **overrides
) -> list[Check]:
    """Run the named suites (all by default), passing each only the
    keyword overrides its signature accepts.  A suite that exceeds a
    budget or cap, or that a library fault stops (an
    `InternalInvariantError`, or a `PreconditionError` on the inputs the
    suite built itself), yields one FAIL record naming it, and the run
    goes on."""
    names = list(only) if only else list(SUITES)
    results: list[Check] = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        fn = SUITES[name]
        code = _unwrap(fn).__code__
        accepted = set(code.co_varnames[: code.co_argcount + code.co_kwonlyargcount])
        kwargs = {k: v for k, v in overrides.items() if k in accepted}
        if "seed" in accepted:
            kwargs.setdefault("seed", seed)
        try:
            results.extend(fn(**kwargs))
        except BudgetExceededError as exc:
            results.append((name, False, f"over budget: {exc}"))
        except (InternalInvariantError, PreconditionError) as exc:
            results.append((name, False, f"internal error: {exc}"))
    return results
