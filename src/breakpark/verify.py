"""Named invariant suites: every closed formula cross-checked against a
brute-force oracle.

Each check returns (name, passed, detail).  The CLI `verify` subcommand
runs them and exits nonzero on any failure; the test suite runs the
same code.
"""

from __future__ import annotations

import inspect
import itertools
import random
from typing import Callable, Iterable, Sequence

from . import counting, knm, multigraph, reptheory

Check = tuple[str, bool, str]


def random_connected_multigraph(
    rng: random.Random, max_vertices: int = 6, max_mult: int = 3,
    max_extra_edges: int = 5,
) -> multigraph.Multigraph:
    """A random connected multigraph: random spanning tree plus a few
    extra edges, multiplicities bumped up to at most max_mult.

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
        if mult[i][j] < max_mult:
            mult[i][j] += 1
            mult[j][i] = mult[i][j]
    return multigraph.Multigraph(mult)


def check_break_oracle_on_graph(g: multigraph.Multigraph) -> bool:
    """is_break_divisor agrees with the orientability route on every
    effective divisor of degree genus."""
    gen = multigraph.genus(g)
    for d in knm.compositions(gen, g.n, gen):
        if multigraph.is_break_divisor(g, d) != multigraph.break_via_orientability(g, d):
            return False
    return True


def check_break_count_on_graph(g: multigraph.Multigraph) -> bool:
    return len(multigraph.enumerate_break_divisors(g)) == multigraph.spanning_tree_count(g)


def suite_random_graphs(seed: int = 0, samples: int = 100) -> list[Check]:
    rng = random.Random(seed)
    graphs = [random_connected_multigraph(rng) for _ in range(samples)]
    oracle_ok = all(check_break_oracle_on_graph(g) for g in graphs)
    count_ok = all(check_break_count_on_graph(g) for g in graphs)
    return [
        (
            "break-equals-orientability-on-random-graphs",
            oracle_ok,
            f"{samples} graphs, seed {seed}",
        ),
        (
            "break-count-equals-spanning-trees",
            count_ok,
            f"{samples} graphs, seed {seed}",
        ),
    ]


def suite_shift_classes(m_max: int = 3, n_max: int = 5) -> list[Check]:
    """Every shift class has size n, one break member, one parking
    projection; class count is N^(n-1)/n."""
    ok = True
    detail = []
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            p = knm.KnmParams(m, n)
            classes = knm.shift_classes(p)
            expected = p.N ** (n - 1) // n if n > 1 else 1
            if len(classes) != expected:
                ok = False
                detail.append(f"class count off at ({m},{n})")
                continue
            for cls in classes:
                if len(cls) != n:
                    ok = False
                    detail.append(f"class size off at ({m},{n})")
                    break
                breaks = [a for a in cls if knm.is_break_mn(p, a)]
                parks = [
                    a for a in cls if knm.is_parking_mn(p, a[: n - 1])
                ]
                if len(breaks) != 1 or len(parks) != 1:
                    ok = False
                    detail.append(f"representative not unique at ({m},{n})")
                    break
                # the scanning representatives must match the direct ones
                if knm.break_representative(p, cls[0]) != breaks[0]:
                    ok = False
                    detail.append(f"break representative mismatch at ({m},{n})")
                    break
                if knm.parking_representative(p, cls[0]) != parks[0][: n - 1]:
                    ok = False
                    detail.append(f"parking representative mismatch at ({m},{n})")
                    break
    return [
        (
            "shift-class-structure",
            ok,
            "; ".join(detail) if detail else f"m <= {m_max}, n <= {n_max}",
        )
    ]


def suite_cardinalities(m_max: int = 3, n_max: int = 5) -> list[Check]:
    """The closed counts, and the orbit-generated enumerations against
    the candidate scans, list for list."""
    ok = True
    detail = []
    scan_ok = True
    scan_detail = []
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            p = knm.KnmParams(m, n)
            expected = knm.break_count(p)
            breaks = knm.enumerate_break(p)
            parks = knm.enumerate_parking(p)
            if len(breaks) != expected:
                ok = False
                detail.append(f"|Break| off at ({m},{n})")
            if len(parks) != expected:
                ok = False
                detail.append(f"|Park| off at ({m},{n})")
            if len(knm.enumerate_residue_tuples(p)) != p.N ** (n - 1):
                ok = False
                detail.append(f"|D| off at ({m},{n})")
            if breaks != list(knm.enumerate_break_bruteforce(p)):
                scan_ok = False
                scan_detail.append(f"Break differs from the scan at ({m},{n})")
            if parks != list(knm.enumerate_parking_bruteforce(p)):
                scan_ok = False
                scan_detail.append(f"Park differs from the scan at ({m},{n})")
    scope = f"m <= {m_max}, n <= {n_max}"
    return [
        ("cardinalities", ok, "; ".join(detail) if detail else scope),
        (
            "orbit-enumeration-equals-scan",
            scan_ok,
            "; ".join(scan_detail) if scan_detail else scope,
        ),
    ]


def suite_knm_vs_multigraph(m_max: int = 2, n_max: int = 4) -> list[Check]:
    """The sorted-dominance and subset-quantified break tests agree on
    K_n^m, and likewise for the two parking predicates."""
    break_ok = True
    park_ok = True
    for m in range(1, m_max + 1):
        for n in range(2, n_max + 1):
            p = knm.KnmParams(m, n)
            g = multigraph.complete_multigraph(m, n)
            for d in knm.compositions(p.genus, n, p.genus):
                if knm.is_break_mn(p, d) != multigraph.is_break_divisor(g, d):
                    break_ok = False
            bound = m * (n - 1)
            for a in itertools.product(range(bound + 1), repeat=n - 1):
                if knm.is_parking_mn(p, a) != multigraph.is_g_parking(g, n - 1, a):
                    park_ok = False
    return [
        ("break-dominance-vs-subset-test", break_ok, f"m <= {m_max}, n <= {n_max}"),
        ("parking-vector-vs-subset-test", park_ok, f"m <= {m_max}, n <= {n_max}"),
    ]


def suite_orbit_counts(m_max: int = 4, n_max: int = 12) -> list[Check]:
    ok = all(
        counting.orbit_count_D(m, n)
        == counting.orbit_count_D_von_sterneck(m, n)
        == counting.orbit_count_D_split(m, n)
        for m in range(1, m_max + 1)
        for n in range(1, n_max + 1)
    )
    return [("orbit-count-three-routes", ok, f"m <= {m_max}, n <= {n_max}")]


def suite_dt_two_routes(m_max: int = 3, n_max: int = 10) -> list[Check]:
    ok = True
    for m in range(1, m_max + 1):
        table = counting.dt_via_euler_product(m, n_max)
        log_table = counting.dt_via_formal_log(m, n_max)
        for n in range(1, n_max + 1):
            if not table[n] == log_table[n] == counting.dt_invariant(m, n):
                ok = False
    return [("dt-euler-product-vs-closed-form", ok, f"m <= {m_max}, n <= {n_max}")]


def suite_characters(m_max: int = 3, n_max: int = 6) -> list[Check]:
    """The closed character formula and the orbit route (the `character`
    command's bruteforce column) against per-tuple fixed-point scans."""
    closed_ok = True
    orbit_ok = True
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            reps = knm.break_orbit_reps(knm.KnmParams(m, n))
            orbit_chi = reptheory.permutation_module(reps, n).character
            for lam in reptheory.partitions_of(n):
                scanned = reptheory.character_break_bruteforce(m, n, lam)
                if reptheory.character_break_closed(m, n, lam) != scanned:
                    closed_ok = False
                if orbit_chi[lam] != scanned:
                    orbit_ok = False
    scope = f"m <= {m_max}, n <= {n_max}"
    return [
        ("closed-character-vs-bruteforce", closed_ok, scope),
        ("orbit-character-vs-bruteforce", orbit_ok, scope),
    ]


def suite_module_isomorphisms(m_max: int = 2, n_max: int = 4) -> list[Check]:
    """Break module == shift-class module; restriction == parking module,
    scanned and by its orbits; trivial multiplicity == DT invariant ==
    orbits of the scanned break divisors == dominated-partition count."""
    iso_ok = True
    res_ok = True
    triv_ok = True
    for m in range(1, m_max + 1):
        for n in range(2, n_max + 1):
            chi = reptheory.character_break(m, n)
            if chi != reptheory.character_shift_classes_bruteforce(m, n):
                iso_ok = False
            p = knm.KnmParams(m, n)
            park_chi = reptheory.character_parking(m, n)
            park_orbit_chi = reptheory.permutation_module(
                knm.parking_orbit_reps(p), n - 1
            ).character
            if not reptheory.restrict_character(chi) == park_chi == park_orbit_chi:
                res_ok = False
            breaks = knm.enumerate_break_bruteforce(p)
            orbit_keys = {knm.sort_orbit_key(b) for b in breaks}
            if not (
                reptheory.trivial_multiplicity(chi)
                == counting.dt_invariant(m, n)
                == len(orbit_keys)
                == reptheory.dominated_partition_count(m, n)
            ):
                triv_ok = False
    return [
        ("break-module-vs-shift-class-module", iso_ok, f"m <= {m_max}, n <= {n_max}"),
        ("restriction-equals-parking-module", res_ok, f"m <= {m_max}, n <= {n_max}"),
        ("trivial-multiplicity-equals-dt", triv_ok, f"m <= {m_max}, n <= {n_max}"),
    ]


SUITES: dict[str, Callable[..., list[Check]]] = {
    "random-graphs": suite_random_graphs,
    "shift-classes": suite_shift_classes,
    "cardinalities": suite_cardinalities,
    "knm-vs-multigraph": suite_knm_vs_multigraph,
    "orbit-counts": suite_orbit_counts,
    "dt-two-routes": suite_dt_two_routes,
    "characters": suite_characters,
    "module-isomorphisms": suite_module_isomorphisms,
}


def run_suites(
    only: Iterable[str] | None = None, seed: int = 0, **overrides
) -> list[Check]:
    """Run the named suites (all by default), passing each only the
    keyword overrides its signature accepts."""
    names = list(only) if only else list(SUITES)
    results: list[Check] = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        fn = SUITES[name]
        accepted = set(inspect.signature(fn).parameters)
        kwargs = {k: v for k, v in overrides.items() if k in accepted}
        if "seed" in accepted:
            kwargs.setdefault("seed", seed)
        results.extend(fn(**kwargs))
    return results
