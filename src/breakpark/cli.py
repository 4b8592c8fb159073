"""Command-line interface.

Subcommands: enumerate, count, character, dt, verify.  JSON is the
canonical output format; csv and pretty tables are projections of the
same records.  Exit codes: 0 success, 2 usage/parse error, 3 budget
exceeded, 4 verification failure, 5 internal invariant violated (a bug;
one `error:` line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import counting, knm, multigraph, reptheory, verify
from .errors import (
    BudgetExceededError,
    GraphFormatError,
    InternalInvariantError,
    PreconditionError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4
EXIT_INTERNAL = 5


def _fmt_tuple(t) -> str:
    return "(" + ",".join(str(x) for x in t) + ")"


def _fmt_partition(lam) -> str:
    return _fmt_tuple(lam)


def _fmt_expansion(coeffs, basis: str) -> str:
    if not coeffs:
        return "0"
    terms = []
    for lam, c in sorted(coeffs.items(), reverse=True):
        index = "".join(str(x) for x in lam) if all(x < 10 for x in lam) else ",".join(str(x) for x in lam)
        terms.append(f"{c} {basis}{index}")
    return " + ".join(terms)


def emit(records: list[dict], fmt: str, stream=None):
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(records, stream, sort_keys=True)
        stream.write("\n")
    elif fmt == "csv":
        if records:
            writer = csv.DictWriter(stream, fieldnames=list(records[0]))
            writer.writeheader()
            writer.writerows(records)
    else:
        if not records:
            return
        keys = list(records[0])
        widths = {
            k: max(len(k), *(len(str(r.get(k, ""))) for r in records))
            for k in keys
        }
        stream.write("  ".join(k.ljust(widths[k]) for k in keys).rstrip() + "\n")
        for r in records:
            stream.write(
                "  ".join(str(r.get(k, "")).ljust(widths[k]) for k in keys).rstrip()
                + "\n"
            )


def _load_graph(path: str) -> multigraph.Multigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return multigraph.parse_graph_file(fh.read())


def cmd_enumerate(args) -> list[dict]:
    if args.graph:
        g = _load_graph(args.graph)
        divisors = multigraph.enumerate_break_divisors(g, budget=args.budget)
        return [{"divisor": _fmt_tuple(d)} for d in divisors]
    p = knm.KnmParams(args.m, args.n)
    records = []
    if args.set == "break":
        for d in knm.enumerate_break(p, budget=args.budget):
            records.append(
                {
                    "divisor": _fmt_tuple(d),
                    "orbit_key": _fmt_tuple(knm.sort_orbit_key(d)),
                }
            )
    elif args.set == "park":
        for a in knm.enumerate_parking(p, budget=args.budget):
            records.append(
                {
                    "parking": _fmt_tuple(a),
                    "orbit_key": _fmt_tuple(knm.sort_orbit_key(a)),
                }
            )
    elif args.set == "residue":
        for x in knm.enumerate_residue_tuples(p, budget=args.budget):
            records.append(
                {
                    "tuple": _fmt_tuple(x),
                    "class_key": _fmt_tuple(knm.shift_class(p, x)[0]),
                    "orbit_key": _fmt_tuple(knm.sort_orbit_key(x)),
                }
            )
    else:  # classes
        for cls in knm.shift_classes(p, budget=args.budget):
            records.append(
                {
                    "class_key": _fmt_tuple(cls[0]),
                    "members": ";".join(_fmt_tuple(x) for x in cls),
                    "break_rep": _fmt_tuple(knm.break_representative(p, cls[0])),
                    "parking_rep": _fmt_tuple(
                        knm.parking_representative(p, cls[0])
                    ),
                }
            )
    return records


def cmd_count(args) -> list[dict]:
    if args.graph:
        g = _load_graph(args.graph)
        rec = {
            "vertices": g.n,
            "edges": g.edge_count(),
            "genus": multigraph.genus(g),
            "spanning_trees": multigraph.spanning_tree_count(g),
        }
        try:
            rec["break_divisors"] = len(
                multigraph.enumerate_break_divisors(g, budget=args.budget)
            )
        except BudgetExceededError:
            rec["break_divisors"] = "budget-exceeded"
        return [rec]
    m, n = args.m, args.n
    p = knm.KnmParams(m, n)
    rec = {
        "m": m,
        "n": n,
        "genus": p.genus,
        "breaks": knm.break_count(p),
        "parking": knm.break_count(p),
        "residue_tuples": p.N ** (n - 1),
        "orbits_D": counting.orbit_count_D(m, n),
        "dt": counting.dt_invariant(m, n),
    }
    if p.N ** (n - 1) <= args.budget:
        keys = {knm.sort_orbit_key(x) for x in knm.enumerate_residue_tuples(p)}
        rec["orbits_D_bruteforce"] = len(keys)
        rec["breaks_bruteforce"] = len(knm.enumerate_break_bruteforce(p))
    return [rec]


def cmd_character(args) -> list[dict]:
    """Closed character values against fixed-point counts on the orbits
    of generated representatives (the `bruteforce` column), then the
    Frobenius data of Break and Park.  No full set is enumerated."""
    m, n = args.m, args.n
    p = knm.KnmParams(m, n)
    budget_ok = knm.break_count(p) <= args.budget
    if budget_ok:
        breaks = reptheory.permutation_module(knm.break_orbit_reps(p), n)
    records = []
    for lam in reptheory.partitions_of(n):
        rec = {
            "cycle_type": _fmt_partition(lam),
            "closed": reptheory.character_break_closed(m, n, lam),
        }
        if budget_ok:
            rec["bruteforce"] = breaks.character[lam]
        records.append(rec)
    if budget_ok:
        records.append(_frobenius_record("Frob(Break)", breaks))
        if n >= 2:
            parks = reptheory.permutation_module(knm.parking_orbit_reps(p), n - 1)
            records.append(_frobenius_record("Frob(Park)", parks))
            chi = reptheory.character_break(m, n)
            verdict = reptheory.restrict_character(chi) == parks.character
            records.append(
                {
                    "cycle_type": "Res = Park",
                    "closed": "PASS" if verdict else "FAIL",
                }
            )
    return records


def _frobenius_record(name: str, module: reptheory.PermutationModule) -> dict:
    return {
        "cycle_type": name,
        "closed": _fmt_expansion(module.h, "h") + " = " + _fmt_expansion(module.s, "s"),
    }


def cmd_dt(args) -> list[dict]:
    m = args.m
    table = counting.dt_via_euler_product(m, args.n_max)
    records = []
    for n in range(1, args.n_max + 1):
        closed = counting.dt_invariant(m, n)
        via_product = table[n]
        records.append(
            {
                "n": n,
                "dt_closed": closed,
                "dt_euler_product": via_product,
                "verdict": "AGREE" if closed == via_product else "DISAGREE",
            }
        )
    return records


def cmd_verify(args) -> tuple[list[dict], bool]:
    overrides = {}
    if args.m is not None:
        overrides["m_max"] = args.m
    if args.n is not None:
        overrides["n_max"] = args.n
    results = verify.run_suites(
        only=args.only or None, seed=args.seed, **overrides
    )
    records = [
        {"invariant": name, "verdict": "PASS" if ok else "FAIL", "detail": detail}
        for name, ok, detail in results
    ]
    return records, all(ok for _, ok, _ in results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="breakpark",
        description="Break divisors, parking functions, and DT invariants "
        "in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, need_mn=True):
        if need_mn:
            sp.add_argument("--m", type=int, help="edge multiplicity")
            sp.add_argument("--n", type=int, help="vertex count")
        sp.add_argument(
            "--format",
            choices=("json", "csv", "pretty"),
            default="pretty",
        )
        sp.add_argument("--budget", type=int, default=2_000_000)
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("enumerate", help="list break/park/residue/class sets")
    sp.add_argument(
        "--set",
        choices=("break", "park", "residue", "classes"),
        default="break",
    )
    sp.add_argument("--graph", help="graph file instead of --m/--n")
    common(sp)

    sp = sub.add_parser("count", help="cardinalities, orbit counts, DT")
    sp.add_argument("--graph", help="graph file instead of --m/--n")
    common(sp)

    sp = sub.add_parser(
        "character",
        help="character table and Frobenius data; the bruteforce column "
        "counts fixed points on the generated orbits, independently of the "
        "closed formula",
    )
    common(sp)

    sp = sub.add_parser("dt", help="DT invariants by two routes")
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    common(sp, need_mn=False)

    sp = sub.add_parser("verify", help="run the invariant suites")
    sp.add_argument(
        "--only",
        action="append",
        choices=sorted(verify.SUITES),
        help="restrict to named suites (repeatable)",
    )
    common(sp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    needs_mn = args.command in ("character",) or (
        args.command in ("enumerate", "count") and not getattr(args, "graph", None)
    )
    if needs_mn and (args.m is None or args.n is None):
        parser.error(f"{args.command} requires --m and --n (or --graph)")

    try:
        if args.command == "enumerate":
            emit(cmd_enumerate(args), args.format)
        elif args.command == "count":
            emit(cmd_count(args), args.format)
        elif args.command == "character":
            emit(cmd_character(args), args.format)
        elif args.command == "dt":
            emit(cmd_dt(args), args.format)
        elif args.command == "verify":
            records, ok = cmd_verify(args)
            emit(records, args.format)
            if not ok:
                return EXIT_VERIFY
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphFormatError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
