"""Command-line interface.

Each subcommand reads only these flags:

    enumerate  --set --graph --m --n --format --budget
    count      --graph --m --n --format --budget
    character  --m --n --format --budget
    dt         --m --n-max --format
    verify     --only --m --n --format --seed

`enumerate` and `count` take --m and --n (K_n^m) or --graph (a graph
file), not both; `enumerate --graph` lists break divisors only.  JSON is
the canonical output format; csv and pretty tables are projections of
the same records.  Exit codes: 0 success, 2 usage/parse error, 3 budget
exceeded, 4 a failed verdict (any FAIL or DISAGREE row, or a brute-force
count off its closed form; the records still print), 5 internal
invariant violated (a bug; one `error:` line on stderr, no traceback).
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


def _graph_or_knm(args, set_name: str = "break"):
    """(graph read from --graph, None) or (None, KnmParams of --m and --n)."""
    if args.graph is None:
        if args.m is None or args.n is None:
            raise argparse.ArgumentError(None, "requires --m and --n (or --graph)")
        return None, knm.KnmParams(args.m, args.n)
    if args.m is not None or args.n is not None or set_name != "break":
        raise argparse.ArgumentError(
            None, "--graph excludes --m, --n and a --set other than break"
        )
    with open(args.graph, "r", encoding="utf-8") as fh:
        return multigraph.parse_graph_file(fh.read()), None


def cmd_enumerate(args) -> tuple[list[dict], bool]:
    g, p = _graph_or_knm(args, args.set)
    if g is not None:
        divisors = multigraph.enumerate_break_divisors(g, budget=args.budget)
        return [{"divisor": _fmt_tuple(d)} for d in divisors], True
    if args.set == "break":
        records = [
            {"divisor": _fmt_tuple(d), "orbit_key": _fmt_tuple(knm.sort_orbit_key(d))}
            for d in knm.enumerate_break(p, budget=args.budget)
        ]
    elif args.set == "park":
        records = [
            {"parking": _fmt_tuple(a), "orbit_key": _fmt_tuple(knm.sort_orbit_key(a))}
            for a in knm.enumerate_parking(p, budget=args.budget)
        ]
    elif args.set == "residue":
        records = [
            {
                "tuple": _fmt_tuple(x),
                "class_key": _fmt_tuple(knm.shift_class(p, x)[0]),
                "orbit_key": _fmt_tuple(knm.sort_orbit_key(x)),
            }
            for x in knm.enumerate_residue_tuples(p, budget=args.budget)
        ]
    else:  # classes
        records = [
            {
                "class_key": _fmt_tuple(cls[0]),
                "members": ";".join(_fmt_tuple(x) for x in cls),
                "break_rep": _fmt_tuple(knm.break_representative(p, cls[0])),
                "parking_rep": _fmt_tuple(knm.parking_representative(p, cls[0])),
            }
            for cls in knm.shift_classes(p, budget=args.budget)
        ]
    return records, True


def cmd_count(args) -> tuple[list[dict], bool]:
    """Closed counts; within --budget also brute-force counts, and the
    verdict is whether each `*_bruteforce` field equals its closed count."""
    g, p = _graph_or_knm(args)
    if g is not None:
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
        return [rec], True
    m, n = p.m, p.n
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
    ok = True
    if p.N ** (n - 1) <= args.budget:
        keys = {knm.sort_orbit_key(x) for x in knm.enumerate_residue_tuples(p)}
        rec["orbits_D_bruteforce"] = len(keys)
        rec["breaks_bruteforce"] = len(knm.enumerate_break_bruteforce(p))
        ok = len(keys) == rec["orbits_D"] and rec["breaks_bruteforce"] == rec["breaks"]
    return [rec], ok


def cmd_character(args) -> tuple[list[dict], bool]:
    """Closed character values against fixed-point counts on the orbits
    of generated representatives (the `bruteforce` column), then the
    Frobenius data of Break and Park.  No full set is enumerated.  The
    verdict is whether every row agrees and `Res = Park` passes."""
    m, n = args.m, args.n
    p = knm.KnmParams(m, n)
    budget_ok = knm.break_count(p) <= args.budget
    if budget_ok:
        breaks = reptheory.permutation_module(knm.break_orbit_reps(p), n)
    records = []
    ok = True
    for lam in reptheory.partitions_of(n):
        rec = {
            "cycle_type": _fmt_tuple(lam),
            "closed": reptheory.character_break_closed(m, n, lam),
        }
        if budget_ok:
            rec["bruteforce"] = breaks.character[lam]
            ok = ok and rec["closed"] == rec["bruteforce"]
        records.append(rec)
    if budget_ok:
        records.append(_frobenius_record("Frob(Break)", breaks))
        if n >= 2:
            parks = reptheory.permutation_module(knm.parking_orbit_reps(p), n - 1)
            records.append(_frobenius_record("Frob(Park)", parks))
            chi = reptheory.character_break(m, n)
            verdict = reptheory.restrict_character(chi) == parks.character
            ok = ok and verdict
            records.append(
                {
                    "cycle_type": "Res = Park",
                    "closed": "PASS" if verdict else "FAIL",
                }
            )
    return records, ok


def _frobenius_record(name: str, module: reptheory.PermutationModule) -> dict:
    return {
        "cycle_type": name,
        "closed": _fmt_expansion(module.h, "h") + " = " + _fmt_expansion(module.s, "s"),
    }


def cmd_dt(args) -> tuple[list[dict], bool]:
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
    return records, all(r["verdict"] == "AGREE" for r in records)


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
    """One subparser per command: it sets `run` to the command's handler
    and has only the flags that handler reads."""
    parser = argparse.ArgumentParser(
        prog="breakpark",
        description="Break divisors, parking functions, and DT invariants "
        "in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=2_000_000)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--graph", help="graph file instead of --m/--n")
    source.add_argument("--m", type=int, help="edge multiplicity")
    source.add_argument("--n", type=int, help="vertex count")

    def add(name, run, parents, help):
        sp = sub.add_parser(name, help=help, parents=[*parents, fmt])
        sp.set_defaults(run=run)
        return sp

    sp = add("enumerate", cmd_enumerate, [source, budget],
             "list break/park/residue/class sets")
    sp.add_argument(
        "--set",
        choices=("break", "park", "residue", "classes"),
        default="break",
    )

    add("count", cmd_count, [source, budget], "cardinalities, orbit counts, DT")

    sp = add(
        "character",
        cmd_character,
        [budget],
        "character table and Frobenius data; the bruteforce column "
        "counts fixed points on the generated orbits, independently of the "
        "closed formula",
    )
    sp.add_argument("--m", type=int, required=True, help="edge multiplicity")
    sp.add_argument("--n", type=int, required=True, help="vertex count")

    sp = add("dt", cmd_dt, [], "DT invariants by two routes")
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)

    sp = add("verify", cmd_verify, [], "run the invariant suites")
    sp.add_argument(
        "--only",
        action="append",
        choices=sorted(verify.SUITES),
        help="restrict to named suites (repeatable)",
    )
    sp.add_argument("--m", type=int, help="largest m of the suites that take one")
    sp.add_argument("--n", type=int, help="largest n of the suites that take one")
    sp.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        records, ok = args.run(args)
        emit(records, args.format)
    except argparse.ArgumentError as exc:  # flags that parse but do not go together
        parser.error(f"{args.command} {exc}")
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphFormatError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if ok else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
