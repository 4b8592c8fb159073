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
the same records.  A usage error, also one a handler finds, prints the
subcommand's own usage line.

`enumerate` streams: --budget is checked before the first byte is
written, and then the set is generated as it is written, never held.
Its records are built one at a time and json and csv write each as it
comes (pretty first reads them all, for its column widths).  A set's
record layout is a `Rows`: its fields, each a name and a `%` template,
and a row is the arguments of the templates in JSON key order.  json
formats each row by one `%` with the layout's row template, the
fields' templates joined; csv and pretty print the dict records filled
from the same rows.  Every K_n^m row comes whole from its `knm` walker,
called with `records=True`, and its templates from the declaration next
to that walker (`knm.break_fields`, `parking_fields`, `residue_fields`,
`class_fields`): a row holds its head texts, built once per head or
run, its orbit-key text, built once for each pair of items that share
it, and its leaf ints.

`character` lists no orbit: `reptheory.knm_modules` counts the orbits
of Break and Park by multiplicity partition (`knm.count_break_types`,
`knm.parking_orbit_types`), and the `bruteforce` column is the fixed
points counted from the Break types, still independent of the closed
formula.

Every command pays for the imports at start-up, so it loads only the
library layers it runs (each layer loads on first use; see the package
docstring), and `COMMANDS` reads no layer: `--only` takes its choices
from `VERIFY_SUITES`.  The modules a command loads keep `argparse`,
`dataclasses`, `inspect`, `fractions`, `csv` and `json` off that path
too: each is imported only by the code that uses it.  Each command's
flags are declared once, in `COMMANDS`.  `main` reads an argv
of the form `COMMAND (--flag VALUE)*` from that table itself: exact flag
names, values that do not start with "-", each converting and in its
choices as argparse would have it, and every required flag given.  Any
other argv (-h, an abbreviation, --flag=VALUE, a bad, missing or unknown
token) goes to the argparse parser `build_parser` builds from the same
table, so help, usage lines, error messages and exit codes are
argparse's own; so does a usage error a handler finds (`UsageError`).
`emit` writes json records of ints and plain ASCII strings itself, and
imports `json` only for other values; `csv` is imported for --format
csv, and `fractions` only where the series code divides.

--m, --n and --n-max must be at least 1 and --budget at least 0, else
the run is a usage error.

Exit codes: 0 success, 2 usage/parse error, 3 budget exceeded (a
`verify` suite over budget is a FAIL row instead), 4 a failed verdict
(any FAIL or DISAGREE row, or a brute-force count off its closed form;
the records still print), 5 internal invariant violated or any other
exception (a bug; one `error:` line on stderr, no traceback; it may
follow part of the records on stdout).  When the reader closes stdout
early, as `breakpark enumerate ... | head` does, the command stops
writing, prints nothing on stderr and exits with its verdict code, 0
or 4.
"""
from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Iterator
from types import SimpleNamespace

from . import counting, knm, multigraph, reptheory, verify
from .errors import (
    DEFAULT_SET_BUDGET,
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


class UsageError(Exception):
    """Flags that parse but do not go together; `main` reports it as
    argparse reports a usage error, on the subcommand's usage line."""


class Rows:
    """The records of one `enumerate` set, each the arguments of one `%`.

    `fields` is the record layout in JSON key order, which is sorted:
    (name, `%` template) for a field formatted from the next arguments of
    a row, as many as its template has "%".  `columns` names the fields in
    the order csv and pretty print them.

    `json_row` is the `%` template of one JSON record, the fields'
    templates in JSON key order, such as '{"divisor": "%s%d,%d)",
    "orbit_key": "%s"}'.  A row formatted by it is the record's
    `json.dumps(..., sort_keys=True)`: the keys are fixed ASCII names in
    sorted order, `%d` of an int prints only digits and "-", and the str
    arguments of the `knm` records, head and orbit-key texts, hold only
    digits, "(", ")" and ",", nothing JSON escapes.  Iterating a Rows
    gives the dict records, keys in column order, that csv and pretty
    print."""

    def __init__(self, fields, columns, rows: Iterable[tuple]):
        self.rows = rows
        formats, start = {}, 0
        for name, template in fields:
            count = template.count("%")
            formats[name] = template, slice(start, start + count)
            start += count
        self.json_row = "{" + ", ".join(
            f'"{name}": "{template}"' for name, template in fields
        ) + "}"
        self.columns = [(name, *formats[name]) for name in columns]

    def __iter__(self) -> Iterator[dict]:
        columns = self.columns
        for row in self.rows:
            yield {name: template % row[part] for name, template, part in columns}


def _fmt_expansion(coeffs, basis: str) -> str:
    terms = []
    for lam, c in sorted(coeffs.items(), reverse=True):
        index = "".join(str(x) for x in lam) if all(x < 10 for x in lam) else ",".join(str(x) for x in lam)
        terms.append(f"{c} {basis}{index}")
    return " + ".join(terms)


def _plain(text) -> bool:
    """Whether `text` is a str that json writes between quotes as it is:
    printable ASCII without '"' or backslash."""
    return (type(text) is str and text.isascii() and text.isprintable()
            and '"' not in text and "\\" not in text)


def _json_records(records: list) -> str | None:
    """`json.dumps(records, sort_keys=True)` when every record is a dict
    whose keys are `_plain` strings and whose values are ints or `_plain`
    strings, the records of every command but `enumerate`; else None."""
    out = []
    for record in records:
        if type(record) is not dict or not all(map(_plain, record)):
            return None
        fields = []
        for key in sorted(record):
            value = record[key]
            if type(value) is int:
                fields.append(f'"{key}": {value}')
            elif _plain(value):
                fields.append(f'"{key}": "{value}"')
            else:
                return None
        out.append("{" + ", ".join(fields) + "}")
    return "[" + ", ".join(out) + "]"


def emit(records: Iterable[dict] | Rows, fmt: str, stream=None):
    """Write `records`, a list or any iterable of dicts with the same
    keys, or the `Rows` of one layout, to `stream` (stdout by default).
    The json bytes are `json.dumps(list(records), sort_keys=True)` plus
    a newline.  json writes each row of a `Rows` as it comes, with one
    `%` of its row template, building no dict; the dict records, the
    short lists of the other commands, are written whole, by
    `_json_records` or, for other values, by `json.dumps`.  csv writes
    each record as it comes; pretty needs the column widths over all
    records, so it reads them into a list first.  No records print `[]`
    in json and nothing in csv and pretty."""
    stream = stream or sys.stdout
    if fmt == "json" and isinstance(records, Rows):
        # Record by record: the stream's own buffer batches the writes.
        write, row_format = stream.write, "[" + records.json_row
        next_format = ", " + records.json_row
        for row in records.rows:
            write(row_format % row)
            row_format = next_format
        write("[]\n" if row_format[0] == "[" else "]\n")
    elif fmt == "json":
        records = list(records)
        text = _json_records(records)
        if text is None:
            import json

            text = json.dumps(records, sort_keys=True)
        stream.write(text + "\n")
    elif fmt == "csv":
        import csv

        records = iter(records)
        first = next(records, None)
        if first is not None:
            writer = csv.DictWriter(stream, fieldnames=list(first))
            writer.writeheader()
            writer.writerow(first)
            writer.writerows(records)
    else:
        records = list(records)
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
            raise UsageError("requires --m and --n (or --graph)")
        return None, knm.KnmParams(args.m, args.n)
    if args.m is not None or args.n is not None or set_name != "break":
        raise UsageError("--graph excludes --m, --n and a --set other than break")
    try:
        with open(args.graph, "r", encoding="utf-8") as fh:
            text = fh.read()
        return multigraph.parse_graph_file(text), None
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{args.graph}: not UTF-8 text ({exc.reason})") from None
    except GraphFormatError as exc:
        raise GraphFormatError(f"{args.graph}: {exc}") from None


def cmd_enumerate(args) -> tuple[Rows, bool]:
    """The rows of the chosen set, in its record layout.  The budget is
    checked here, before the first row is built, so an over-budget run
    writes nothing to stdout; the set is then generated as its rows are
    written, never held whole.  A row concatenates its fields in the
    layout's JSON key order, as the `knm` enumerators' records do."""
    g, p = _graph_or_knm(args, args.set)
    if g is not None:
        divisors = multigraph.enumerate_break_divisors(g, budget=args.budget)
        return Rows([("divisor", knm.tuple_template(g.n))], ["divisor"], divisors), True
    # (walker, fields, the columns csv and pretty print); a class lists its
    # key first
    walk, fields, columns = {
        "break": (knm.enumerate_break, knm.break_fields, ("divisor", "orbit_key")),
        "park": (knm.enumerate_parking, knm.parking_fields, ("parking", "orbit_key")),
        "residue": (knm.enumerate_residue_tuples, knm.residue_fields,
                    ("tuple", "class_key", "orbit_key")),
        "classes": (knm.shift_classes, knm.class_fields,
                    ("class_key", "members", "break_rep", "parking_rep")),
    }[args.set]
    # the walker checks the budget before its set's templates are built
    records = walk(p, budget=args.budget, records=True)
    return Rows(fields(p), columns, records), True


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
            rec["break_divisors"] = sum(
                1 for _ in multigraph.enumerate_break_divisors(g, budget=args.budget)
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
        "residue_tuples": knm.residue_count(p),
        "orbits_D": counting.orbit_count_D(m, n),
        "dt": counting.dt_invariant(m, n),
    }
    ok = True
    if rec["residue_tuples"] <= args.budget:
        keys = {
            knm.sort_orbit_key(x)
            for x in knm.enumerate_residue_tuples(p, budget=args.budget)
        }
        rec["orbits_D_bruteforce"] = len(keys)
        rec["breaks_bruteforce"] = len(
            knm.enumerate_break_bruteforce(p, budget=args.budget)
        )
        ok = len(keys) == rec["orbits_D"] and rec["breaks_bruteforce"] == rec["breaks"]
    return [rec], ok


def cmd_character(args) -> tuple[list[dict], bool]:
    """The rows of `reptheory.knm_modules`: the closed character against
    fixed points counted from the orbit types (the `bruteforce` column,
    still independent of the closed formula), then Frob(Break),
    Frob(Park) and `Res = Park`, which the verdict reads with every row.
    When |Break| is over budget only the closed column prints, and when
    the partitions of n are too, nothing does."""
    try:
        modules = reptheory.knm_modules(knm.KnmParams(args.m, args.n), args.budget)
    except BudgetExceededError as exc:
        closed = reptheory.character_break(args.m, args.n, args.budget)
        print(f"note: {exc}; bruteforce, Frob(Break), Frob(Park) and "
              "Res = Park left out", file=sys.stderr)
        return [{"cycle_type": knm.tuple_template(len(lam)) % lam, "closed": v}
                for lam, v in closed.items()], True
    chi = modules.breaks.character
    records = [{"cycle_type": knm.tuple_template(len(lam)) % lam, "closed": v,
                "bruteforce": chi[lam]} for lam, v in modules.closed.items()]
    records.append(_frobenius_record("Frob(Break)", modules.breaks))
    if modules.parks is not None:
        records += [_frobenius_record("Frob(Park)", modules.parks),
                    {"cycle_type": "Res = Park",
                     "closed": "PASS" if modules.restricts else "FAIL"}]
    return records, modules.closed == chi and modules.restricts


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


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
        if value >= low:
            return value
        message = f"must be >= {low}, got {value}"
    except ValueError:  # argparse would name this function in the message
        message = f"invalid int value: {text!r}"
    import argparse

    raise argparse.ArgumentTypeError(message)


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


# Each command's help and its flags, in the order argparse lists them:
# (flag, the keywords of argparse's `add_argument`).  The dest of a flag
# is its name without "--", "-" read as "_".  The handler of command C is
# the module attribute `cmd_C`, looked up when the command runs.
_FORMAT = ("--format", {"choices": ("json", "csv", "pretty"), "default": "pretty"})
_BUDGET = ("--budget", {"type": _nonnegative_int, "default": DEFAULT_SET_BUDGET})
_M = ("--m", {"type": _positive_int, "help": "edge multiplicity"})
_N = ("--n", {"type": _positive_int, "help": "vertex count"})
_SOURCE = (("--graph", {"help": "graph file instead of --m/--n"}), _M, _N)
# sorted(verify.SUITES), written out so that reading the table loads no
# `verify`; a test checks that the two agree.
VERIFY_SUITES = (
    "cardinalities", "characters", "dt-two-routes", "knm-vs-multigraph",
    "module-isomorphisms", "orbit-counts", "random-graphs", "shift-classes",
    "subset-kernel", "theorems-by-orbit-types",
)
COMMANDS = {
    "enumerate": ("list break/park/residue/class sets", (
        *_SOURCE, _BUDGET, _FORMAT,
        ("--set", {"choices": ("break", "park", "residue", "classes"),
                   "default": "break"}),
    )),
    "count": ("cardinalities, orbit counts, DT", (*_SOURCE, _BUDGET, _FORMAT)),
    "character": (
        "character table and Frobenius data; the bruteforce column "
        "counts fixed points from the orbit types, independently of the "
        "closed formula",
        (_BUDGET, _FORMAT, ("--m", {**_M[1], "required": True}),
         ("--n", {**_N[1], "required": True})),
    ),
    "dt": ("DT invariants by two routes", (
        _FORMAT,
        ("--n-max", {"type": _positive_int, "required": True}),
        ("--m", {"type": _positive_int, "required": True}),
    )),
    "verify": ("run the invariant suites", (
        _FORMAT,
        ("--only", {"action": "append", "choices": VERIFY_SUITES,
                    "help": "restrict to named suites (repeatable)"}),
        ("--m", {"type": _positive_int,
                 "help": "largest m of the suites that take one"}),
        ("--n", {"type": _positive_int,
                 "help": "largest n of the suites that take one"}),
        ("--seed", {"type": int, "default": 0}),
    )),
}


def _parse_table(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives `argv` when `argv` is
    `COMMAND (--flag VALUE)*` with COMMAND's exact flag names, no VALUE
    starting with "-", each VALUE converting and in its choices, and
    every required flag given; else None, and argparse decides."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    flags = COMMANDS[argv[0]][1]
    table = {flag: (flag[2:].replace("-", "_"), spec) for flag, spec in flags}
    values = {dest: spec.get("default") for dest, spec in table.values()}
    seen = set()
    for flag, text in zip(argv[1::2], argv[2::2]):
        if flag not in table or text.startswith("-"):
            return None
        dest, spec = table[flag]
        convert = spec.get("type")
        try:
            value = convert(text) if convert else text
        except Exception:  # argparse converts it again and reports the error
            return None
        choices = spec.get("choices")
        if choices is not None and value not in choices:
            return None
        if spec.get("action") == "append":
            value = [*(values[dest] or ()), value]
        values[dest] = value
        seen.add(flag)
    if any(spec.get("required") and flag not in seen for flag, spec in flags):
        return None
    return SimpleNamespace(command=argv[0], **values)


def build_parser():
    """The argparse parser of `COMMANDS`, and its subparsers by command
    name, each with only the flags its handler reads."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="breakpark",
        description="Break divisors, parking functions, and DT invariants "
        "in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help)
        for flag, spec in flags:
            sp.add_argument(flag, **spec)
    return parser, sub.choices


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # Python >= 3.11, 3.10.7
        sys.set_int_max_str_digits(0)  # closed counts may be huge; print them whole
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_table(argv) or build_parser()[0].parse_args(argv)
    try:
        records, ok = globals()["cmd_" + args.command](args)
        emit(records, args.format)
        sys.stdout.flush()  # here, so that a closed pipe is caught below
    except UsageError as exc:
        build_parser()[1][args.command].error(str(exc))
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        # Send what is still buffered to the null device, so the flush at
        # exit raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK if ok else EXIT_VERIFY
    except (GraphFormatError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug: one line, no traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if ok else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
