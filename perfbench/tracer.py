"""Run one breakpark CLI command with per-layer spans and counters.

    PYTHONPATH=src python3 perfbench/tracer.py TRACE_JSON COMMAND_ID -- ARGS...

ARGS are the arguments after `breakpark`.  Before calling
`breakpark.cli.main(ARGS)` this replaces module attributes (and the
`verify.SUITES` entries) that name the functions in SPANS and COUNTERS
with wrappers, so calls made through any module see them.  The CLI's
stdout is left alone; the exit code is the CLI's.  The trace is written
to TRACE_JSON as {"spans": [[name, start, end, parent, command_id], ...],
"counters": {name: [calls, true_results]}, "mn_cache_misses": int};
parent is an index into spans or -1.

The library keeps unbounded lru_cache memos, so each command must run in
a fresh interpreter for its counts to match an ordinary CLI run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

# Functions that get a span, by module: those the four workloads reach.
# Their self time is their span's duration minus the time covered by
# their child spans.
SPANS = {
    "cli": ("cmd_enumerate", "cmd_count", "cmd_character", "cmd_dt",
            "cmd_verify", "emit"),
    "knm": ("enumerate_break", "enumerate_parking", "enumerate_residue_tuples",
            "shift_classes", "break_representative", "parking_representative"),
    "reptheory": ("character_break_bruteforce", "character_parking",
                  "character_break", "restrict_character",
                  "perm_module_h_expansion", "h_to_s", "schur_expansion"),
    "multigraph": ("parse_graph_file", "enumerate_break_divisors",
                   "spanning_tree_count", "genus", "complete_multigraph"),
    "counting": ("dt_via_euler_product", "dt_invariant", "orbit_count_D"),
    "series": ("one_minus_power",),
    "verify": ("run_suites", "suite_random_graphs", "suite_knm_vs_multigraph"),
}
# ExactSeries methods that get a span, with the short span name.
SERIES_METHODS = {"__mul__": "mul", "pow_int": "pow_int", "reciprocal": "reciprocal"}
# Hot predicates: calls and True results only, no span.  Their time
# counts as self time of the span that called them.
COUNTERS = {
    "knm": ("is_break_mn", "is_parking_mn"),
    "multigraph": ("is_break_divisor", "is_orientable"),
}


class Tracer:
    def __init__(self, command_id: int):
        self.command_id = command_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, list[int]] = {}

    def span(self, name: str, fn):
        spans, stack, command_id = self.spans, self.stack, self.command_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, command_id]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counters.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[0] += 1
            if result:
                counts[1] += 1
            return result

        return wrapper


def _rebind(original, wrapper):
    """Point every breakpark module attribute, and every entry of a
    module-level dict, that holds `original` at `wrapper`."""
    found = False
    for name, module in list(sys.modules.items()):
        if not (name == "breakpark" or name.startswith("breakpark.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                found = True
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
                        found = True
    if not found:
        raise LookupError(f"{original.__qualname__} is bound nowhere in breakpark")


def install(tracer: Tracer):
    """Wrap the functions named in SPANS, SERIES_METHODS and COUNTERS."""
    import breakpark.cli  # noqa: F401  imports every layer
    from breakpark import series

    for table, make in ((SPANS, tracer.span), (COUNTERS, tracer.counter)):
        for layer, names in table.items():
            module = sys.modules[f"breakpark.{layer}"]
            for name in names:
                original = getattr(module, name)
                if not isinstance(original, types.FunctionType):
                    raise TypeError(f"breakpark.{layer}.{name} is not a function")
                _rebind(original, make(f"{layer}.{name}", original))
    for method, short in SERIES_METHODS.items():
        original = getattr(series.ExactSeries, method)
        setattr(series.ExactSeries, method, tracer.span(f"series.{short}", original))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, command_id, args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer(command_id)
    install(tracer)
    from breakpark import cli, reptheory

    try:
        return tracer.span("cli.main", cli.main)(args)
    finally:  # also when argparse exits
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": tracer.spans,
                    "counters": tracer.counters,
                    "mn_cache_misses": reptheory.murnaghan_nakayama.cache_info().misses,
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
