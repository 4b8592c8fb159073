"""breakpark: break divisors and parking functions on complete
multigraphs, their symmetric-group module structure, and numerical
Donaldson-Thomas invariants of loop quivers, all in exact arithmetic.

Each library layer loads on first use: it sits in `sys.modules` as an
`importlib.util.LazyLoader` module, and its code runs when one of its
attributes is first read.  So a command loads only the layers it runs,
while tools that wrap library functions by module still find every
layer there.  The re-exported names are read from their layer on
first use.
"""

import importlib.util
import sys

from .errors import (
    BreakparkError,
    BudgetExceededError,
    GraphFormatError,
    InternalInvariantError,
    PreconditionError,
)

__version__ = "0.1.0"


def _lazy(layer: str):
    """Register breakpark.<layer> unloaded, as the lazy-import recipe of
    the `importlib` documentation does."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


counting, knm, multigraph, reptheory, series, verify = map(
    _lazy, ("counting", "knm", "multigraph", "reptheory", "series", "verify")
)

# Re-exported name -> the layer that defines it.
_EXPORTS = {
    name: layer
    for layer, names in {
        "counting": ("dt_invariant", "dt_via_euler_product", "fuss_catalan",
                     "moebius", "euler_phi", "orbit_count_D", "ramanujan_sum",
                     "von_sterneck"),
        "knm": ("KnmParams", "break_count", "break_orbit_reps",
                "break_orbit_types", "break_representative", "circular_park",
                "class_key", "enumerate_break", "enumerate_break_bruteforce",
                "enumerate_parking", "enumerate_parking_bruteforce",
                "enumerate_residue_tuples", "is_break_mn", "is_parking_mn",
                "parking_orbit_reps", "parking_orbit_types",
                "parking_representative", "partitions_of", "residue_count",
                "shift", "shift_class", "shift_classes", "sort_orbit_key"),
        "multigraph": ("Multigraph", "break_via_orientability",
                       "complete_multigraph", "enumerate_break_divisors",
                       "euler_char_subset", "genus", "is_break_divisor",
                       "is_g_parking", "is_orientable", "parse_graph_file",
                       "spanning_tree_count"),
        "reptheory": ("character_break", "character_break_bruteforce",
                      "character_break_closed", "character_parking",
                      "class_size", "h_module", "knm_modules",
                      "murnaghan_nakayama", "perm_module_h_expansion",
                      "restrict_character", "schur_expansion",
                      "trivial_multiplicity"),
        "series": ("ExactSeries",),
    }.items()
    for name in names
}


def __getattr__(name: str):
    layer = _EXPORTS.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)
