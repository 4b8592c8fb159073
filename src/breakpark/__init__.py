"""breakpark: break divisors and parking functions on complete
multigraphs, their symmetric-group module structure, and numerical
Donaldson-Thomas invariants of loop quivers, all in exact arithmetic.
"""

from .counting import (
    dt_invariant,
    dt_via_euler_product,
    fuss_catalan,
    moebius,
    euler_phi,
    orbit_count_D,
    ramanujan_sum,
    von_sterneck,
)
from .errors import (
    BreakparkError,
    BudgetExceededError,
    GraphFormatError,
    InternalInvariantError,
    PreconditionError,
)
from .knm import (
    KnmParams,
    break_count,
    break_orbit_reps,
    break_orbit_types,
    break_representative,
    circular_park,
    class_key,
    enumerate_break,
    enumerate_break_bruteforce,
    enumerate_parking,
    enumerate_parking_bruteforce,
    enumerate_residue_tuples,
    is_break_mn,
    is_parking_mn,
    parking_orbit_reps,
    parking_orbit_types,
    parking_representative,
    partitions_of,
    residue_count,
    shift,
    shift_class,
    shift_classes,
    sort_orbit_key,
)
from .multigraph import (
    Multigraph,
    break_via_orientability,
    complete_multigraph,
    enumerate_break_divisors,
    euler_char_subset,
    genus,
    is_break_divisor,
    is_g_parking,
    is_orientable,
    parse_graph_file,
    spanning_tree_count,
)
from .reptheory import (
    character_break,
    character_break_bruteforce,
    character_break_closed,
    character_parking,
    class_size,
    h_module,
    knm_modules,
    murnaghan_nakayama,
    perm_module_h_expansion,
    restrict_character,
    schur_expansion,
    trivial_multiplicity,
)
from .series import ExactSeries

__version__ = "0.1.0"
