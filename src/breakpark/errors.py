"""Shared exception types, and the one budget gate `check_budget` with
its default and its log2 form `check_size`.  The caps on subset
vertices, series order and oracle edges are fixed limits with their own
messages, not budgets.
"""

import math
import operator

DEFAULT_SET_BUDGET = 2_000_000


class BreakparkError(Exception):
    pass


class GraphFormatError(BreakparkError):
    """Malformed graph file or invalid multiplicity matrix."""


class PreconditionError(BreakparkError):
    """An operation was called outside its stated domain."""


class BudgetExceededError(BreakparkError):
    """An enumeration or series computation would exceed the configured budget."""


class InternalInvariantError(BreakparkError):
    """A uniqueness or integrality assertion failed; indicates a bug."""


def as_ints(values, what: str, error: type = PreconditionError) -> tuple[int, ...]:
    """The entries of values as a tuple of ints, by `operator.index`: an
    entry that is not an integer, such as 1.0, Fraction(3, 2) or "3",
    raises `error` naming `what`, and is never truncated."""
    try:
        # from a list: tuple() of an iterator allocates at a guessed length
        # and shrinks, leaving a spare tuple in the free list on each call
        return tuple([*map(operator.index, values)])
    except TypeError:
        raise error(f"{what} must be integers") from None


_EXACT_SIZE_LIMIT = 10**100


def check_budget(size: int, budget: int, what: str, exact: bool = True):
    """Raise BudgetExceededError if size > budget.  Writing a huge int
    in decimal takes time quadratic in its length, so a size of 10^100
    or more is named by a power of ten below it, from its bit length:
    10^k <= 2^(b-1) <= size for k = floor((b-1) * 0.3010).  A size that
    is only a lower bound (exact false) is named with ">="."""
    if size > budget:
        if size >= _EXACT_SIZE_LIMIT:
            shown = f"> 10^{(size.bit_length() - 1) * 3010 // 10000}"
        else:
            shown = f"{'=' if exact else '>='} {size}"
        raise BudgetExceededError(f"|{what}| {shown} exceeds budget {budget}")


def check_size(size, log2_size: float, budget: int, what: str):
    """`check_budget` on the int `size()`, built only when it is needed.
    A size whose float log2 has floor b with 2^b >= 10^100, with b at
    least the bit length of the budget, is over budget, and
    `check_budget` names such a size by its bit length alone, so 1 << b
    gives the same error.  Where the float lies within 1e-6 of an integer
    (plus 1e-13 of itself, far above its rounding error), or the size is
    smaller, the exact size is built and checked."""
    b = math.floor(log2_size)
    slack = 1e-6 + 1e-13 * log2_size
    huge = b >= max(_EXACT_SIZE_LIMIT.bit_length(), budget.bit_length())
    clear = b + slack < log2_size < b + 1 - slack  # far from an integer
    check_budget(1 << b if huge and clear else size(), budget, what)
