"""Shared exception types, and the one budget gate `check_budget` with
its default.  The caps on subset vertices, series order and oracle
edges are fixed limits with their own messages, not budgets.
"""

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
