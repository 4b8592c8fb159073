"""Complete-multigraph specialization K_n^m.

Break divisors are characterized by dominance of the sorted vector by
delta = (m(n-1)-1, ..., m-1, 0); parking functions by the sorted bound
a~_i <= m*i - 1; residue tuples live in [0, mn-1]^n with coordinate sum
congruent to the genus mod mn.  The shift map adds m to every
coordinate mod mn and partitions the residue tuples into classes of
size n, each holding exactly one break divisor and exactly one tuple
projecting to a parking function.

Break and Park are unions of symmetric-group orbits, so both are
generated from their orbit representatives (weakly decreasing vectors);
the candidate scans they replaced are kept as `*_bruteforce` oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from .errors import (
    BudgetExceededError,
    InternalInvariantError,
    PreconditionError,
)

DEFAULT_SET_BUDGET = 2_000_000


@dataclass(frozen=True)
class KnmParams:
    """Parameters of K_n^m with the derived quantities used everywhere."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise PreconditionError("KnmParams requires m >= 1 and n >= 1")

    @property
    def N(self) -> int:
        return self.m * self.n

    @property
    def genus(self) -> int:
        return self.m * self.n * (self.n - 1) // 2 - self.n + 1

    # cached_property writes the instance __dict__ directly, so it works
    # on a frozen dataclass.
    @cached_property
    def delta(self) -> tuple[int, ...]:
        """(m(n-1)-1, m(n-2)-1, ..., m-1, 0); sums to the genus."""
        return tuple(self.m * k - 1 for k in range(self.n - 1, 0, -1)) + (0,)

    @cached_property
    def delta_prefix(self) -> tuple[int, ...]:
        """Prefix sums of delta; the last one is the genus."""
        return tuple(itertools.accumulate(self.delta))


def break_count(p: KnmParams) -> int:
    """|Break_{m,n}| = |Park_{m,n}| = m^(n-1) * n^(n-2), the number of
    spanning trees of K_n^m."""
    return p.m ** (p.n - 1) * p.n ** max(p.n - 2, 0)


def sort_orbit_key(x: Sequence[int]) -> tuple[int, ...]:
    """Weakly decreasing rearrangement; canonical S_n-orbit representative."""
    if any(v < 0 for v in x):
        raise PreconditionError("entries must be nonnegative")
    return tuple(sorted(x, reverse=True))


def is_break_mn(p: KnmParams, d: Sequence[int]) -> bool:
    """Sorted-dominance test: d is a break divisor on K_n^m iff it is
    effective of degree g and its decreasing sort is dominated by delta."""
    d = tuple(d)
    if len(d) != p.n:
        raise PreconditionError(f"expected length {p.n}, got {len(d)}")
    if any(v < 0 for v in d):
        return False
    if sum(d) != p.genus:
        return False
    prefix = 0
    for dv, bound in zip(sorted(d, reverse=True), p.delta_prefix):
        prefix += dv
        if prefix > bound:
            return False
    return True


def is_parking_mn(p: KnmParams, a: Sequence[int]) -> bool:
    """Vector-parking test: increasing sort a~ satisfies a~_i <= m*i - 1."""
    a = tuple(a)
    if len(a) != p.n - 1:
        raise PreconditionError(f"expected length {p.n - 1}, got {len(a)}")
    if any(v < 0 for v in a):
        return False
    for i, v in enumerate(sorted(a), start=1):
        if v > p.m * i - 1:
            return False
    return True


def _check_budget(size: int, budget: int, what: str):
    if size > budget:
        raise BudgetExceededError(f"|{what}| = {size} exceeds budget {budget}")


def break_orbit_reps(p: KnmParams) -> list[tuple[int, ...]]:
    """The S_n-orbit representatives of Break_{m,n}: the weakly
    decreasing vectors of sum g whose prefix sums stay within those of
    delta, in lexicographic order.  Their number is DT_n of the
    (m+1)-loop quiver."""
    n, g, bounds = p.n, p.genus, p.delta_prefix
    out = []

    def rec(prefix, total, largest):
        i = len(prefix)
        if i == n:
            out.append(tuple(prefix))
            return
        # the entries left are at most v each, so v >= ceil(rest / left)
        lo = -(-(g - total) // (n - i))
        for v in range(lo, min(largest, bounds[i] - total) + 1):
            prefix.append(v)
            rec(prefix, total + v, v)
            prefix.pop()

    rec([], 0, g)
    return out


def parking_orbit_reps(p: KnmParams) -> list[tuple[int, ...]]:
    """The S_{n-1}-orbit representatives of Park_{m,n} in sort_orbit_key
    form: the weakly increasing a~ with a~_i <= m*i - 1, each reversed,
    in lexicographic order."""
    n, m = p.n, p.m
    out = []

    def rec(prefix, largest):
        j = len(prefix)
        if j == n - 1:
            out.append(tuple(prefix))
            return
        # prefix[j] is a~_{n-1-j} of the increasing sort
        for v in range(min(largest, m * (n - 1 - j) - 1) + 1):
            prefix.append(v)
            rec(prefix, v)
            prefix.pop()

    rec([], m * (n - 1))
    return out


def _distinct_permutations(
    orbit_reps: Sequence[Sequence[int]],
) -> list[tuple[int, ...]]:
    """Every distinct rearrangement of every representative (distinct
    multisets of one length), in lexicographic order and without a sort.

    A node of the recursion is the tuple of multisets still to lay out
    after some prefix; it depends only on the prefix as a multiset, so
    it is memoized.  Nodes at depth 0 and 1 are reached once each, so
    they are not kept, which saves memory.  The work is linear in the
    output.
    """
    memo: dict[tuple, list[tuple[int, ...]]] = {}

    def lay_out(group, depth):
        found = memo.get(group)
        if found is not None:
            return found
        if not group[0]:
            return [()]
        rests: dict[int, list[tuple[int, ...]]] = {}
        for ms in group:
            for i, v in enumerate(ms):
                if i == 0 or v != ms[i - 1]:
                    rests.setdefault(v, []).append(ms[:i] + ms[i + 1 :])
        out = []
        for v in sorted(rests):
            head = (v,)
            out.extend([head + t for t in lay_out(tuple(rests[v]), depth + 1)])
        if depth >= 2:
            memo[group] = out
        return out

    return lay_out(tuple(tuple(sorted(rep)) for rep in orbit_reps), 0)


def enumerate_break(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET
) -> list[tuple[int, ...]]:
    """All of Break_{m,n}, lexicographically sorted: the rearrangements
    of break_orbit_reps."""
    _check_budget(break_count(p), budget, "Break")
    return _distinct_permutations(break_orbit_reps(p))


def enumerate_parking(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET
) -> list[tuple[int, ...]]:
    """All of Park_{m,n}, lexicographically sorted: the rearrangements
    of parking_orbit_reps."""
    _check_budget(break_count(p), budget, "Park")
    return _distinct_permutations(parking_orbit_reps(p))


def compositions(total: int, parts: int, bound: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` integers in [0, bound] summing to total, in
    lexicographic order."""
    prefix: list[int] = []

    def rec(remaining, left):
        if left == 0:
            if remaining == 0:
                yield tuple(prefix)
            return
        lo = max(0, remaining - bound * (left - 1))
        hi = min(bound, remaining)
        if left == 2:  # the last part, remaining - v, is then in [0, bound]
            for v in range(lo, hi + 1):
                yield (*prefix, v, remaining - v)
            return
        for v in range(lo, hi + 1):
            prefix.append(v)
            yield from rec(remaining - v, left - 1)
            prefix.pop()

    return rec(total, parts)


# The candidate scans below are the oracles for the two enumerations
# above.  Each keeps the last (m, n) it built and hands back that tuple.


@lru_cache(maxsize=1)
def _scan_break(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    p = KnmParams(m, n)
    bound = p.delta[0] if n > 1 else 0
    return tuple(d for d in compositions(p.genus, n, bound) if is_break_mn(p, d))


@lru_cache(maxsize=1)
def _scan_parking(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    p = KnmParams(m, n)
    if n == 1:
        return ((),)
    bound = m * (n - 1) - 1
    return tuple(
        a
        for a in itertools.product(range(bound + 1), repeat=n - 1)
        if is_parking_mn(p, a)
    )


def enumerate_break_bruteforce(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET
) -> tuple[tuple[int, ...], ...]:
    """Break_{m,n} by testing every composition of g into n parts of at
    most m(n-1)-1 with is_break_mn; sorted."""
    _check_budget(break_count(p), budget, "Break")
    return _scan_break(p.m, p.n)


def enumerate_parking_bruteforce(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET
) -> tuple[tuple[int, ...], ...]:
    """Park_{m,n} by testing every tuple in [0, m(n-1)-1]^(n-1) with
    is_parking_mn; sorted."""
    _check_budget(break_count(p), budget, "Park")
    return _scan_parking(p.m, p.n)


def enumerate_residue_tuples(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET
) -> list[tuple[int, ...]]:
    """All of D_{m,n}: tuples in [0, N-1]^n with sum = g mod N.

    The last coordinate is determined mod N by the first n-1, so the
    cardinality is N^(n-1).
    """
    _check_budget(p.N ** (p.n - 1), budget, "D")
    g, N = p.genus, p.N
    out = [
        head + ((g - sum(head)) % N,)
        for head in itertools.product(range(N), repeat=p.n - 1)
    ]
    out.sort()
    return out


def _check_residue_tuple(p: KnmParams, x: Sequence[int]) -> tuple[int, ...]:
    x = tuple(x)
    if len(x) != p.n:
        raise PreconditionError(f"expected length {p.n}, got {len(x)}")
    if any(not 0 <= v <= p.N - 1 for v in x):
        raise PreconditionError("residue entries must lie in [0, N-1]")
    if sum(x) % p.N != p.genus % p.N:
        raise PreconditionError("residue sum must be g mod N")
    return x


def shift(p: KnmParams, x: Sequence[int]) -> tuple[int, ...]:
    """Add m to every coordinate mod N."""
    x = _check_residue_tuple(p, x)
    return tuple((v + p.m) % p.N for v in x)


def shift_class(p: KnmParams, x: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The n members {sh^j(x) : 0 <= j < n}, sorted; the first member is
    the canonical class key."""
    x = _check_residue_tuple(p, x)
    members = set()
    cur = x
    for _ in range(p.n):
        members.add(cur)
        cur = tuple((v + p.m) % p.N for v in cur)
    if len(members) != p.n:
        raise InternalInvariantError(
            f"shift class of {x} has size {len(members)}, expected {p.n}"
        )
    return tuple(sorted(members))


def break_representative(p: KnmParams, x: Sequence[int]) -> tuple[int, ...]:
    """The unique break divisor in the shift class of x."""
    hits = [a for a in shift_class(p, x) if is_break_mn(p, a)]
    if len(hits) != 1:
        raise InternalInvariantError(
            f"shift class of {tuple(x)} has {len(hits)} break members"
        )
    return hits[0]


def circular_park(prefs: Sequence[int], spots: int) -> set[int]:
    """Park cars on a circle of `spots` labeled spots.

    Car i takes prefs[i] if free, else the next free spot clockwise.
    Requires fewer cars than spots, so parking always succeeds.
    """
    prefs = list(prefs)
    if len(prefs) >= spots:
        raise PreconditionError("need fewer cars than spots")
    if any(not 0 <= v < spots for v in prefs):
        raise PreconditionError("preferences must lie in [0, spots-1]")
    occupied: set[int] = set()
    for pref in prefs:
        spot = pref
        while spot in occupied:
            spot = (spot + 1) % spots
        occupied.add(spot)
    return occupied


def parking_representative(p: KnmParams, x: Sequence[int]) -> tuple[int, ...]:
    """The projection of the unique class member whose first n-1
    coordinates form a parking function.

    Parks the projected tuple on N circular spots, counts occupancy in
    the n blocks of size m, and rotates per the cycle lemma: exactly one
    rotation has every length-k prefix sum >= k.  Never reads x[n-1], so
    only the coordinate ranges are validated, not the residue sum.
    """
    x = tuple(x)
    if len(x) != p.n:
        raise PreconditionError(f"expected length {p.n}, got {len(x)}")
    if any(not 0 <= v <= p.N - 1 for v in x):
        raise PreconditionError("residue entries must lie in [0, N-1]")
    m, n, N = p.m, p.n, p.N
    occupied = circular_park(x[: n - 1], N)
    counts = [
        sum(1 for s in occupied if m * i <= s < m * (i + 1)) for i in range(n)
    ]
    valid = []
    for j in range(n):
        rotated = counts[j:] + counts[:j]
        prefix = 0
        ok = True
        for k in range(n - 1):
            prefix += rotated[k]
            if prefix < k + 1:
                ok = False
                break
        if ok:
            valid.append(j)
    if len(valid) != 1:
        raise InternalInvariantError(
            f"cycle lemma gave {len(valid)} valid rotations for {x}"
        )
    j = valid[0]
    result = tuple((v + (n - j) * m) % N for v in x[: n - 1])
    if not is_parking_mn(p, result):
        raise InternalInvariantError(
            f"rotation of {x} projected to non-parking tuple {result}"
        )
    return result


def shift_classes(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET
) -> list[tuple[tuple[int, ...], ...]]:
    """All shift classes of D_{m,n}, keyed by lexicographically smallest
    member, sorted by key."""
    seen = set()
    classes = []
    for x in enumerate_residue_tuples(p, budget):
        if x in seen:
            continue
        cls = shift_class(p, x)
        seen.update(cls)
        classes.append(cls)
    classes.sort(key=lambda cls: cls[0])
    return classes
