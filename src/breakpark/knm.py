"""Complete-multigraph specialization K_n^m.

Break divisors are characterized by dominance of the sorted vector by
delta = (m(n-1)-1, ..., m-1, 0); parking functions by the sorted bound
a~_i <= m*i - 1; residue tuples live in [0, mn-1]^n with coordinate sum
congruent to the genus mod mn.  The shift map adds m to every
coordinate mod mn and partitions the residue tuples into classes of
size n, each holding exactly one break divisor and exactly one tuple
projecting to a parking function.  So the classes are those of the break
divisors, and `class_key` finds the smallest member of a class in O(n).
The first coordinates of a class's members are the n values in [0, N-1]
congruent to x_0 mod m, so exactly one member has x_0 < m: the class key.

Break and Park are listed by a depth-first walk over prefixes in
lexicographic order: each test decides from a prefix which values the
next coordinate may take (an interval for Break, whole blocks of m for
Park), so the walk holds only the prefix and its bounds, and an item
costs one concatenation.  The candidate scans are kept as
`*_bruteforce` oracles.  `break_orbit_reps` and `parking_orbit_reps`
check a closed orbit count before they list an orbit.

Every S_n-invariant quantity depends only on how many orbits have each
multiplicity partition mu (the h-expansion).  `break_orbit_types` counts
these by a DP over the values, one run of equal entries per value, and
`parking_orbit_types` by a closed formula, both without listing an orbit.

The set enumerators `enumerate_break`, `enumerate_parking`,
`enumerate_residue_tuples` and `shift_classes` return iterators.  Each
checks its budget on call, before the first item, by
`check_break_budget` or `check_d_budget`, and then generates the set as
it is read, so it never holds the whole set; call `list(...)` on it for
a list.

`enumerate` builds its break, park, residue and classes records inside
these walks, with the keyword `records` of `enumerate_break`,
`enumerate_parking`, `enumerate_residue_tuples` and `shift_classes`: an
item is then the arguments of one `%` with its set's templates, declared
next to the walker (`break_fields`, `parking_fields`, `residue_fields`,
`class_fields`, in JSON key order).  A head's text, such as "(3,1,", is
formatted once per head, or per run for residue and classes and their
class-key head, so a row formats only its leaf ints and texts.  The
leaves of one prefix block whose last three coordinates are the same
multiset share one sort and one key text.  At n >= 4 a block (a Break
prefix of `_break_nodes`, or a residue run head less its last entry)
holds a list table of its key texts indexed by two of those three
values, (A+1)^2 texts for Break, A the block's first room, which bounds
every free coordinate, and N^2 for D; it is dropped at the next block.
At n = 3 the one block is the whole set, so its table would be as large
as the set: there x and s - x of one Break head, and (v, w) and (w, v)
of one residue run, share one key text.  A Park leaf's key is w inserted
into the sort of its head, whose texts before and after w are formatted
once per run of w between two entries.  A Break or Park record at
n <= 2, and a residue record at n = 1, is ints.  D and its classes come
from one generator of runs (`_runs`), a fixed head with the free
coordinate from a range, which only `enumerate_residue_tuples` and
`shift_classes` walk; a residue record's class key, its run's head
shifted back once per run, costs two `%`.  A classes record builds no
member tuple: its run tables give each member's head text and the
classes whose break member it is, and it confirms that member with one
`is_break_mn` and its projection with one `is_parking_mn`.  These
predicates stay cheap per call: they reject a wrong sum or a negative
entry in O(n) before they sort, they check the entries' types only when
the sum is not an int, the range checks use min/max, and `KnmParams`
caches its derived quantities.

`KnmParams` is a plain read-only value class rather than a dataclass:
`dataclasses` pulls `inspect` and `ast` into every CLI start-up.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterator, Sequence

from .errors import (
    DEFAULT_SET_BUDGET,
    InternalInvariantError,
    PreconditionError,
    as_ints,
    check_budget,
    check_size,
)


class KnmParams:
    """Parameters of K_n^m with the derived quantities used everywhere.

    A value: equal and hashed by (m, n), and read-only.  The derived
    quantities are computed once per instance and cached.
    """

    def __init__(self, m: int, n: int):
        m, n = as_ints((m, n), "KnmParams m and n")
        if m < 1 or n < 1:
            raise PreconditionError("KnmParams requires m >= 1 and n >= 1")
        # __setattr__ refuses every write; like cached_property, set the
        # instance __dict__ directly
        d = self.__dict__
        d["m"] = m
        d["n"] = n

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.m == other.m and self.n == other.n
        return NotImplemented

    def __hash__(self):
        return hash((self.m, self.n))

    def __repr__(self):
        return f"KnmParams(m={self.m!r}, n={self.n!r})"

    @cached_property
    def N(self) -> int:
        return self.m * self.n

    @cached_property
    def genus(self) -> int:
        return self.m * self.n * (self.n - 1) // 2 - self.n + 1

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


def parking_orbit_count(p: KnmParams) -> int:
    """|Park_{m,n} / S_(n-1)| = C(N+n-2, n-1) / n: the multisets of n-1
    values on N circular spots, of whose rotations by m one in n parks
    (the cycle lemma, `_parking_start`)."""
    return math.comb(p.N + p.n - 2, p.n - 1) // p.n


def residue_count(p: KnmParams) -> int:
    """|D_{m,n}| = N^(n-1): the last coordinate follows from the others."""
    return p.N ** (p.n - 1)


def check_break_budget(p: KnmParams, budget: int, what: str = "Break"):
    """The budget check on |Break| = |Park| of every Break and Park
    enumerator and scan, and of `verify`'s up-front checks; `what` names
    the set in the error.  A huge |Break| is refused from its log2,
    (n-1) log2(m) + (n-2) log2(n), without being built
    (`errors.check_size`)."""
    log2_size = (p.n - 1) * math.log2(p.m) + max(p.n - 2, 0) * math.log2(p.n)
    check_size(lambda: break_count(p), log2_size, budget, what)


def check_d_budget(p: KnmParams, budget: int):
    """The budget check on |D| of `enumerate_residue_tuples`,
    `shift_classes` and their record forms, and of `verify`'s up-front
    checks.  A huge |D| is refused from its log2, (n-1) log2(N), without
    being built (`errors.check_size`)."""
    check_size(lambda: residue_count(p), (p.n - 1) * math.log2(p.N), budget, "D")


def sort_orbit_key(x: Sequence[int]) -> tuple[int, ...]:
    """Weakly decreasing rearrangement; canonical S_n-orbit representative."""
    key = tuple(sorted(x, reverse=True))
    if key and key[-1] < 0:
        raise PreconditionError("entries must be nonnegative")
    return key


def is_break_mn(p: KnmParams, d: Sequence[int]) -> bool:
    """Sorted-dominance test: d is a break divisor on K_n^m iff it is
    effective of degree g and its decreasing sort is dominated by delta.
    An entry that is not an integer raises PreconditionError."""
    d = tuple(d)
    if len(d) != p.n:
        raise PreconditionError(f"expected length {p.n}, got {len(d)}")
    # a sum of ints is exactly an int, so the entries go through `as_ints`
    # only when it is not, or when it fails (a str entry): a float,
    # Fraction, Decimal or str entry is refused, an int-like converted
    try:
        if (total := sum(d)).__class__ is not int:
            raise TypeError
    except TypeError:
        total = sum(d := as_ints(d, "divisor entries"))
    # the two O(n) rejections come before the sort
    if total != p.genus or min(d) < 0:
        return False
    prefix = 0
    for dv, bound in zip(sorted(d, reverse=True), p.delta_prefix):
        prefix += dv
        if prefix > bound:
            return False
    return True


def is_parking_mn(p: KnmParams, a: Sequence[int]) -> bool:
    """Vector-parking test: increasing sort a~ satisfies a~_i <= m*i - 1.
    An entry that is not an integer raises PreconditionError."""
    a = tuple(a)
    if len(a) != p.n - 1:
        raise PreconditionError(f"expected length {p.n - 1}, got {len(a)}")
    try:  # entries checked as in `is_break_mn`
        if sum(a).__class__ is not int:
            raise TypeError
    except TypeError:
        a = as_ints(a, "parking entries")
    if a and min(a) < 0:
        return False
    for i, v in enumerate(sorted(a), start=1):
        if v > p.m * i - 1:
            return False
    return True


def partition_counts(n: int) -> Iterator[int]:
    """p(0), p(1), ..., p(n), in integers, by Euler's pentagonal number
    recurrence: p(k) is the sum over j >= 1 of (-1)^(j+1) times
    p(k - j(3j-1)/2) + p(k - j(3j+1)/2)."""
    p: list[int] = []
    for k in range(n + 1):
        total, j = int(k == 0), 1
        while (g := j * (3 * j - 1) // 2) <= k:
            term = p[k - g] + (p[k - g - j] if g + j <= k else 0)
            total += term if j % 2 else -term
            j += 1
        p.append(total)
        yield total


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of n in reverse-lexicographic order."""
    (n,) = as_ints((n,), "partitions_of arguments")
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    out: list[tuple[int, ...]] = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(largest, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def _check_partitions(n: int, budget: int = DEFAULT_SET_BUDGET):
    """Check the number of partitions of n against the budget, stopping
    at the first p(k) over it, which is named as a lower bound."""
    for count in partition_counts(n):
        check_budget(count, budget, f"partitions of {n}", exact=False)


def _check_break_states(p: KnmParams, budget: int):
    """Check (g+1) * (p(0) + ... + p(n)), the size of the state space of
    `break_orbit_types`, against the budget.  The sum stops at the first
    partial sum over budget, which is then named as a lower bound, so the
    check is cheap at any n."""
    total = 0
    for count in partition_counts(p.n):
        total += (p.genus + 1) * count
        if total > budget:
            check_budget(total, budget, "Break orbit-type state space", exact=False)


def break_orbit_types(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET
) -> dict[tuple[int, ...], int]:
    """{mu: number of S_n-orbits of Break_{m,n} whose representative has
    value multiplicities mu}, in sorted order, without listing an orbit.

    A representative is weakly decreasing, so it is a run of equal
    values for each value from delta[0] down to 0.  A state is (entries
    placed i, their sum t, the run lengths mu so far).  A run of k copies
    of v after a state is allowed iff its last entry keeps the prefix
    bound, t + k*v <= delta_prefix[i+k-1]: the prefix sums of delta are
    concave (delta decreases) and the run adds v per entry, so the bound
    minus the running sum is concave on i-1, ..., i+k-1 and nonnegative
    at both ends, hence in between; for the same reason no longer run
    fits once one fails.  A state whose n - i entries left, each at most
    the next value, cannot reach g is dropped.

    A state waits in `waiting`, keyed by the largest value its next run
    can take (below the run's value and within the prefix bound), until
    the sweep reaches that value; it is then `active` until the sum is
    out of reach, so the sweep passes over no state that cannot take the
    value.  `active`, and `waiting` over all its rows, each hold a state
    (i, t, mu), with 0 <= i <= n, 0 <= t <= g and mu a partition of i, at
    most once, so (g + 1) * (p(0) + ... + p(n)) bounds each, and the sweep
    has delta[0] + 1 <= g + 1 steps.  That bound on the states held is
    checked against the budget on call, before the first state.  It does
    not bound the work: a state stays active over every value it can
    still take, and each step of the sweep revisits every active state,
    so the work is up to delta[0] + 1 times the states.  At n = 12 the
    count takes about 2.2 s at m = 10, 10.6 s at m = 20 and 70.8 s at
    m = 50 (in one process, Python 3.11, a shared 2-core Xeon VM), all
    within the default budget."""
    _check_break_states(p, budget)
    return count_break_types(p)


def count_break_types(p: KnmParams) -> dict[tuple[int, ...], int]:
    """`break_orbit_types` without its budget check.  Every state it
    holds is a prefix of an orbit representative: filling the rest
    greedily, each entry as large as the previous entry and the prefix
    bound allow, reaches g, so at most n + 1 states per orbit.  A
    |Break| check therefore bounds its states as it bounds the orbits."""
    n, g, bounds = p.n, p.genus, p.delta_prefix
    waiting: dict[int, dict[tuple, int]] = {bounds[0]: {(0, 0, ()): 1}}
    active: dict[tuple, int] = {}
    types: dict[tuple[int, ...], int] = {}
    for v in range(bounds[0], -1, -1):
        for state, c in waiting.pop(v, {}).items():
            active[state] = active.get(state, 0) + c
        for state, c in list(active.items()):
            i, t, mu = state
            if t + (n - i) * v < g:  # the rest, each <= v, falls short of g
                del active[state]
                continue
            k = 1
            while i + k <= n and t + k * v <= bounds[i + k - 1]:
                j, s = i + k, t + k * v
                nu = tuple(sorted(mu + (k,), reverse=True))
                if j == n:  # then s = g: s <= bounds[n - 1] = g, and s >= g
                    types[nu] = types.get(nu, 0) + c
                else:
                    top = min(v - 1, bounds[j] - s)
                    if top >= 0 and s + (n - j) * top >= g:
                        row = waiting.setdefault(top, {})
                        row[(j, s, nu)] = row.get((j, s, nu), 0) + c
                k += 1
    return dict(sorted(types.items()))


def parking_orbit_types(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET
) -> dict[tuple[int, ...], int]:
    """{mu: number of S_(n-1)-orbits of Park_{m,n} whose representative
    has value multiplicities mu}, in sorted order, by the closed formula
    Frob(Park) = (1/n) h_(n-1)[N X]: (N)_l / (n * prod_i m_i(mu)!) for mu
    with l parts, m_i(mu) of them equal to i.  p(n-1) is checked against
    the budget on call, before a partition is listed."""
    _check_partitions(p.n - 1, budget)
    types = {}
    for mu in partitions_of(p.n - 1):
        den = p.n * math.prod(math.factorial(mu.count(i)) for i in set(mu))
        types[mu], r = divmod(math.perm(p.N, len(mu)), den)
        if r != 0:
            raise InternalInvariantError(f"Park orbits of type {mu} not integral")
    return dict(sorted(types.items()))


def _check_orbit_floor(p: KnmParams, budget: int, what: str):
    """Check 2^(n-2) / n against the budget, cheap at any n: Park has
    Catalan(n-1) >= 2^(n-2) orbits or more, and Break 1/n as many, since
    an S_n-orbit of the shift classes holds at most n S_(n-1)-orbits."""
    check_budget((1 << max(p.n - 2, 0)) // p.n, budget, what, exact=False)


def break_orbit_reps(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET
) -> list[tuple[int, ...]]:
    """The S_n-orbit representatives of Break_{m,n}: the weakly
    decreasing vectors of sum g whose prefix sums stay within those of
    delta, in lexicographic order.  Their number, DT_n of the (m+1)-loop
    quiver (`counting.dt_invariant`), is checked against the budget
    after `_check_orbit_floor`, before the first is listed."""
    from .counting import dt_invariant  # counting imports this module

    _check_orbit_floor(p, budget, "Break orbits")
    check_budget(dt_invariant(p.m, p.n), budget, "Break orbits")
    n, g, bounds = p.n, p.genus, p.delta_prefix
    # the entries left are at most v each, so entry i >= ceil(rest / left)
    return _lex_walk(n, g, lambda i, t, v: range(-(-(g - t) // (n - i)),
                                                 min(v, bounds[i] - t) + 1))


def _lex_walk(length: int, first: int, entries) -> list[tuple[int, ...]]:
    """The tuples of `length` ints in lexicographic order whose entry i
    runs over entries(i, t, v), where t is the sum of the entries before
    it and v the entry before it; `first` stands in for v at entry 0."""
    out, prefix = [], []

    def rec(total, last):
        i = len(prefix)
        if i == length:
            out.append(tuple(prefix))
            return
        for v in entries(i, total, last):
            prefix.append(v)
            rec(total + v, v)
            prefix.pop()

    rec(0, first)
    return out


def parking_orbit_reps(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET
) -> list[tuple[int, ...]]:
    """The S_{n-1}-orbit representatives of Park_{m,n} in sort_orbit_key
    form: the weakly increasing a~ with a~_i <= m*i - 1, each reversed,
    in lexicographic order.  Their number, `parking_orbit_count` by the
    cycle lemma, is checked against the budget after `_check_orbit_floor`,
    before the first is listed."""
    _check_orbit_floor(p, budget, "Park orbits")
    check_budget(parking_orbit_count(p), budget, "Park orbits")
    n, m = p.n, p.m
    # entry j is a~_{n-1-j} of the increasing sort
    return _lex_walk(n - 1, m * (n - 1),
                     lambda j, t, v: range(min(v, m * (n - 1 - j) - 1) + 1))


def _break_nodes(prefix: tuple[int, ...], rooms: list[int], r: int) -> Iterator:
    """(prefix, rooms, r) for each prefix below `prefix` with three
    coordinates left that completes to a break divisor, in lexicographic
    order.  rooms[l-1] is the most the l largest free coordinates may sum
    to, the least delta_prefix[j+l-1] less the sum of the j largest of
    the prefix over j, and r is their sum: the sorted vector is dominated
    by delta iff every room is kept.  Appending v leaves min(rooms[l-1],
    rooms[l] - v).

    The next values v form an interval, k = len(rooms) - 1 coordinates
    being left after v.  The balanced split of s = r - v into k parts,
    least in majorization order, fits iff any completion does; its l
    largest sum to l*(s//k) + min(l, s%k).  They fit a = rooms[l-1] iff
    s <= k*(a//l) + a%l, a floor on v; with v they fit a = rooms[l],
    l < k, iff r <= a or s >= k*q + (l + c if c else 0), (q, c) =
    divmod(r - a, k - l), a ceiling on v."""
    k = len(rooms) - 1
    if k == 2:
        yield prefix, rooms, r
        return
    lo = r - min(k * (a // l) + a % l for l, a in enumerate(rooms[:k], 1))
    hi = r
    for l, a in enumerate(rooms[:k]):
        if r > a:
            q, c = divmod(r - a, k - l)
            hi = min(hi, r - k * q - (l + c if c else 0))
    pairs = list(zip(rooms, rooms[1:]))
    for v in range(max(lo, 0), hi + 1):
        rest = [a if a < b - v else b - v for a, b in pairs]
        yield from _break_nodes(prefix + (v,), rest, r - v)


def _park_nodes(prefix: tuple[int, ...], bounds: tuple[int, ...]) -> Iterator:
    """(prefix, bounds) for each prefix below `prefix` with two
    coordinates left that completes to a parking function, in
    lexicographic order.  The free values complete it iff, sorted
    increasingly, the j-th is below bounds[j-1] (m, 2m, ..., m(n-1) at the
    root), so the next value v is below bounds[-1]; the rest then need one
    value fewer below each y > v, so v in [bounds[j-1], bounds[j]) leaves
    bounds[j] out."""
    if len(bounds) == 2:
        yield prefix, bounds
        return
    for j, top in enumerate(bounds):
        rest = bounds[:j] + bounds[j + 1 :]
        for v in range(bounds[j - 1] if j else 0, top):
            yield from _park_nodes(prefix + (v,), rest)


@lru_cache(maxsize=None)
def tuple_template(length: int) -> str:
    """The `%` template "(%d,...,%d)" of a tuple of `length` ints."""
    return "(" + ",".join(["%d"] * length) + ")"


def break_fields(p: KnmParams) -> tuple:
    """The fields of an `enumerate_break` record, (name, `%` template) in
    JSON key order; the record is their arguments: (head text, x, s - x,
    orbit-key text), or d and its sort at n <= 2."""
    if p.n < 3:
        d = tuple_template(p.n)
        return ("divisor", d), ("orbit_key", d)
    return ("divisor", "%s%d,%d)"), ("orbit_key", "%s")


def enumerate_break(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET, *, records: bool = False
) -> Iterator[tuple]:
    """An iterator over all of Break_{m,n} in lexicographic order; the
    budget, on |Break|, is checked on call.  It holds the current prefix
    and, per level, the rooms of `_break_nodes`: O(n^2) integers.  The
    last three coordinates are the k = 2 and k = 1 cases of its interval,
    inlined: with rooms (A, B, _), v ranges over [max(0, r - B, r - 2A),
    min(r, A, 2B - r)], and the pair (x, s - x), s = r - v, has room
    X = min(A, B - v) for its larger entry, so x ranges over [lo, s - lo]
    with lo = max(0, s - X), an interval symmetric about s/2.

    With `records`, an item is the record of `enumerate --set break`
    (`break_fields`).  Its head text, such as "(3,1,", is formatted once
    per head.  At n >= 4 the key text is sorted and formatted once per
    multiset {v, x, s - x} of a `_break_nodes` prefix: a table of the
    prefix, table[a][b] the key of the last three (a, b, r - a - b), holds
    it under all six orders.  Each of the three is at most A, the prefix's
    first room, so the table has (A+1)^2 slots; it is dropped at the next
    prefix.  At n = 3 there is one prefix, (), and such a table would be
    as large as Break, so only x and s - x share a key: a head sorts and
    formats the key text once per pair and keeps at most X/2 + 1 texts."""
    check_break_budget(p, budget)
    g = p.genus
    if p.n < 3:  # at n = 2, delta = (g, 0) keeps every split of g
        plain = zip(range(g + 1), range(g, -1, -1)) if p.n == 2 else iter([(0,)])
        return (d + tuple(sorted(d, reverse=True)) for d in plain) if records else plain
    head_format, key_format = "(" + "%d," * (p.n - 2), tuple_template(p.n)
    blocks = records and p.n > 3  # at n = 3 the one block is all of Break

    def walk():
        for prefix, (A, B, _), r in _break_nodes((), list(p.delta_prefix), g):
            if blocks:  # table[a][b]: the key of the last three (a, b, r - a - b)
                table = None  # drop the last block's table before the next
                table = [[None] * (A + 1) for _ in range(A + 1)]
            for v in range(max(0, r - B, r - 2 * A), min(r, A, 2 * B - r) + 1):
                head, s = prefix + (v,), r - v
                X = A if A < B - v else B - v
                lo = s - X if s > X else 0
                if not records:
                    for x in range(lo, s - lo + 1):
                        yield head + (x, s - x)
                    continue
                text = head_format % head
                if blocks:
                    row = table[v]
                    for x in range(lo, s - lo + 1):
                        if (key := row[x]) is None:  # one build per multiset {v, x, y}
                            y = s - x
                            key = key_format % tuple(sorted(head + (x, y), reverse=True))
                            row[x] = row[y] = table[x][v] = table[x][y] = table[y][v] = \
                                table[y][x] = key
                        yield text, x, s - x, key
                    continue
                keys = []  # of x <= s/2, for their mirrors s - x
                for x in range(lo, s // 2 + 1):
                    keys.append(key := key_format % tuple(
                        sorted(head + (x, s - x), reverse=True)))
                    yield text, x, s - x, key
                if s % 2 == 0:  # x = s/2 is its own mirror
                    keys.pop()
                for x in range(s // 2 + 1, s - lo + 1):
                    yield text, x, s - x, keys.pop()

    return walk()


def parking_fields(p: KnmParams) -> tuple:
    """The fields of an `enumerate_parking` record, (name, `%` template)
    in JSON key order; the record is their arguments: (orbit-key text
    before w, w, orbit-key text after w, head text, w), or the sort of a
    and a at n <= 2."""
    k = p.n - 1
    if k < 2:
        a = tuple_template(k)
        return ("orbit_key", a), ("parking", a)
    return ("orbit_key", "%s%d%s"), ("parking", "%s%d)")


def enumerate_parking(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET, *, records: bool = False
) -> Iterator[tuple]:
    """An iterator over all of Park_{m,n} in lexicographic order; the
    budget, on |Park|, is checked on call.  It holds the current prefix
    and, per level, the bounds of `_park_nodes`: O(n^2) integers.  With
    bounds (c1, c2) left, u < c1 leaves w < c2 and c1 <= u < c2 leaves
    w < c1.

    With `records`, an item is the record of `enumerate --set park`
    (`parking_fields`).  A head formats its text and sorts once; a leaf's
    orbit key is w inserted into that sort after the i entries greater
    than w, and the texts before and after w are formatted once for each
    run of w between two entries, so no leaf sorts."""
    check_break_budget(p, budget, "Park")
    m, k = p.m, p.n - 1
    if k < 2:
        plain = zip(range(m)) if k == 1 else iter([()])
        return (tuple(sorted(a, reverse=True)) + a for a in plain) if records else plain
    # the templates of the key text before and after w, where w follows
    # the i largest entries of the head
    splits = [("(" + "%d," * i, ",%d" * (k - 1 - i) + ")") for i in range(k)]
    head_format = splits[-1][0]

    def walk():
        for prefix, (c1, c2) in _park_nodes((), tuple(range(m, m * k + 1, m))):
            for u in range(c2):
                head, top = prefix + (u,), c2 if u < c1 else c1
                if not records:
                    for w in range(top):
                        yield head + (w,)
                    continue
                text, key = head_format % head, tuple(sorted(head, reverse=True))
                i, w = k - 1, 0  # key[:i] are the entries greater than w
                while w < top:
                    while i and key[i - 1] <= w:
                        i -= 1
                    end = min(key[i - 1], top) if i else top
                    before, after = splits[i]
                    before, after = before % key[:i], after % key[i:]
                    for x in range(w, end):
                        yield before, x, after, text, x
                    w = end

    return walk()


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


def enumerate_break_bruteforce(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET
) -> tuple[tuple[int, ...], ...]:
    """Break_{m,n} by testing every composition of g into n parts of at
    most m(n-1)-1 with is_break_mn; sorted."""
    check_break_budget(p, budget)
    return tuple(d for d in compositions(p.genus, p.n, p.delta[0]) if is_break_mn(p, d))


def enumerate_parking_bruteforce(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET
) -> tuple[tuple[int, ...], ...]:
    """Park_{m,n} by testing every tuple in [0, m(n-1)-1]^(n-1) with
    is_parking_mn; sorted."""
    check_break_budget(p, budget, "Park")
    candidates = itertools.product(range(p.m * (p.n - 1)), repeat=p.n - 1)
    return tuple(a for a in candidates if is_parking_mn(p, a))


def _runs(p: KnmParams, keys: bool) -> Iterator[tuple[tuple[int, ...], int, int, range]]:
    """The runs of D, or of its class keys (x_0 < m), in order: (head, c,
    s, vs) for the tuples head + (v, (c - v) % N), v in vs, where the
    head is x[:n-2], c = g - sum(head) and s = x_0 - x_0 % m, the shift
    back to the key.  For n = 2, v is x_0, so a run is a block of m
    values, where s is fixed.  Requires n >= 2."""
    m, n, N, g = p.m, p.n, p.N, p.genus
    top = m if keys else N
    if n == 2:
        for s in range(0, top, m):
            yield (), g, s, range(s, s + m)
        return
    for head in itertools.product(range(top), *[range(N)] * (n - 3)):
        yield head, g - sum(head), head[0] - head[0] % m, range(N)


def residue_fields(p: KnmParams) -> tuple:
    """The fields of an `enumerate_residue_tuples` record, (name, `%`
    template) in JSON key order; the record is their arguments: (class-key
    head text, (v - s) % N, (w - s) % N, orbit-key text, head text, v, w),
    or (0, 0, 0) at n = 1."""
    if p.n == 1:
        return ("class_key", "(%d)"), ("orbit_key", "(%d)"), ("tuple", "(%d)")
    return ("class_key", "%s%d,%d)"), ("orbit_key", "%s"), ("tuple", "%s%d,%d)")


def enumerate_residue_tuples(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET, *, records: bool = False
) -> Iterator[tuple]:
    """An iterator over all of D_{m,n}: tuples in [0, N-1]^n with sum = g
    mod N, in lexicographic order, since the last coordinate follows from
    the others.  The budget is checked on call.  For n = 1, D = {(0,)}.

    With `records`, an item is the record of `enumerate --set residue`
    (`residue_fields`).  A run formats the texts of its head and of its
    class-key head, the head shifted back by s, once.  At n >= 4 the runs
    whose heads share all but their last entry u form a block, and the
    key text is sorted and formatted once per multiset {u, v, w} of a
    block: a table of N^2 slots, indexed by two of the three values, holds
    it under all six orders and is dropped at the next block.  At n = 3
    the one block is all of D, so (v, w) with w = (c - v) % N shares its
    key text with (w, v) of the same run only, in a table of
    N <= sqrt(|D|) texts.  At n = 2 each record sorts: there N = |D|, so
    a key table would hold a text for every tuple of D."""
    check_d_budget(p, budget)
    if p.n == 1:
        return iter([(0, 0, 0) if records else (0,)])
    N = p.N
    if not records:
        return (head + (v, (c - v) % N) for head, c, _, vs in _runs(p, False) for v in vs)
    head_format, key_format = "(" + "%d," * (p.n - 2), tuple_template(p.n)
    blocks = p.n > 3  # at n = 3 the one block is all of D

    def walk():
        mirrors = p.n == 3  # at n = 2 the table would hold all of D
        keys = [""] * N if mirrors else None
        for head, c, s, vs in _runs(p, False):
            text = head_format % head
            key_head = head_format % tuple([(u - s) % N for u in head])
            if blocks:
                # a block, head[:-1], starts at u = 0; table[a][b] is the key of
                # the last three (a, b, (c + u - a - b) % N)
                if (u := head[-1]) == 0:
                    table = None  # drop the last block's table before the next
                    table = [[None] * N for _ in range(N)]
                row = table[u]
                for v in vs:
                    w = (c - v) % N
                    if (key := row[v]) is None:  # one build per multiset {u, v, w}
                        key = key_format % tuple(sorted(head + (v, w), reverse=True))
                        row[v] = row[w] = table[v][u] = table[v][w] = table[w][u] = \
                            table[w][v] = key
                    yield key_head, (v - s) % N, (w - s) % N, key, text, v, w
                continue
            for v in vs:
                w = (c - v) % N
                if w < v and mirrors:
                    key = keys[w]
                else:
                    key = key_format % tuple(sorted(head + (v, w), reverse=True))
                    if mirrors:
                        keys[v] = key
                yield key_head, (v - s) % N, (w - s) % N, key, text, v, w

    return walk()


def _check_residue_ranges(p: KnmParams, x: Sequence[int]) -> tuple[int, ...]:
    x = as_ints(x, "residue entries")
    if len(x) != p.n:
        raise PreconditionError(f"expected length {p.n}, got {len(x)}")
    if min(x) < 0 or max(x) > p.N - 1:
        raise PreconditionError("residue entries must lie in [0, N-1]")
    return x


def _check_residue_tuple(p: KnmParams, x: Sequence[int]) -> tuple[int, ...]:
    x = _check_residue_ranges(p, x)
    if sum(x) % p.N != p.genus % p.N:
        raise PreconditionError("residue sum must be g mod N")
    return x


def shift(p: KnmParams, x: Sequence[int]) -> tuple[int, ...]:
    """Add m to every coordinate mod N."""
    x = _check_residue_tuple(p, x)
    return tuple([(v + p.m) % p.N for v in x])


def class_key(p: KnmParams, x: Sequence[int]) -> tuple[int, ...]:
    """The smallest member of the shift class of x.  The first coordinates
    of the n shifts are the n values in [0, N-1] congruent to x_0 mod m,
    so the smallest member is x shifted back by s = x_0 - x_0 mod m."""
    x = _check_residue_tuple(p, x)
    N = p.N
    s = x[0] - x[0] % p.m
    return tuple([(v - s) % N for v in x])


def shift_class(p: KnmParams, x: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The n members {sh^j(x) : 0 <= j < n} in lexicographic order: the
    key, then its shifts, whose first coordinates key_0 + j*m increase."""
    key, m, N = class_key(p, x), p.m, p.N
    return tuple([tuple([(v + j * m) % N for v in key]) for j in range(p.n)])


def break_representative(p: KnmParams, x: Sequence[int]) -> tuple[int, ...]:
    """The unique break divisor in the shift class of x.  The shift by
    j*m adds N*j to the sum and takes N off for each of the w_j entries
    >= N - j*m, which wrap; only the members with j - w_j = (g - sum(x))
    / N have sum g, and only they are tested."""
    x = _check_residue_tuple(p, x)
    m, n, N = p.m, p.n, p.N
    want = (p.genus - sum(x)) // N
    top = sorted(x, reverse=True)
    hits, wrapped = [], 0
    for j in range(n):
        s = j * m
        while wrapped < n and top[wrapped] >= N - s:
            wrapped += 1
        if j - wrapped == want:
            a = tuple([(v + s) % N for v in x])
            if is_break_mn(p, a):
                hits.append(a)
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
    *prefs, spots = as_ints((*prefs, spots), "circular_park arguments")
    if len(prefs) >= spots:
        raise PreconditionError("need fewer cars than spots")
    if prefs and (min(prefs) < 0 or max(prefs) >= spots):
        raise PreconditionError("preferences must lie in [0, spots-1]")
    occupied: set[int] = set()
    for pref in prefs:
        spot = pref
        while spot in occupied:
            spot = (spot + 1) % spots
        occupied.add(spot)
    return occupied


def _parking_start(counts: list[int]) -> int:
    """The rotation j of the block counts, which sum to n-1, that passes
    the parking test (the first k blocks hold >= k for every k).  By the
    cycle lemma exactly one does: with S_i the sum of (count - 1) over
    the blocks before i, it is the first i in [0, n) where S_i is least.
    The callers test the projection it picks with `is_parking_mn`."""
    n = len(counts)
    j = least = total = 0
    for i in range(1, n):
        total += counts[i - 1] - 1
        if total < least:
            j, least = i, total
    return j


def parking_representative(p: KnmParams, x: Sequence[int]) -> tuple[int, ...]:
    """The projection of the unique class member whose first n-1
    coordinates form a parking function.

    Counts the first n-1 coordinates in the n blocks of size m; a shift
    by j*m rotates the counts, and `_parking_start` finds the rotation
    that parks.  Never reads x[n-1], so only the coordinate ranges are
    validated.
    """
    x = _check_residue_ranges(p, x)
    m, n, N = p.m, p.n, p.N
    counts = [0] * n
    for v in x[: n - 1]:
        counts[v // m] += 1
    j = _parking_start(counts)
    result = tuple([(v + (n - j) * m) % N for v in x[: n - 1]])
    if not is_parking_mn(p, result):
        raise InternalInvariantError(
            f"rotation of {x} projected to non-parking tuple {result}"
        )
    return result


def class_fields(p: KnmParams) -> tuple:
    """The fields of a `shift_classes` record in JSON key order; the
    record is their 3n + 7 arguments: (head text, y, z) of the break
    member, of the key and of each member, then the parking projection's
    text; or (0, 0, 0) at n = 1."""
    x = "%s%d,%d)" if p.n > 1 else "(%d)"
    return (("break_rep", x), ("class_key", x), ("members", ";".join([x] * p.n)),
            ("parking_rep", "%s" if p.n > 1 else "()"))


def shift_classes(
    p: KnmParams, budget: int = DEFAULT_SET_BUDGET, *, records: bool = False
) -> Iterator[tuple]:
    """An iterator over all shift classes of D_{m,n} in shift_class form,
    in key order; the budget, on |D|, is checked on call.  A class key is
    the one member with x_0 < m, so there are m*N^(n-2) = |Break| keys.
    For n = 1 the only class is ((0,),).

    With `records`, an item is the `enumerate --set classes` record
    (`class_fields`), from tables built once per run of key head h, v =
    key[-2]: member j is h shifted by j*m plus (y, z) = (row(v)[j],
    row(w)[j]), and is the break member iff y is in `_pair_rooms` of its
    head, an interval of v per member; these must cover the run once.
    Each record is confirmed by `is_break_mn` and `is_parking_mn`, and
    the first of each run by `break_representative` and
    `parking_representative`; a failure raises InternalInvariantError."""
    check_d_budget(p, budget)
    if p.n == 1:
        return iter([(0, 0, 0) if records else ((0,),)])
    m, n, N = p.m, p.n, p.N
    # row(u)[j] = (u + j*m) % N: a table of N rows at n >= 3; ranges at
    # n = 2, where N = |D| and the v, w < m of a key wrap in no shift
    row = ([tuple([(u + t) % N for t in range(0, N, m)]) for u in range(N)].__getitem__
           if n > 2 else lambda u: range(u, N, m))
    if not records:
        return (tuple([*map(tuple.__add__, heads, zip(row(v), row((c - v) % N)))])
                for head, c, _, vs in _runs(p, True)
                for heads in [list(zip(*[row(u) for u in head])) or [()] * n] for v in vs)
    head_format, park_format = "(" + "%d," * (n - 2), tuple_template(n - 1)

    def walk():
        for head, c, _, vs in _runs(p, True):
            heads = list(zip(*[row(u) for u in head])) or [()] * n  # head_j = head + j*m
            texts = list(map(head_format.__mod__, heads))
            spans = []  # (a, end, j): the v in [a, end) have break member j
            for j, h in enumerate(heads):
                if room := _pair_rooms(p, h):  # y = (v + j*m) % N is room[0] at v = a
                    a, end = (room[0] - j * m) % N, (room[0] - j * m) % N + len(room)
                    spans += [(a, min(end, N), j)] + [(0, end - N, j)] * (end > N)
            spans.sort()
            # Every v in [0, N) has one break member iff each span starts
            # where the one before ends.  At n = 2, v >= m is no key but
            # its count is that of v - m.
            if [*map(itemgetter(0), spans), N] != [0, *map(itemgetter(1), spans)]:
                v = next(v for v in range(N)
                         if (hits := sum(a <= v < e for a, e, _ in spans)) != 1)
                raise InternalInvariantError(f"shift class of {head + (v, (c - v) % N)} "
                                             f"has {hits} members within the break rooms")
            counts = list(map([u // m for u in head].count, range(n)))
            # the parking member of each block of v, from the counts of head + (v,)
            park_at = [-_parking_start([*counts[:b], counts[b] + 1, *counts[b + 1:]]) % n
                       for b in range(n)]
            # each member's head text, y and z; the ints are set per class
            parts = list(itertools.chain.from_iterable(zip(texts, texts, texts)))
            for a, end, j in spans:
                for v in range(a, min(end, vs.stop)):
                    ys, zs = row(v), row(w := (c - v) % N)
                    parts[1::3], parts[2::3] = ys, zs
                    brk = heads[j] + (ys[j], zs[j])
                    if not is_break_mn(p, brk):
                        raise InternalInvariantError(
                            f"class of {head + (v, w)}: {brk} is within the break rooms "
                            "but not a break divisor")
                    park = heads[k := park_at[v // m]] + (ys[k],)
                    if not is_parking_mn(p, park):
                        raise InternalInvariantError(f"class of {head + (v, w)} projected "
                                                     f"to non-parking tuple {park}")
                    if v == 0 and (reps := (break_representative(p, key := head + (v, w)),
                                            parking_representative(p, key))) != (brk, park):
                        raise InternalInvariantError(
                            f"class of {key}: run tables give {brk}, {park}; "
                            f"the representatives give {reps[0]}, {reps[1]}")
                    yield texts[j], ys[j], zs[j], texts[0], v, w, *parts, park_format % park

    return walk()


def _pair_rooms(p: KnmParams, head: Sequence[int]) -> range:
    """The y for which head + (y, (want - y) % N), want = g - sum(head),
    is a break divisor.  With rooms A, B of `_break_nodes` for the head
    (S_j the sum of its j largest entries, A = min_j(delta_prefix[j] -
    S_j), B = min_j(delta_prefix[j+1] - S_j)), it is iff the head keeps
    delta's prefix sums, want <= B and y, want - y lie in [0, min(A,
    N - 1)]: y in [want - A', A'], A' = min(A, want, N - 1)."""
    bounds, want, N = p.delta_prefix, p.genus - sum(head), p.N
    A, B, total = bounds[0], bounds[1], 0
    for j, u in enumerate(sorted(head, reverse=True), 1):
        total += u
        if total > bounds[j - 1]:
            return range(0)
        a, b = bounds[j] - total, bounds[j + 1] - total
        A, B = (a if a < A else A), (b if b < B else B)
    A = min(A, want, N - 1) if want <= B else -1
    return range(want - A, A + 1)
