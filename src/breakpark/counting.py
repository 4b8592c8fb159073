"""Orbit counts and Donaldson-Thomas invariants of loop quivers.

The orbit count of the residue-tuple set under coordinate permutations
has three equivalent expressions (a divisor sum over mu, a von Sterneck
multiset count, and a parity-split form); DT invariants are that count
divided by n, and independently the exponents in the signed Euler
product of the Fuss-Catalan generating series.  Everything is exact;
every division is asserted to land on an integer.  Only the formal-log
DT route divides in rationals, so only it imports `fractions`.  The
multiset oracle's size goes through `errors.check_budget`.
"""

from __future__ import annotations

import math

from .errors import (
    DEFAULT_SET_BUDGET,
    BudgetExceededError,
    InternalInvariantError,
    PreconditionError,
    as_ints,
    check_budget,
)
from . import knm
from .series import ExactSeries, one_minus_power

MAX_SERIES_ORDER = 24


def _factorize(k: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= k:
        while k % d == 0:
            factors[d] = factors.get(d, 0) + 1
            k //= d
        d += 1
    if k > 1:
        factors[k] = factors.get(k, 0) + 1
    return factors


def moebius(k: int) -> int:
    (k,) = as_ints((k,), "moebius arguments")
    if k < 1:
        raise PreconditionError("moebius requires k >= 1")
    factors = _factorize(k)
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def euler_phi(k: int) -> int:
    (k,) = as_ints((k,), "euler_phi arguments")
    if k < 1:
        raise PreconditionError("euler_phi requires k >= 1")
    result = k
    for p in _factorize(k):
        result = result // p * (p - 1)
    return result


def divisors(k: int) -> list[int]:
    (k,) = as_ints((k,), "divisors arguments")
    if k < 1:
        raise PreconditionError("divisors requires k >= 1")
    small, large = [], []
    d = 1
    while d * d <= k:
        if k % d == 0:
            small.append(d)
            if d != k // d:
                large.append(k // d)
        d += 1
    return small + large[::-1]


def ramanujan_sum(b: int, a: int) -> int:
    """C_b(a) = sum of exp(2*pi*i*k*a/b) over k coprime to b, via the
    closed form mu(b/g) * phi(b) / phi(b/g) with g = gcd(a, b).

    gcd(0, b) = b, so C_b(0) = phi(b).
    """
    b, a = as_ints((b, a), "ramanujan_sum arguments")
    if b < 1:
        raise PreconditionError("ramanujan_sum requires b >= 1")
    g = math.gcd(a, b)
    q, r = divmod(moebius(b // g) * euler_phi(b), euler_phi(b // g))
    if r != 0:
        raise InternalInvariantError("ramanujan sum closed form not integral")
    return q


def von_sterneck(a: int, k: int, b: int) -> int:
    """Number of size-k multisets from {0, ..., a-1} with sum = b mod a."""
    a, k, b = as_ints((a, k, b), "von_sterneck arguments")
    if a < 1 or k < 0:
        raise PreconditionError("von_sterneck requires a >= 1, k >= 0")
    total = 0
    for d in divisors(math.gcd(a, k)):
        total += math.comb((a + k) // d - 1, k // d) * ramanujan_sum(d, b)
    q, r = divmod(total, a)
    if r != 0:
        raise InternalInvariantError(
            f"von_sterneck({a},{k},{b}) not integral: {total}/{a}"
        )
    return q


def von_sterneck_bruteforce(a: int, k: int, b: int) -> int:
    """Oracle: enumerate all multisets directly."""
    a, k, b = as_ints((a, k, b), "von_sterneck_bruteforce arguments")
    if a < 1 or k < 0:
        raise PreconditionError("von_sterneck_bruteforce requires a >= 1, k >= 0")
    import itertools

    check_budget(math.comb(a + k - 1, k), DEFAULT_SET_BUDGET,
                 f"multisets of {k} from {a} values")
    return sum(
        1
        for ms in itertools.combinations_with_replacement(range(a), k)
        if sum(ms) % a == b % a
    )


def orbit_count_D(m: int, n: int) -> int:
    """Orbits of the permutation action on residue tuples:
    (1/n) sum over d | n of (-1)^(m(n+d)) mu(n/d) C((m+1)d-1, md)."""
    m, n = as_ints((m, n), "orbit_count_D arguments")
    if m < 1 or n < 1:
        raise PreconditionError("orbit_count_D requires m, n >= 1")
    total = 0
    for d in divisors(n):
        sign = -1 if (m * (n + d)) % 2 else 1
        total += sign * moebius(n // d) * math.comb((m + 1) * d - 1, m * d)
    q, r = divmod(total, n)
    if r != 0:
        raise InternalInvariantError(f"orbit count ({m},{n}) not integral")
    return q


def orbit_count_D_von_sterneck(m: int, n: int) -> int:
    """Same count via the multiset formula at (a, k, b) = (mn, n, g)."""
    return von_sterneck(m * n, n, knm.KnmParams(m, n).genus)


def orbit_count_D_split(m: int, n: int) -> int:
    """Same count in the parity-split form: for m odd and n = 2 mod 4
    the even-divisor terms enter with a minus sign; otherwise a plain
    Moebius-weighted divisor sum.  Divisor variable runs over d | n with
    binomial C((m+1)n/d - 1, n/d)."""
    m, n = as_ints((m, n), "orbit_count_D_split arguments")
    if m < 1 or n < 1:
        raise PreconditionError("orbit_count_D_split requires m, n >= 1")
    total = 0
    split = m % 2 == 1 and n % 4 == 2
    for d in divisors(n):
        term = moebius(d) * math.comb((m + 1) * n // d - 1, n // d)
        if split and d % 2 == 0:
            total -= term
        else:
            total += term
    q, r = divmod(total, m * n)
    if r != 0:
        raise InternalInvariantError(f"split orbit count ({m},{n}) not integral")
    return q


def dt_invariant(m: int, n: int) -> int:
    """Numerical DT invariant of the (m+1)-loop quiver: the orbit count
    divided by n (each shift class has size n)."""
    m, n = as_ints((m, n), "dt_invariant arguments")
    q, r = divmod(orbit_count_D(m, n), n)
    if r != 0:
        raise InternalInvariantError(f"DT({m},{n}) not integral")
    return q


def fuss_catalan(m: int, n: int) -> int:
    """Number of (m+1)-ary trees with n nodes: C((m+1)n, n) / (mn+1)."""
    m, n = as_ints((m, n), "fuss_catalan arguments")
    if m < 1 or n < 0:
        raise PreconditionError("fuss_catalan requires m >= 1, n >= 0")
    q, r = divmod(math.comb((m + 1) * n, n), m * n + 1)
    if r != 0:
        raise InternalInvariantError(f"fuss_catalan({m},{n}) not integral")
    return q


def _substituted_tree_series(m: int, n_max: int) -> ExactSeries:
    """The tree series with u = (-1)^m t substituted, truncated at n_max:
    the start of both DT routes, which check their arguments here."""
    m, n_max = as_ints((m, n_max), "DT route arguments")
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    if n_max > MAX_SERIES_ORDER:
        raise BudgetExceededError(
            f"series order {n_max} exceeds cap {MAX_SERIES_ORDER}"
        )
    sign_t = -1 if m % 2 else 1
    return ExactSeries(
        [fuss_catalan(m, k) * sign_t**k for k in range(n_max + 1)], n_max
    )


def dt_via_euler_product(m: int, n_max: int) -> dict[int, int]:
    """DT invariants extracted from the signed Euler product of the tree
    series, by sequential factor extraction.

    Substituting u = (-1)^m t turns the product into
    G(u) = prod_k (1 - u^k)^(-f_k) with f_k = (-1)^(mk) * k * DT_k, so
    at each step the coefficient of u^k in the remaining series is f_k.
    The step multiplies by the one binomial factor (1 - u^k)^(f_k), so
    every coefficient stays an integer.
    """
    remaining = _substituted_tree_series(m, n_max)
    table: dict[int, int] = {}
    for k in range(1, n_max + 1):
        f_k = remaining[k]
        sign_k = -1 if (m * k) % 2 else 1
        q, r = divmod(sign_k * f_k, k)
        if r != 0:
            raise InternalInvariantError(f"DT_{k} not integral in factorization")
        table[k] = q
        remaining = remaining * one_minus_power(k, n_max, f_k)
    return table


def dt_via_formal_log(m: int, n_max: int) -> dict[int, int]:
    """Second route: formal log of the substituted tree series plus
    Moebius inversion of M*L_M = sum over k | M of k*f_k."""
    from fractions import Fraction

    logs = _substituted_tree_series(m, n_max).log()
    table: dict[int, int] = {}
    for k in range(1, n_max + 1):
        acc = Fraction(0)
        for d in divisors(k):
            acc += moebius(k // d) * d * logs[d]
        # acc = k * f_k
        sign_k = -1 if (m * k) % 2 else 1
        dt = sign_k * acc / (k * k)
        if dt.denominator != 1:
            raise InternalInvariantError(f"DT_{k} not integral in log route")
        table[k] = dt.numerator
    return table
