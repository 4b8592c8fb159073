"""Symmetric-group machinery for the break-divisor modules.

Characters are stored as class functions: dicts from cycle types
(partitions of n) to integers.  The single irreducible-character engine
is the Murnaghan-Nakayama border-strip recursion; h-to-s conversion
goes through character inner products against it.

An S_n-invariant set of vectors is a permutation module, and all of its
Frobenius data comes from its h-expansion, the number of orbits whose
vectors have each multiplicity partition mu (`h_module`;
`perm_module_h_expansion` reads it off listed orbit representatives).
`knm_modules` holds both K_n^m modules, the closed character and the
restriction verdict.  It takes the h-expansions from the Break DP
`knm.count_break_types` and the closed Park count
`knm.parking_orbit_types`.  The per-tuple fixed-point scans
(`character_break_bruteforce`, `character_parking`,
`character_shift_classes_bruteforce`) count on the candidate-scan
oracles of `knm`, each scan read once per case, so they stay
independent of the closed formulas and of the Break DP.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from operator import itemgetter
from typing import Dict, Iterable, NamedTuple, Sequence, Tuple

from . import knm
from .errors import (
    DEFAULT_SET_BUDGET,
    InternalInvariantError,
    PreconditionError,
    as_ints,
)
from .knm import _check_partitions, partitions_of

Partition = Tuple[int, ...]
ClassFunction = Dict[Partition, int]


def _z(lam: Partition) -> int:
    z = 1
    for part, cnt in Counter(lam).items():
        z *= part**cnt * math.factorial(cnt)
    return z


def class_size(lam: Partition) -> int:
    """Size of the conjugacy class of cycle type lam in S_|lam|."""
    if min(lam, default=1) < 1 or list(lam) != sorted(lam, reverse=True):
        raise PreconditionError(f"{lam} is not a partition")
    n = sum(lam)
    return math.factorial(n) // _z(lam)


@lru_cache(maxsize=None)
def murnaghan_nakayama(lam: Partition, mu: Partition) -> int:
    """Irreducible character chi^lam evaluated on cycle type mu.

    Border strips of length r removable from lam correspond to beta
    numbers b with b - r >= 0 and b - r not a beta number; the strip
    height is the number of beta numbers strictly between b - r and b.
    """
    if sum(lam) != sum(mu):
        raise PreconditionError("partitions must have equal size")
    if not mu:
        return 1
    r = mu[0]
    rest = mu[1:]
    length = len(lam)
    beta = [lam[i] + (length - 1 - i) for i in range(length)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_lam = tuple(
            x
            for i, v in enumerate(new_beta)
            if (x := v - (length - 1 - i)) > 0
        )
        sign = -1 if height % 2 else 1
        total += sign * murnaghan_nakayama(new_lam, rest)
    return total


def character_break_closed(m: int, n: int, lam: Partition) -> int:
    """Fixed-point count of a type-lam permutation on the break divisors
    of K_n^m, by closed formula in ell = number of parts and
    d = gcd of the parts."""
    m, n = as_ints((m, n), "character_break_closed arguments")
    if m < 1 or n < 1:
        raise PreconditionError("character_break_closed requires m, n >= 1")
    if sum(lam) != n:
        raise PreconditionError("lam must be a partition of n")
    ell = len(lam)
    d = 0
    for part in lam:
        d = math.gcd(d, part)
    if d == 1:
        factor = 1
    elif d == 2 and m % 2 == 1 and n % 4 == 2:
        factor = 2
    else:
        return 0
    # factor * m^(ell-1) * n^(ell-2); at ell = 1 the n is a divisor
    value, r = divmod(
        factor * m ** (ell - 1) * n ** max(ell - 2, 0), n ** max(2 - ell, 0)
    )
    if r != 0:
        raise InternalInvariantError(
            f"closed character formula non-integral at m={m}, n={n}, lam={lam}"
        )
    return value


def permutation_of_type(lam: Partition) -> tuple[int, ...]:
    """One permutation of cycle type lam, as a 0-based image tuple."""
    n = sum(lam)
    perm = list(range(n))
    pos = 0
    for part in lam:
        for k in range(part):
            perm[pos + k] = pos + (k + 1) % part
        pos += part
    return tuple(perm)


def _fixed_count(tuples: Iterable[tuple[int, ...]], perm: Sequence[int]) -> int:
    """How many t satisfy t[i] == t[perm[i]] for every i."""
    if len(perm) < 2:  # S_0 and S_1 fix everything
        return sum(1 for _ in tuples)
    image = itemgetter(*perm)
    return sum(1 for t in tuples if image(t) == t)


def character_break_bruteforce(m: int, n: int) -> ClassFunction:
    """The character of S_n permuting the n coordinates of the break
    divisors of K_n^m: on each cycle type lam, the break divisors that
    one permutation of type lam fixes, counted on the candidate scan
    `knm.enumerate_break_bruteforce`."""
    breaks = knm.enumerate_break_bruteforce(knm.KnmParams(m, n))
    return {lam: _fixed_count(breaks, permutation_of_type(lam)) for lam in partitions_of(n)}


def character_break(
    m: int, n: int, budget: int = DEFAULT_SET_BUDGET
) -> ClassFunction:
    """The closed-form class function on every cycle type of S_n.  The
    number of partitions of n is checked against the budget on call,
    before any is listed; the count stops at the first p(k) > budget,
    since p(n) >= p(k), so the check is cheap at any n."""
    _check_partitions(n, budget)
    return {
        lam: character_break_closed(m, n, lam) for lam in partitions_of(n)
    }


def character_parking(m: int, n: int) -> ClassFunction:
    """The character of S_{n-1} permuting the n-1 coordinates of the
    parking functions of K_n^m: on each cycle type mu, the parking
    functions that one permutation of type mu fixes, counted on the
    candidate scan `knm.enumerate_parking_bruteforce`."""
    parks = knm.enumerate_parking_bruteforce(knm.KnmParams(m, n))
    return {mu: _fixed_count(parks, permutation_of_type(mu)) for mu in partitions_of(n - 1)}


def character_shift_classes_bruteforce(m: int, n: int) -> ClassFunction:
    """Character of the permutation action on shift classes of the
    residue tuples.  Permuting coordinates commutes with the shift, so a
    permutation fixes the class with key k iff it maps k into that class."""
    p = knm.KnmParams(m, n)
    keys = [cls[0] for cls in knm.shift_classes(p)]
    values: ClassFunction = {}
    for lam in partitions_of(n):
        perm = permutation_of_type(lam)
        values[lam] = sum(
            1 for k in keys if knm.class_key(p, tuple(k[i] for i in perm)) == k
        )
    return values


def _degree(chi: ClassFunction) -> tuple[int, list[Partition]]:
    """The n of a class function of S_n and its keys, which must be the
    partitions of n."""
    if not chi:
        raise PreconditionError("empty class function")
    n = sum(next(iter(chi)))
    parts = partitions_of(n)
    if chi.keys() != set(parts):
        raise PreconditionError(f"keys are not the partitions of {n}")
    return n, parts


def restrict_character(chi: ClassFunction) -> ClassFunction:
    """Restriction from S_n to S_{n-1}: append a fixed point to each
    cycle type of S_{n-1} (a part 1 goes last in a decreasing partition)
    and read off the S_n value."""
    n, _ = _degree(chi)
    if n < 2:
        raise PreconditionError("restriction needs n >= 2")
    return {mu: chi[mu + (1,)] for mu in partitions_of(n - 1)}


def perm_module_h_expansion(
    orbit_reps: Iterable[Sequence[int]],
) -> Dict[Partition, int]:
    """Frobenius characteristic of a permutation module as a sum of
    complete homogeneous symmetric functions, one h per orbit, indexed
    by the partition of value multiplicities of its representative."""
    mults = (tuple(sorted(Counter(rep).values(), reverse=True)) for rep in orbit_reps)
    return dict(sorted(Counter(mults).items()))


def _distributions(cycles: Partition, blocks: Partition) -> int:
    """Ways to assign the (labeled) cycles to the ordered blocks so each
    block's assigned lengths sum to its size; 0 when the sizes differ."""
    if sum(cycles) != sum(blocks):
        return 0
    return _placements(tuple(cycles), tuple(sorted(blocks)))


@lru_cache(maxsize=None)
def _placements(cycles: Partition, rooms: Partition) -> int:
    """Ways to put the labeled cycles into blocks with these rooms
    (sorted, nonzero, summing to the cycles) so each fills exactly.  The
    first cycle goes into a block with room for it; blocks of equal room
    leave the same rooms behind, so each distinct room is tried once and
    counted as often as it occurs."""
    if not cycles:
        return 1
    c, rest = cycles[0], cycles[1:]
    total = 0
    for i, room in enumerate(rooms):
        if room < c or (i and rooms[i - 1] == room):
            continue
        left = rooms[:i] + rooms[i + 1:] + ((room - c,) if room > c else ())
        total += rooms.count(room) * _placements(rest, tuple(sorted(left)))
    return total


def h_module_character(coeffs: Dict[Partition, int], n: int) -> ClassFunction:
    """Character of a sum of h-indexed permutation modules: a tabloid is
    fixed by sigma exactly when each row is a union of cycles, so the
    value on class nu counts distributions of the cycles of nu among
    blocks of sizes mu."""
    parts = partitions_of(n)
    if not set(coeffs) <= set(parts):
        raise PreconditionError(f"keys must be partitions of {n}")
    return {
        nu: sum(c * _distributions(nu, mu) for mu, c in coeffs.items())
        for nu in parts
    }


def schur_expansion(chi: ClassFunction) -> Dict[Partition, int]:
    """Expand a class function in irreducible characters: coefficient of
    s_lam is the inner product (1/n!) sum class_size * chi * chi^lam."""
    n, parts = _degree(chi)
    nfact = math.factorial(n)
    weights = [(mu, class_size(mu) * chi[mu]) for mu in parts]
    out: Dict[Partition, int] = {}
    for lam, _ in weights:
        acc = sum(w * murnaghan_nakayama(lam, mu) for mu, w in weights)
        coeff, r = divmod(acc, nfact)
        if r != 0:
            raise InternalInvariantError(
                f"non-integral multiplicity of s_{lam}: {acc}/{nfact}"
            )
        if coeff != 0:
            out[lam] = coeff
    return out


def h_to_s(coeffs: Dict[Partition, int], n: int) -> Dict[Partition, int]:
    """Convert an h-expansion to an s-expansion via the character of the
    corresponding permutation module."""
    return schur_expansion(h_module_character(coeffs, n))


class PermutationModule(NamedTuple):
    h: Dict[Partition, int]  # one h_mu per orbit, mu its multiplicities
    character: ClassFunction  # fixed points per cycle type
    s: Dict[Partition, int]  # irreducible multiplicities


def h_module(h: Dict[Partition, int], n: int) -> PermutationModule:
    """Frobenius data of the S_n-permutation module with h-expansion h:
    h[mu] orbits, each that of a vector with value multiplicities mu."""
    chi = h_module_character(h, n)
    return PermutationModule(h, chi, schur_expansion(chi))


class KnmModules(NamedTuple):
    closed: ClassFunction  # `character_break`
    breaks: PermutationModule  # S_n on Break
    parks: PermutationModule | None  # S_{n-1} on Park; None at n = 1
    restricts: bool  # closed restricts to parks.character; True at n = 1


def knm_modules(p: knm.KnmParams, budget: int = DEFAULT_SET_BUDGET) -> KnmModules:
    """Both module statements of the paper on K_n^m, from orbit types
    counted without listing an orbit: S_n on Break against the closed
    character, and its restriction to S_{n-1} against Park.  |Break| is
    checked against the budget on call, as in every knm enumerator; it
    bounds the states of the Break DP too, so `knm.count_break_types`
    runs unchecked."""
    knm.check_break_budget(p, budget)
    closed = character_break(p.m, p.n, budget)
    breaks = h_module(knm.count_break_types(p), p.n)
    if p.n == 1:
        return KnmModules(closed, breaks, None, True)
    parks = h_module(knm.parking_orbit_types(p, budget), p.n - 1)
    return KnmModules(closed, breaks, parks, restrict_character(closed) == parks.character)


def trivial_multiplicity(chi: ClassFunction) -> int:
    """Multiplicity of the trivial character: (1/n!) sum class_size * chi."""
    n, parts = _degree(chi)
    acc = sum(class_size(mu) * chi[mu] for mu in parts)
    coeff, r = divmod(acc, math.factorial(n))
    if r != 0:
        raise InternalInvariantError("trivial multiplicity not integral")
    return coeff


def dominated_partition_count(m: int, n: int) -> int:
    """Partitions of the genus with at most n parts dominated by
    (m(n-1)-1, ..., m-1, 0); these index the orbits of break divisors,
    so this is the sum of `knm.break_orbit_types`, whose state space is
    checked against the default budget."""
    return sum(knm.break_orbit_types(knm.KnmParams(m, n)).values())
