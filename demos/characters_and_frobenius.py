"""Symmetric-group structure of the break-divisor module.

Computes the character of the permutation action on break divisors by
closed formula and by brute-force fixed-point counting, expands the
Frobenius characteristic in the h- and s-bases from the generated orbit
representatives, and checks that restriction to the smaller symmetric
group gives the parking-function module.

Run:  python3 demos/characters_and_frobenius.py
"""

from breakpark import (
    KnmParams,
    break_orbit_reps,
    character_break,
    character_break_bruteforce,
    character_parking,
    enumerate_break,
    enumerate_parking,
    parking_orbit_reps,
    perm_module_h_expansion,
    restrict_character,
    sort_orbit_key,
)
from breakpark.reptheory import h_to_s

m, n = 2, 3
p = KnmParams(m, n)

chi = character_break(m, n)
print("character of the break module (closed vs brute force):")
for lam, value in chi.items():
    brute = character_break_bruteforce(m, n, lam)
    print(f"  cycle type {lam}: {value} / {brute}")

# One representative per S_n-orbit, generated directly: the weakly
# decreasing vectors dominated by delta.  They are the orbit keys of the
# full set.
orbit_reps = break_orbit_reps(p)
print("break orbit representatives:", orbit_reps)
assert orbit_reps == sorted({sort_orbit_key(d) for d in enumerate_break(p)})
h = perm_module_h_expansion(orbit_reps)
print("Frob(Break) in h:", h)
print("Frob(Break) in s:", h_to_s(h, n))

park_reps = parking_orbit_reps(p)
assert park_reps == sorted({sort_orbit_key(a) for a in enumerate_parking(p)})
hp = perm_module_h_expansion(park_reps)
print("Frob(Park) in h:", hp)
print("Frob(Park) in s:", h_to_s(hp, n - 1))

print(
    "restriction equals parking module:",
    restrict_character(chi) == character_parking(m, n),
)
