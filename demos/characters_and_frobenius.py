"""Symmetric-group structure of the break-divisor module.

Computes the character of the permutation action on break divisors by
closed formula and by brute-force fixed-point counting, then reads the
Frobenius characteristics of Break and Park in the h- and s-bases, and
the check that restriction to the smaller symmetric group gives the
parking-function module, from one `knm_modules` call.  Its h-expansions
come from counting the orbits by multiplicity partition, with no orbit
listed; the demo prints them beside those of the listed orbits.

Run:  python3 demos/characters_and_frobenius.py
"""

from breakpark import (
    KnmParams,
    break_orbit_reps,
    break_orbit_types,
    character_break_bruteforce,
    character_parking,
    enumerate_break,
    enumerate_parking,
    knm_modules,
    parking_orbit_reps,
    parking_orbit_types,
    perm_module_h_expansion,
    restrict_character,
    sort_orbit_key,
)

m, n = 2, 3
p = KnmParams(m, n)

# Both modules, built from one representative per orbit, with the closed
# character and the restriction verdict; no full set is enumerated.
modules = knm_modules(p)
print("character of the break module (closed vs brute force):")
brute = character_break_bruteforce(m, n)
for lam, value in modules.closed.items():
    print(f"  cycle type {lam}: {value} / {brute[lam]}")

# The orbit representatives are the weakly decreasing vectors dominated
# by delta: the orbit keys of the full set.
orbit_reps = break_orbit_reps(p)
print("break orbit representatives:", orbit_reps)
assert orbit_reps == sorted({sort_orbit_key(d) for d in enumerate_break(p)})

# The h-expansion counts the orbits by the multiplicities of their
# values.  A DP over the values counts them for Break, and a closed
# formula for Park, without listing an orbit; each agrees with the count
# over the listed representatives.
print("Break orbits by type, counted:", break_orbit_types(p))
print("Break orbits by type, listed: ", perm_module_h_expansion(orbit_reps))
print("Frob(Break) in h:", modules.breaks.h)
print("Frob(Break) in s:", modules.breaks.s)

park_reps = parking_orbit_reps(p)
assert park_reps == sorted({sort_orbit_key(a) for a in enumerate_parking(p)})
print("Park orbits by type, counted:", parking_orbit_types(p))
print("Park orbits by type, listed: ", perm_module_h_expansion(park_reps))
print("Frob(Park) in h:", modules.parks.h)
print("Frob(Park) in s:", modules.parks.s)

print("restriction equals parking module (Res = Park):", modules.restricts)
# the same verdict against the per-tuple scan of the parking functions
assert restrict_character(modules.closed) == character_parking(m, n)
