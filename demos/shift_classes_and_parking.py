"""Shift classes of residue tuples and their canonical representatives.

Reproduces the (m, n) = (3, 5) walkthrough: a residue tuple, its five
shift translates, the circular parking simulation, and the unique break
and parking representatives of the class.

Run:  python3 demos/shift_classes_and_parking.py
"""

from breakpark import (
    KnmParams,
    break_representative,
    circular_park,
    parking_representative,
    shift_class,
)

p = KnmParams(3, 5)
x = (3, 13, 7, 13, 5)

print(f"N = {p.N}, genus = {p.genus}")
print("shift class of", x)
for member in shift_class(p, x):
    print("  ", member)

# Park cars with preferences given by the first four coordinates on a
# circle of 15 spots; blocked cars roll clockwise.
occupied = circular_park(x[:4], p.N)
print("occupied spots:", sorted(occupied))

# The cycle lemma picks out the one rotation of the counts per block of
# m spots whose prefix sums stay ahead; that rotation is the class member
# projecting to a parking function.  Counting the preferences or the
# occupied spots gives the same rotation; `parking_representative`
# counts the preferences.
print("parking representative:", parking_representative(p, x))
print("break representative:  ", break_representative(p, x))
