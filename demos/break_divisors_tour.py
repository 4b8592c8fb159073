"""A tour of break divisors on the complete multigraph K_3^2.

Run:  python3 demos/break_divisors_tour.py
"""

from breakpark import (
    KnmParams,
    complete_multigraph,
    enumerate_break,
    enumerate_break_divisors,
    is_break_divisor,
    spanning_tree_count,
)

# K_3^2: three vertices, two parallel edges between each pair.
g = complete_multigraph(2, 3)
print("spanning trees of K_3^2:", spanning_tree_count(g))

# Break divisors are effective divisors of degree = genus whose
# restriction to every induced subgraph H has degree at least g(H).
# There are exactly as many as spanning trees.
divisors = list(enumerate_break_divisors(g))
print(f"{len(divisors)} break divisors:")
for d in divisors:
    print("  ", d)

# (4,0,0) has the right degree but starves the subgraph on vertices 2,3
print("(4,0,0) is break?", is_break_divisor(g, (4, 0, 0)))

# The complete-multigraph shortcut: sorted dominance against
# delta = (m(n-1)-1, ..., m-1, 0) gives the same set, much faster.
p = KnmParams(2, 3)
print("delta:", p.delta)
assert list(enumerate_break(p)) == divisors
print("dominance route agrees with the subset-quantified definition")
