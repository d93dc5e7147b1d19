"""A first tour: tubes, maximal tubings, and flips.

A tube of a graph is a set of vertices inducing a connected subgraph; a
maximal tubing is a largest possible family of pairwise compatible tubes.
On a connected graph with n vertices every maximal tubing has exactly n
tubes, one per vertex, nested like matryoshka dolls along a rooted tree.

Run:  python3 demos/01_tubings_and_flips.py
"""

import tubelat as tl

print("=== Maximal tubings of the path on 3 vertices ===")
p3 = tl.make_graph("path", 3)
for t in tl.enumerate_maximal_tubings(p3):
    print(" ", t.tubes())

print()
print("=== Compatibility ===")
print("  {1} and {3} compatible on the path?", tl.compatible(p3, {1}, {3}))
print("  {2} and {3} compatible on the path?", tl.compatible(p3, {2}, {3}),
      " (their union {2,3} is itself a tube)")

print()
print("=== Flips on the 4-cycle ===")
c4 = tl.make_graph("cycle", 4)
t = tl.minimum_tubing(c4)
print("  start:", t.tubes())
t2, replacement = tl.flip(t, {1, 2, 3})
print("  flip the tube (1,2,3); the unique replacement is", replacement)
print("  result:", t2.tubes())
print("  does the result cover the start?", tl.covers(t, t2))

print()
print("=== The flip graph is regular ===")
from tubelat.graph_core import iter_flip_neighbors
degrees = {len({n.tube_masks for n, _, _ in iter_flip_neighbors(t)})
           for t in tl.enumerate_maximal_tubings(c4)}
print("  every one of the 20 tubings of the 4-cycle has degree", degrees)

print()
print("=== Counting ===")
for n in range(3, 8):
    cn = tl.make_graph("cycle", n)
    print(f"  cycle on {n} vertices: {len(tl.enumerate_maximal_tubings(cn))}"
          f" maximal tubings")
