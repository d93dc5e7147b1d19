"""Cut and sew: moving between cycle tubings and path tubings.

Cutting snips the edge between vertices 1 and n, splitting every tube that
crosses it; the result is a path tubing. The cycle tubings that cut to a
given path tubing are parametrized by the in-order shuffles of its two
zippers, and sewing along such a shuffle word reverses the cut.

Run:  python3 demos/03_cut_and_sew.py
"""

import tubelat as tl
from tubelat import cycle_lattice as cl

c9 = tl.make_graph("cycle", 9)
j = tl.Tubing.of(c9, [(2,), (4,), (6,), (8,), (8, 9), (1, 2, 8, 9),
                      (1, 2, 3, 4, 8, 9), (1, 2, 3, 4, 6, 7, 8, 9),
                      tuple(range(1, 10))])

print("=== A tubing of the 9-cycle ===")
print("  tubes:", j.tubes())
tree = tl.gtree_of(j)
print("  tree root:", tree.root)

print()
print("=== Its cut image on the path ===")
x = cl.cut(j)
print("  tubes:", x.tubes())
left, right = tl.zippers(tl.gtree_of(x))
print("  left zipper:", left, "  right zipper:", right)

print()
print("=== The fiber over the cut image ===")
for w in cl.fiber_words(x):
    back = cl.sew(x, w)
    marker = "  <- the original" if back == j else ""
    print(f"  word {w.serialize()}: cut(sew) == base? "
          f"{cl.cut(back) == x}{marker}")

print()
print("=== The shuffle word of the original ===")
print("  word_of(j) =", cl.word_of(j).serialize())
print("  sew along it:", cl.sew(x, cl.word_of(j)) == j)

print()
print("=== Fiber sizes across a whole path poset ===")
import math
p6 = tl.make_graph("path", 6)
total = 0
for base in tl.enumerate_maximal_tubings(p6):
    total += len(cl.fiber_words(base))
print("  sum of fiber sizes over the path on 6 vertices:", total)
print("  number of tubings of the 6-cycle:            ", math.comb(10, 5))
