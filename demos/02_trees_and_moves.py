"""Tree encodings: search trees, cyclic search trees, and tree moves.

Every maximal tubing is encoded by a rooted tree whose principal down-sets
are the tubes. Path tubings give binary search trees; cycle tubings give
trees whose root has one child and whose remaining shape is a search tree
in the rotated vertex order. Rotating a tree edge is exactly a flip.

Run:  python3 demos/02_trees_and_moves.py
"""

import tubelat as tl
from tubelat import gtree as gt

c5 = tl.make_graph("cycle", 5)
tree = gt.GTree.of(5, 3, {5: 3, 4: 5, 2: 5, 1: 2})
t = tl.tubing_of(c5, tree)

print("=== A cyclic search tree on 5 vertices ===")
print("  root:", tree.root)
print("  parents:", {v: tree.parent[v] for v in range(1, 6) if v != tree.root})
print("  its tubing:", t.tubes())
print("  valid cyclic search tree?", tl.validate(tree, "cycle-cbt"))

print()
print("=== All four tree moves ===")
for v in (5, 4, 2, 1):
    moved = tl.tree_move(tree, v, "cycle-cbt")
    t2 = tl.tubing_of(c5, moved)
    direction = "up" if tl.covers(t, t2) else "down"
    print(f"  move at {v}: new root {moved.root}, goes {direction}")

print()
print("=== Pair statistics ===")
stats = tl.pair_statistics(tree)
print("  inversions:  ", sorted(stats.inv))
print("  descents:    ", sorted(stats.desc))
print("  incomparable:", sorted(stats.inc))

print()
print("=== Zippers of a path tree ===")
p7 = tl.make_graph("path", 7)
x = tl.enumerate_maximal_tubings(p7)[100]
gx = tl.gtree_of(x)
left, right = tl.zippers(gx)
print("  tubing:", x.tubes())
print("  root:", gx.root, " left zipper:", left, " right zipper:", right)

print()
print("=== DOT export ===")
print(gt.gtree_to_dot(tree))
