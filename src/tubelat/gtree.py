"""Rooted tree encodings of maximal tubings.

Every maximal tubing of a connected graph determines a partial order on the
vertices: x lies below y exactly when x belongs to the smallest tube
containing y. The Hasse diagram of that order is a rooted tree whose
principal down-sets are the tubes, so tubings and trees determine each
other.

For the path graph these trees are binary search trees in the usual vertex
order. For the cycle graph they are "cyclic" binary search trees: the root
m has a single child, and the subtree below it is a binary search tree with
respect to the rotated order m+1 < ... < n < 1 < ... < m-1. Rotations of
tree edges ("tree moves") realize exactly the cover relations of the tubing
poset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .graph_core import (Graph, Tubing, _bit, _check_object,
                         _check_vertex_count, _is_int, parse_json)

PATH_BST = "path-bst"
CYCLE_CBT = "cycle-cbt"


@dataclass(frozen=True)
class GTree:
    """A rooted tree on vertices 1..n, stored as a parent table.

    parent[v] is the parent of v, with parent[root] == 0; index 0 is unused.
    """

    n: int
    root: int
    parent: tuple[int, ...]

    @staticmethod
    def of(n: int, root: int, parent: dict[int, int]) -> "GTree":
        _check_vertex_count(n)  # before the parent table is allocated
        if not 1 <= root <= n:
            raise ValueError("root out of range")
        table = [0] * (n + 1)
        # a key is a vertex or, from JSON, its label as str(v) spells it:
        # " 1" or "01" names no vertex, so it cannot overwrite "1"
        labels = {str(v): v for v in range(1, n + 1)}
        for key, p in parent.items():
            v, p = labels.get(str(key), 0), int(p)
            if not (v and 1 <= p <= n) or v == root:
                raise ValueError(f"bad parent entry {key!r} -> {p}")
            table[v] = p
        for v in range(1, n + 1):
            if v != root and table[v] == 0:
                raise ValueError(f"vertex {v} has no parent")
        tree = GTree(n, root, tuple(table))
        tree._check_acyclic()
        return tree

    def _check_acyclic(self):
        for v in range(1, self.n + 1):
            seen = set()
            while v != self.root:
                if v in seen:
                    raise ValueError("parent table contains a cycle")
                seen.add(v)
                v = self.parent[v]

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in range(self.n + 1)]
        for v in range(1, self.n + 1):
            if v != self.root:
                kids[self.parent[v]].append(v)
        return tuple(tuple(sorted(k)) for k in kids)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """down_masks[v] is the bit mask of the principal down-set of v."""
        order = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(self.children[v])
        down = [0] * (self.n + 1)
        for v in reversed(order):
            m = _bit(v)
            for c in self.children[v]:
                m |= down[c]
            down[v] = m
        return tuple(down)

    def below(self, x: int, y: int) -> bool:
        """True when x lies weakly below y in the tree order."""
        return bool(self.down_masks[y] & _bit(x))


def _pair_index(i: int, j: int) -> int:
    # pairs (i, j) with i < j, packed row by row on the larger coordinate
    return (j - 1) * (j - 2) // 2 + (i - 1)


def inversion_masks(x: GTree | Tubing) -> tuple[int, int]:
    """Bit masks of the inversion and coinversion pair sets of a tree order.

    x is a tree or a tubing, read through its down_masks. Pair (i, j) with
    i < j is an inversion when j is below i, and a coinversion when i is
    below j; the remaining pairs are incomparable.
    """
    down = x.down_masks
    inv = 0
    coinv = 0
    for v in range(1, x.n + 1):
        m = down[v] & ~_bit(v)
        while m:
            low = m & -m
            u = low.bit_length()
            m ^= low
            if u < v:
                coinv |= 1 << _pair_index(u, v)
            else:
                inv |= 1 << _pair_index(v, u)
    return inv, coinv


@dataclass(frozen=True)
class PairStats:
    """The five pair statistics of a tree order on 1..n.

    inv, coinv, and inc partition the pairs (i, j) with i < j; asc and desc
    are the cover pairs (tree edges), contained in coinv and inv.
    """

    inv: frozenset[tuple[int, int]]
    coinv: frozenset[tuple[int, int]]
    inc: frozenset[tuple[int, int]]
    asc: frozenset[tuple[int, int]]
    desc: frozenset[tuple[int, int]]


def pair_statistics(g: GTree) -> PairStats:
    inv_mask, coinv_mask = inversion_masks(g)
    allpairs = [(i, j) for j in range(2, g.n + 1) for i in range(1, j)]
    # allpairs lists the pairs in _pair_index order, so bit b is allpairs[b]
    inv = {pair for b, pair in enumerate(allpairs) if inv_mask >> b & 1}
    coinv = {pair for b, pair in enumerate(allpairs) if coinv_mask >> b & 1}
    asc = set()
    desc = set()
    for v in range(1, g.n + 1):
        if v == g.root:
            continue
        p = g.parent[v]
        if v < p:
            asc.add((v, p))
        else:
            desc.add((p, v))
    return PairStats(
        inv=frozenset(inv),
        coinv=frozenset(coinv),
        inc=frozenset(set(allpairs) - inv - coinv),
        asc=frozenset(asc),
        desc=frozenset(desc),
    )


# --- conversions ------------------------------------------------------------

def gtree_of(t: Tubing) -> GTree:
    """The tree encoding of a maximal tubing: parents follow tube nesting.

    One pass over the size-sorted tubes, the roots pass of
    graph_core._flips: each tube adds one vertex u, its top, and the roots
    held so far that it contains become u's children. The top of the last
    tube, the full one, is the root. O(n) beyond the bits it reads.
    """
    parent = [0] * (t.n + 1)
    seen = roots = 0
    for m in t.tube_masks:
        top = m & ~seen
        u = top.bit_length()
        held = roots & m
        while held:
            low = held & -held
            parent[low.bit_length()] = u
            held ^= low
        roots = roots & ~m | top
        seen |= m
    return GTree(t.n, u, tuple(parent))


def tubing_of(graph: Graph, g: GTree) -> Tubing:
    """The tubing whose tubes are the principal down-sets of g.

    Raises ValueError when some down-set is not a tube of the graph.
    """
    if g.n != graph.n:
        raise ValueError("tree and graph disagree on the vertex count")
    return Tubing.of(graph, g.down_masks[1:])


# --- validation -------------------------------------------------------------

def validate(g: GTree, kind: str) -> bool:
    """Check the search-tree shape appropriate to a graph kind.

    path-bst: a binary search tree in the standard vertex order.
    cycle-cbt: the root has exactly one child and the subtree below it is a
    binary search tree in the order rotated to start just after the root.
    """
    if kind == PATH_BST:
        return _validate_ordered(g, range(1, g.n + 1))
    if kind == CYCLE_CBT:
        if g.n < 3 or len(g.children[g.root]) != 1:
            return False
        m, n = g.root, g.n
        return _validate_ordered(g, [*range(m + 1, n + 1), *range(1, m)])
    raise ValueError(f"unknown tree kind {kind!r}")


def _validate_ordered(g: GTree, order) -> bool:
    """True when every vertex v listed in order has at most one child
    before it in order and one after it, each child's whole subtree on the
    child's side. below holds the vertices before v, so a subtree is read
    against it with one mask operation, O(n) per tree."""
    down, children = g.down_masks, g.children
    below = 0
    for v in order:
        lefts = rights = 0
        for c in children[v]:
            if below >> (c - 1) & 1:
                lefts += 1
                if down[c] & ~below:
                    return False
            else:
                rights += 1
                if down[c] & below:
                    return False
        if lefts > 1 or rights > 1:
            return False
        below |= _bit(v)
    return True


# --- tree moves -------------------------------------------------------------

def tree_move(g: GTree, x: int, kind: str) -> GTree:
    """Rotate the edge between x and its parent; x must not be the root.

    For the top edge of a cycle tree (parent is the root m) the move swaps x
    with m and exchanges the two child subtrees of x. Every other edge gets
    the usual binary search tree rotation. The result encodes the tubing
    obtained by flipping the tube below x.
    """
    if x == g.root:
        raise ValueError("the root has no parent edge to move")
    if kind not in (PATH_BST, CYCLE_CBT):
        raise ValueError(f"unknown tree kind {kind!r}")
    p = g.parent[x]
    table = list(g.parent)

    if kind == CYCLE_CBT and p == g.root:
        # top edge: x becomes the root, the old root inherits x's children
        table[p] = x
        table[x] = 0
        for c in g.children[x]:
            table[c] = p
        return GTree(g.n, x, tuple(table))

    # positions in the order rotated past m: m+1 < ... < n < 1 < ... < m-1
    m = g.root if kind == CYCLE_CBT else 0
    pos = lambda v: (v - m - 1) % g.n
    table[x] = g.parent[p]
    table[p] = x
    px = pos(x)
    left = px < pos(p)  # x was a left child
    for c in g.children[x]:  # the child of x on p's side crosses over to p
        if (pos(c) > px) == left:
            table[c] = p
    root = x if p == g.root else g.root
    return GTree(g.n, root, tuple(table))


def zippers(g: GTree) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The saturated chains from 1 and from n up to the children of the root.

    Returns (left, right), listed bottom-up. The left zipper is empty when
    the root is 1, the right when the root is n. Requires a path-bst.
    """
    if not validate(g, PATH_BST):
        raise ValueError("zippers are only defined for path search trees")
    return _zipper_chains(g)


def _zipper_chains(x: GTree | Tubing) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The zippers of a path search tree or path tubing, from its down masks.

    They are the non-root vertices whose down-set holds 1 (left, rising) or
    n (right, falling), so vertex order is chain order.
    """
    down, n = x.down_masks, x.n
    full = (1 << n) - 1
    left = tuple(v for v in range(1, n + 1) if down[v] & 1 and down[v] != full)
    right = tuple(v for v in range(n, 0, -1)
                  if down[v] >> (n - 1) and down[v] != full)
    return left, right


# --- interchange ------------------------------------------------------------

def gtree_to_json(g: GTree) -> str:
    parent = {str(v): g.parent[v] for v in range(1, g.n + 1) if v != g.root}
    return json.dumps({"n": g.n, "root": g.root, "parent": parent},
                      sort_keys=True, separators=(",", ":"))


def gtree_from_json(text: str) -> GTree:
    return gtree_from_obj(parse_json(text))


def gtree_from_obj(obj: dict) -> GTree:
    _check_object(obj, "tree", "n", "root", "parent")
    n, root, parent = obj["n"], obj["root"], obj["parent"]
    if not (_is_int(n) and _is_int(root) and isinstance(parent, dict)
            and all(_is_int(v) for v in parent.values())):
        raise ValueError("tree JSON needs integer n and root and a parent "
                         "object mapping vertices to integers")
    return GTree.of(n, root, parent)


def gtree_to_dot(g: GTree) -> str:
    """DOT digraph with one edge per child-parent pair; root doubly circled."""
    lines = ["digraph gtree {", "  node [shape=circle];",
             f'  "{g.root}" [shape=doublecircle];']
    for v in range(1, g.n + 1):
        if v != g.root:
            lines.append(f'  "{v}" -> "{g.parent[v]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
