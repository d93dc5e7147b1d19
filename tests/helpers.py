"""Shared test utilities: independent brute-force oracles and cached posets.

The oracles here deliberately avoid the production code paths they check:
flip replacements are found by exhaustive search over all tubes, maximality
by literal extension search, order relations by breadth-first closure of
the cover predicate evaluated on every ordered pair, and the Moebius
function by the zeta recursion.
"""

import itertools
import json
from functools import lru_cache
from pathlib import Path

from hypothesis import strategies as st

import tubelat as tl
from tubelat import graph_core as gc
from tubelat import lattice_analysis as la

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str):
    with open(FIXTURES / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def graph(kind: str, n: int):
    return tl.make_graph(kind, n)


@lru_cache(maxsize=None)
def tubings(kind: str, n: int):
    return tl.enumerate_maximal_tubings(graph(kind, n))


@lru_cache(maxsize=None)
def poset(kind: str, n: int) -> la.FinitePoset:
    return la.build_poset(graph(kind, n))


def poset_from_leq(keys, up_masks, objects=()):
    """The poset whose up-set masks are up_masks: the covers of i are the
    j strictly above it with no z strictly between."""
    n = len(keys)
    covers = []
    for i in range(n):
        strict = up_masks[i] & ~(1 << i)
        ups = [j for j in la._bits(strict)
               if all(z == j or not (up_masks[z] & (1 << j))
                      for z in la._bits(strict))]
        covers.append(tuple(sorted(ups)))
    return la.FinitePoset.from_covers(keys, covers, objects)


def diamond():
    # M3: minimum, three middle atoms, maximum
    return la.FinitePoset.from_covers(
        ["0", "a", "b", "c", "1"], [(1, 2, 3), (4,), (4,), (4,), ()])


def oracle_flip_replacements(g, t, xmask):
    """Every tube y != x making (t minus x) plus y a maximal tubing."""
    out = []
    rest = [m for m in t.tube_masks if m != xmask]
    for y in gc.all_tubes(g):
        if y != xmask and tl.is_maximal_tubing(g, rest + [y]):
            out.append(y)
    return out


def oracle_enumeration(g):
    """Breadth-first search from minimum_tubing over oracle flips.

    Each layer is sorted by the json.dumps form of its tube lists, which
    Tubing.key() must reproduce byte for byte.
    """
    def key(t):
        return json.dumps([list(v) for v in t.tubes()], separators=(",", ":"))

    seed = tl.minimum_tubing(g)
    seen = {seed.tube_masks}
    out, layer = [], [seed]
    while layer:
        layer.sort(key=key)
        out.extend(layer)
        nxt = []
        for t in layer:
            for x in t.tube_masks:
                rest = [m for m in t.tube_masks if m != x]
                for y in oracle_flip_replacements(g, t, x):
                    t2 = tl.Tubing.of(g, rest + [y])
                    if t2.tube_masks not in seen:
                        seen.add(t2.tube_masks)
                        nxt.append(t2)
        layer = nxt
    return out


def connected_graphs(n: int):
    """Every connected labeled simple graph on 1..n."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for r in range(n - 1, len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            try:
                yield tl.custom_graph(n, edges)
            except ValueError:  # disconnected
                pass


def orthogonal_pair(fs, members):
    """The pair (closure of members, its orthogonal complement)."""
    universe = fs.universe
    closed, perp = la._orthogonal_closure(fs)(
        sum(1 << b for b, x in enumerate(universe) if x in members))
    left = frozenset(universe[b] for b in la._bits(closed))
    right = frozenset(universe[b] for b in la._bits(perp))
    return left, right


def oracle_mobius(p):
    """The Moebius matrix by the zeta recursion, on any finite poset.

    mu(a, a) = 1 and mu(a, b) = -sum of mu(a, z) over a <= z < b; each row
    fills b in order of down-set size, so the interval below b comes first.
    """
    n = len(p)
    size = [d.bit_count() for d in p.down]
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        row = rows[a]
        row[a] = 1
        above = [b for b in range(n) if b != a and p.leq(a, b)]
        for b in sorted(above, key=size.__getitem__):
            interval = p.up[a] & p.down[b] & ~(1 << b)
            row[b] = -sum(row[z] for z in range(n) if interval >> z & 1)
    return tuple(tuple(r) for r in rows)


def reference_graphs():
    """The graphs the fast tube reads are held to their references on: path
    n <= 8, cycle n <= 7, complete n <= 5, the star on five vertices
    centred at 1, which reversal does not preserve, and a five-vertex
    custom graph that it does."""
    return ([graph("path", n) for n in range(1, 9)]
            + [graph("cycle", n) for n in range(3, 8)]
            + [graph("complete", n) for n in range(1, 6)]
            + [tl.custom_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)]),
               tl.custom_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3),
                                   (3, 5)])])


def reference_build_poset(g):
    """The tubing poset by a second flip pass over the enumeration: a
    neighbour Tubing per flip, found by its masks, oriented by top labels."""
    elems = tl.enumerate_maximal_tubings(g)
    index = {t.tube_masks: i for i, t in enumerate(elems)}
    covers_up = [set() for _ in elems]
    for i, t in enumerate(elems):
        for t2, old_top, new_top in gc.iter_flip_neighbors(g, t):
            j = index[t2.tube_masks]
            if old_top < new_top:
                covers_up[i].add(j)
            else:
                covers_up[j].add(i)
    return la.FinitePoset.from_covers([t.key() for t in elems], covers_up,
                                      elems)


def reference_top(t, m):
    """The top of tube m of t: the one vertex of m in no smaller tube of t."""
    inner = 0
    for other in t.tube_masks:
        if other != m and other & m == other:
            inner |= other
    rest = m & ~inner
    assert rest.bit_count() == 1, "tube has no unique least-nested vertex"
    return rest.bit_length()


def reference_down_masks(t):
    """down_masks by a scan of the size-sorted tubes for each vertex: its
    smallest tube is the first that holds it."""
    down = [0] * (t.n + 1)
    for v in range(1, t.n + 1):
        down[v] = next((m for m in t.tube_masks if m >> (v - 1) & 1), 0)
    return tuple(down)


def reference_gtree_of(g, t):
    """The tree of t: each parent tops the smallest tube properly holding
    the child's tube, found by a scan of every tube per vertex."""
    parent = [0] * (g.n + 1)
    root = reference_top(t, g.full_mask)
    for v in range(1, g.n + 1):
        if v == root:
            continue
        dv = t.down(v)
        enclosing = next(m for m in t.tube_masks if m != dv and m & dv == dv)
        parent[v] = reference_top(t, enclosing)
    return tl.GTree(g.n, root, tuple(parent))


def reference_relabel_reverse(t):
    """The reversal v -> n+1-v, vertex by vertex, after checking the edges."""
    g, n = t.graph, t.graph.n
    flipped = {tuple(sorted((n + 1 - u, n + 1 - v))) for u, v in g.edges}
    if flipped != g.edges:
        raise ValueError("graph is not preserved by the reversal relabelling")
    return tl.Tubing.of(g, [[n + 1 - v for v in gc.vertices_of(m)]
                            for m in t.tube_masks])


def oracle_is_maximal(g, masks):
    """Literal maximality: pairwise compatible and no tube can be added."""
    masks = list(masks)
    if len(set(masks)) != len(masks):
        return False
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if not gc.compatible(g, masks[i], masks[j]):
                return False
    for y in gc.all_tubes(g):
        if y not in masks and all(gc.compatible(g, y, m) for m in masks):
            return False
    return True


@lru_cache(maxsize=None)
def closure_order(kind: str, n: int):
    """Reachability of the cover relation, built from the covers predicate.

    Returns (elements, up) with up[i] a bit mask over element indices.
    """
    g = graph(kind, n)
    elems = tubings(kind, n)
    size = len(elems)
    succ = [[] for _ in range(size)]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            if i != j and tl.covers(g, a, b):
                succ[i].append(j)
    up = [1 << i for i in range(size)]
    changed = True
    while changed:
        changed = False
        for i in range(size):
            m = up[i]
            for j in succ[i]:
                m |= up[j]
            if m != up[i]:
                up[i] = m
                changed = True
    return elems, up


def closure_leq(kind: str, n: int):
    elems, up = closure_order(kind, n)
    index = {t.tube_masks: i for i, t in enumerate(elems)}

    def leq(a, b):
        return bool(up[index[a.tube_masks]] & (1 << index[b.tube_masks]))

    return elems, leq


def search_tree_tubing(kind: str, n: int, choose):
    """The tubing of a search tree whose shape is picked by choose(lo, hi).

    choose returns an integer in lo..hi; it picks the root of every
    interval in turn. A path tree is a search tree on 1 < ... < n; a cycle
    tree is a root m = choose(1, n) above a search tree on the rotated
    order m+1 < ... < n < 1 < ... < m-1.
    """
    if kind == "cycle":
        top = choose(1, n)
        order = [(top + i) % n + 1 for i in range(n - 1)]
    else:
        top, order = 0, list(range(1, n + 1))
    parent = {}
    stack = [(0, len(order) - 1, top)]
    while stack:
        lo, hi, p = stack.pop()
        if lo <= hi:
            i = choose(lo, hi)
            parent[order[i]] = p
            stack += [(lo, i - 1, order[i]), (i + 1, hi, order[i])]
    root = top or next(v for v, p in parent.items() if p == 0)
    parent.pop(root, None)
    return tl.tubing_of(graph(kind, n), tl.GTree.of(n, root, parent))


@st.composite
def search_tree_tubings(draw, kind: str, n: int):
    """Hypothesis strategy over the tubings of search_tree_tubing."""
    return search_tree_tubing(kind, n, lambda lo, hi: draw(st.integers(lo, hi)))
