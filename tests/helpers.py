"""Shared test utilities: independent brute-force oracles and cached posets.

The oracles here deliberately avoid the production code paths they check:
flip replacements are found by exhaustive search over all tubes, maximality
by literal extension search, order relations by breadth-first closure of
the cover predicate evaluated on every ordered pair, and the Moebius
function by the zeta recursion. The order, quotient, selfdual and pairs
verify suites prove their statements from rows and covers; the loops over
all pairs that they replaced stay here as their oracles. So do the join
pass over all pairs that the lattice suite replaced by its certificates
through the cut congruence, with the lift tables it read, and the meet
pass it replaced by its reversal certificate, and the pair scan that
built the forcing relations before they were read off their closed forms,
and the scan of all pairs of arrows that checked their transitivity. The
flip pass that scanned each tube's parent among the sorted masks and kept
three sets of codes is the reference for the rotation kernel.
"""

import itertools
import json
from functools import lru_cache
from pathlib import Path

from hypothesis import strategies as st

import tubelat as tl
from tubelat import cli
from tubelat import cycle_lattice as cl
from tubelat import graph_core as gc
from tubelat import gtree as gt
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


def reference_flips(t):
    """gc._flips by the parent scan it replaced: each tube's parent Y is the
    first later tube of the size-sorted masks holding it, its top what its
    children leave uncovered, and its replacement Y minus x plus the
    children of x that touch top(Y); in the order of the tubes x."""
    masks = t.tube_masks
    last = len(masks) - 1  # masks[last] is the full tube
    parent = []
    below = [0] * (last + 1)
    for i in range(last):
        x = masks[i]
        j = i + 1
        while masks[j] & x != x:
            j += 1
        parent.append(j)
        below[j] |= x
    tops = [(m & ~b).bit_length() for m, b in zip(masks, below)]
    adj = t.graph.adj
    reps = [masks[j] & ~x for j, x in zip(parent, masks)]
    for c, i in zip(masks, parent):  # c is a child of masks[i]
        if i != last and c & adj[tops[parent[i]]]:
            reps[i] |= c
    return [(masks[i], reps[i], tops[i], tops[parent[i]]) for i in range(last)]


def reference_flip_graph(g, covers=False, max_elements=None):
    """gc._flip_graph as it was before the rotation kernel: reference_flips
    for every tubing, its code summed afresh, and three sets of codes, one
    per layer, for deduplication."""
    seed = tl.minimum_tubing(g)
    bit = {m: 1 << i for i, m in enumerate(seed.tube_masks)}
    out, at, ups = [], {}, []
    older, codes = set(), {sum(bit.values())}
    layer = [seed]
    while layer:
        if max_elements is not None and len(out) + len(layer) > max_elements:
            raise ValueError(f"more than {max_elements} tubings, over the cap")
        layer.sort(key=tl.Tubing.key)
        out.extend(layer)
        nxt, new_codes = [], set()
        for t in layer:
            code = sum([bit[m] for m in t.tube_masks])
            flips = reference_flips(t)
            for x, rep, _, _ in flips:
                rep_bit = bit.setdefault(rep, 1 << len(bit))
                c = code ^ bit[x] ^ rep_bit
                if c in new_codes or c in codes or c in older:
                    continue
                new_codes.add(c)
                nxt.append(gc._swap(t, x, rep))
            if covers:
                at[code] = len(at)
                ups.append([code ^ bit[x] ^ bit[rep]
                            for x, rep, top_x, top_y in flips if top_x < top_y])
        older, codes, layer = codes, new_codes, nxt
    return tuple(out), [[at[c] for c in u] for u in ups] if covers else None


def reference_transitivity_witness(rel):
    """cli._transitivity_witness by the scan of every pair of arrows that it
    replaced."""
    return next(((a, b, d) for a, b in rel for c, d in rel
                 if b == c and a != d and (a, d) not in rel), None)


def reference_forcing_system(n):
    """la.forcing_system by a scan of every pair of grid points: onto on one
    chain, into on equal c_perm with (i+k, k) rising, and to through every
    onto middle and every into end."""
    universe = [la.JiIndex(i, k) for i in range(1, n) for k in range(1, n)]
    onto = set()
    into = set()
    for x in universe:
        for y in universe:
            if x == y:
                continue
            if x.i == y.i and y.k < x.k:
                onto.add((x, y))
            if (la.c_perm(n, *x) == la.c_perm(n, *y)
                    and (x.i + x.k, x.k) < (y.i + y.k, y.k)):
                into.add((x, y))
    to = set()
    for x in universe:
        mids = [x] + [y for y in universe if (x, y) in onto]
        for y in mids:
            for z in universe:
                if z != x and (y == z or (y, z) in into):
                    to.add((x, z))
    forces = into | {(y, x) for (x, y) in onto}
    return la.ForcingSystem(n, frozenset(onto), frozenset(into),
                            frozenset(to), frozenset(forces))


def orthogonal_pair(fs, members):
    """The pair (closure of members, its orthogonal complement)."""
    universe = fs.universe
    closed, perp = la._orthogonal_closure(fs)(
        sum(1 << b for b, x in enumerate(universe) if x in members))
    left = frozenset(universe[b] for b in la._bits(closed))
    right = frozenset(universe[b] for b in la._bits(perp))
    return left, right


def reference_orthogonal_closure(fs):
    """la._orthogonal_closure by a sum over the whole universe per call:
    perp holds the y with no arrow from X, the closed set the y with no
    arrow into perp, each element counting as an arrow to itself."""
    size = len(fs.universe)
    pos = {x: b for b, x in enumerate(fs.universe)}
    fwd = [1 << b for b in range(size)]
    bwd = list(fwd)
    for a, b in fs.arrows_to:
        fwd[pos[a]] |= 1 << pos[b]
        bwd[pos[b]] |= 1 << pos[a]

    def closure(xmask):
        perp = sum(1 << y for y in range(size) if bwd[y] & xmask == 0)
        closed = sum(1 << y for y in range(size) if fwd[y] & perp == 0)
        return closed, perp

    return closure


def reference_join_brackets(r1, r2):
    """cl._join_brackets by the loop that keeps the running end with max at
    every step and visits v = n too."""
    r = [max(a, b) for a, b in zip(r1, r2)]
    for v in range(len(r) - 1, 0, -1):
        end, w = v + r[v], v + 1
        while w <= end:
            end = max(end, w + r[w])
            w += r[w] + 1
        r[v] = end - v
    return r


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
        for t2, old_top, new_top in gc.iter_flip_neighbors(t):
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


def reference_gtree_of(t):
    """The tree of t: each parent tops the smallest tube properly holding
    the child's tube, found by a scan of every tube per vertex."""
    g = t.graph
    parent = [0] * (g.n + 1)
    root = reference_top(t, g.full_mask)
    for v in range(1, g.n + 1):
        if v == root:
            continue
        dv = t.down(v)
        enclosing = next(m for m in t.tube_masks if m != dv and m & dv == dv)
        parent[v] = reference_top(t, enclosing)
    return tl.GTree(g.n, root, tuple(parent))


def reference_validate(g, kind):
    """gt.validate by a scan of every child's subtree, vertex by vertex,
    against the position of its parent: O(n^2) per tree."""
    if kind == gt.PATH_BST:
        pos, skip = (lambda v: v), None
    else:
        if g.n < 3 or len(g.children[g.root]) != 1:
            return False
        pos, skip = (lambda v: (v - g.root - 1) % g.n), g.root
    for v in range(1, g.n + 1):
        if v == skip:
            continue
        lefts = rights = 0
        for c in g.children[v]:
            side = pos(c) < pos(v)
            if side:
                lefts += 1
            else:
                rights += 1
            for u in gc.vertices_of(g.down_masks[c]):
                if (pos(u) < pos(v)) != side:
                    return False
        if lefts > 1 or rights > 1:
            return False
    return True


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
    elems = tubings(kind, n)
    size = len(elems)
    succ = [[] for _ in range(size)]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            if i != j and tl.covers(a, b):
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


# --- the verify suites' statements, checked on all pairs ---------------------

def order_pair_failure(p):
    """verify_order's pair half on every ordered pair of the cycle poset p:
    a <= b exactly when inv(a) misses coinv(b). The first pair that breaks
    it, as the suite names it, or None."""
    masks = [gt.inversion_masks(t) for t in p.objects]
    for a, (inv, _) in enumerate(masks):
        for b, (_, coinv) in enumerate(masks):
            want, got = p.leq(a, b), inv & coinv == 0
            if want != got:
                return {"pair": [p.keys[a], p.keys[b]], "closure": want,
                        "inversion_test": got}
    return None


def quotient_pair_failure(p):
    """cut(a v b) == cut(a) v cut(b) and cut(a ^ b) == cut(a) ^ cut(b) on
    every unordered pair of the cycle lattice p, the cuts compared by
    bracket vectors and the lattice's joins and meets read from its
    coordinates. The first op and pair that fail, or None."""
    at, up = p.coords.at, p.coords.masks
    dat, down = p.dual.coords.at, p.dual.coords.masks
    R = [bytes(cl._right_sizes(cl.cut(t))) for t in p.objects]
    for x, y, pairs in fiber_pairs(R):
        rj, rm = bytes(cl._join_brackets(x, y)), bytes(map(min, x, y))
        for a, b in pairs:
            if R[at[up[a] & up[b]]] != rj:
                return {"op": "join", "pair": [p.keys[a], p.keys[b]]}
            if R[dat[down[a] & down[b]]] != rm:
                return {"op": "meet", "pair": [p.keys[a], p.keys[b]]}
    return None


def fiber_pairs(R):
    """Group the elements by their cut's bracket vector R[a], so into the
    fibers of cut, and yield (x, y, pairs) for every unordered pair of
    fibers: their cuts' vectors and their element pairs, X x Y or, within one
    fiber, a <= b. Every unordered pair of elements comes once."""
    fibers = {}
    for a, r in enumerate(R):
        fibers.setdefault(r, []).append(a)
    groups = list(fibers.items())
    for i, (x, X) in enumerate(groups):
        yield x, x, itertools.combinations_with_replacement(X, 2)
        for y, Y in groups[i + 1:]:
            yield x, y, itertools.product(X, Y)


def positions(w, m: int) -> bytes:
    """The crossing-count coordinates of a word w over a base of root m: the
    positions of its left letters (those below m), in chain order, which
    cl._merge picks by."""
    return bytes(i for i, v in enumerate(w) if v < m)


def decode(r: bytes, pos) -> tl.Tubing:
    """The cycle tubing whose cut has bracket vector r and whose word over it
    has its left letters at the positions pos."""
    x = cl._path_tubing(graph("path", len(r) - 1), r)
    left, right = gt._zipper_chains(x)
    word = list(right)
    for i, a in zip(pos, left):  # as in cl._merge
        word.insert(i, a)
    return cl.sew(x, cl.ShuffleWord(x, tuple(word)))


def lifts(e: tuple) -> dict:
    """The lifts of the encoded tubing e over every path tubing y above its
    cut: {y's bracket vector: positions of the lifted word over y}.

    Tamari covers are single rotations, so one depth-first search over the
    up-rotations from the cut reaches every such y, each new one for a list
    copy and one cl._rotate_up; it reaches y by its own chain, which the
    tests compare with cl._lift's.
    """
    todo, out = [(list(e[2]), list(e[1]), list(e[3]))], {}
    out[e[1]] = positions(e[3], cl._root(e[1]))
    while todo:
        parent, r, word = todo.pop()
        for u in range(1, len(r)):
            v = parent[u]
            if u > v:  # not a left edge (or u is the root)
                continue
            old, r[u] = r[u], r[u] + 1 + r[v]  # the bracket vector above
            y = bytes(r)
            r[u] = old
            if y not in out:
                up = (parent[:], r[:], word[:])
                cl._rotate_up(*up, u)
                out[y] = positions(up[2], cl._root(y))
                todo.append(up)
    return out


def join_pair_failure(es, coords):
    """The first pair (a, b, z, r, pos) of the encodings es whose join by
    lifts differs from z, the oracle's join, found by phi(a) & phi(b) in
    coords: r joins the cuts, pos is the max of the two lifts' positions
    over r, or None when r fails to lie above both cuts and so a lift is
    missing. A pair compares (bracket vector, positions), which determine a
    cycle tubing, with those of z."""
    table = [lifts(e) for e in es]
    key = [(e[1], positions(e[3], cl._root(e[1]))) for e in es]
    at, masks = coords.at, coords.masks
    for x, y, pairs in fiber_pairs([e[1] for e in es]):
        r = bytes(cl._join_brackets(x, y))
        for a, b in pairs:
            pa, pb = table[a].get(r), table[b].get(r)
            pos = None if pa is None or pb is None else bytes(map(max, pa, pb))
            z = at[masks[a] & masks[b]]
            if (r, pos) != key[z]:
                return a, b, z, r, pos
    return None


def lattice_join_failure(p):
    """The join pass verify_lattice ran before its certificates: the join by
    lift tables of every unordered pair of the cycle lattice p, checked
    against the oracle's join by its coordinates. The first failing pair,
    as that pass named it, or None."""
    bad = join_pair_failure([cl._encode(t) for t in p.objects], p.coords)
    if bad is None:
        return None
    a, b, z, r, pos = bad
    found = ({"unlifted": list(r)} if pos is None
             else {"constructive": decode(r, pos).key()})
    return {"op": "join", "pair": [p.keys[a], p.keys[b]],
            "oracle": p.keys[z], **found}


def lattice_meet_failure(p):
    """The meet pass verify_lattice ran before its reversal certificate:
    the constructive join of the reversals of every unordered pair of the
    cycle lattice p, checked against the oracle's meet by the dual's
    coordinates. The first failing pair, as that pass named it, or None."""
    bad = join_pair_failure([cl._encode(gc.relabel_reverse(t))
                             for t in p.objects], p.dual.coords)
    if bad is None:
        return None
    a, b, z, r, pos = bad
    witness = {"op": "meet", "pair": [p.keys[a], p.keys[b]],
               "oracle": p.keys[z]}
    if pos is None:
        witness["unlifted"] = list(r)
    else:
        witness["constructive"] = gc.relabel_reverse(decode(r, pos)).key()
    return witness


def selfdual_pair_failure(p):
    """Reversal reverses the order of the cycle poset p on every ordered
    pair: a <= b exactly when rev(b) <= rev(a). The first pair that breaks
    it, as the suite names it, or None."""
    index = {t.tube_masks: i for i, t in enumerate(p.objects)}
    rev = [index[gc.relabel_reverse(t).tube_masks] for t in p.objects]
    for a in range(len(p)):
        for b in range(len(p)):
            if p.leq(a, b) != p.leq(rev[b], rev[a]):
                return {"order_not_reversed": [p.keys[a], p.keys[b]]}
    return None


def pairs_order_failure(n):
    """The cycle lattice at n and the pairs lattice ordered alike on every
    ordered pair, an element sent to the pair of the join irreducibles
    below it. The first pair that breaks it, or None."""
    p, pl = cli._poset("cycle", n), la.pairs_lattice(n)
    index = {t.tube_masks: i for i, t in enumerate(p.objects)}
    grid = {la.JiIndex(i, k): index[tl.tubing_of(
        graph("cycle", n), la.canonical_ji(n, i, k)).tube_masks]
        for i in range(1, n) for k in range(1, n)}
    by_set = {s: z for z, s in enumerate(pl.objects)}
    image = [by_set[frozenset(ji for ji, j in grid.items() if p.leq(j, a))]
             for a in range(len(p))]
    for a in range(len(p)):
        for b in range(len(p)):
            if p.leq(a, b) != pl.leq(image[a], image[b]):
                return {"order_mismatch": [p.keys[a], p.keys[b]]}
    return None
