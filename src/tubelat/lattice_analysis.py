"""Finite poset oracle and the structural theory of the cycle tubing lattice.

The FinitePoset type is a brute-force oracle: it stores an explicit element
list with cover relations and a reachability matrix, and computes joins,
meets, and the Moebius function directly from the definitions. The
remaining functions build the structural apparatus of the cycle lattice:
the grid of join irreducibles j(i, k), the kappa map onto meet
irreducibles, the onto/into/forcing relations on join irreducibles, the
semidistributivity and congruence-uniformity checks, and the
reconstruction of the lattice from maximal orthogonal pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .graph_core import (CYCLE, Graph, Tubing, _bit,
                         enumerate_maximal_tubings, iter_flip_neighbors,
                         make_graph)
from .gtree import GTree


class JiIndex(NamedTuple):
    """Grid coordinates of a join irreducible: chain index i, height k."""
    i: int
    k: int


class MiIndex(NamedTuple):
    """Grid coordinates of a meet irreducible: chain index i, height k."""
    i: int
    k: int


# --- finite poset oracle ----------------------------------------------------

@dataclass(frozen=True)
class FinitePoset:
    """An explicit finite poset: indexed elements, covers, reachability.

    up[i] and down[i] are bit masks over element indices; up[i] holds j
    exactly when element i is weakly below element j.
    """

    keys: tuple[str, ...]
    covers_up: tuple[tuple[int, ...], ...]
    covers_down: tuple[tuple[int, ...], ...]
    up: tuple[int, ...]
    down: tuple[int, ...]
    objects: tuple = ()

    @staticmethod
    def from_covers(keys, covers_up, objects=()) -> "FinitePoset":
        n = len(keys)
        covers_up = tuple(tuple(sorted(c)) for c in covers_up)
        preds: list[list[int]] = [[] for _ in range(n)]
        for i, ups in enumerate(covers_up):
            for j in ups:
                preds[j].append(i)
        up = [0] * n
        pending = [len(c) for c in covers_up]
        queue = [i for i in range(n) if pending[i] == 0]
        seen = 0
        while queue:
            i = queue.pop()
            seen += 1
            m = 1 << i
            for j in covers_up[i]:
                m |= up[j]
            up[i] = m
            for p in preds[i]:
                pending[p] -= 1
                if pending[p] == 0:
                    queue.append(p)
        if seen != n:
            raise ValueError("cover relation contains a cycle")
        down = [0] * n
        for i in range(n):
            m = up[i]
            while m:
                low = m & -m
                down[low.bit_length() - 1] |= 1 << i
                m ^= low
        return FinitePoset(tuple(keys), covers_up,
                           tuple(tuple(p) for p in preds),  # filled in order
                           tuple(up), tuple(down), tuple(objects))

    @staticmethod
    def from_leq(keys, up_masks, objects=()) -> "FinitePoset":
        n = len(keys)
        covers = []
        for i in range(n):
            strict = up_masks[i] & ~(1 << i)
            ups = [j for j in _bits(strict)
                   if all(z == j or not (up_masks[z] & (1 << j))
                          for z in _bits(strict))]
            covers.append(tuple(sorted(ups)))
        return FinitePoset.from_covers(keys, covers, objects)

    def __len__(self) -> int:
        return len(self.keys)

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] & (1 << b))

    def minimum(self) -> int:
        mins = [i for i in range(len(self)) if self.down[i] == (1 << i)]
        if len(mins) != 1:
            raise ValueError("poset has no unique minimum")
        return mins[0]

    def maximum(self) -> int:
        maxs = [i for i in range(len(self)) if self.up[i] == (1 << i)]
        if len(maxs) != 1:
            raise ValueError("poset has no unique maximum")
        return maxs[0]

    @cached_property
    def join_table(self) -> tuple[tuple[int, ...], ...]:
        """join_table[a][b] is the join index, or -1 when it does not exist."""
        n = len(self)
        table = [[-1] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                j = brute_join(self, a, b)
                v = -1 if j is None else j
                table[a][b] = table[b][a] = v
        return tuple(tuple(r) for r in table)

    @cached_property
    def dual(self) -> "FinitePoset":
        """The opposite poset: the same keys and objects, the order reversed."""
        return FinitePoset(self.keys, self.covers_down, self.covers_up,
                           self.down, self.up, self.objects)

    @cached_property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        return self.dual.join_table


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_poset(graph: Graph, max_elements: int = 10 ** 6) -> FinitePoset:
    """Enumerate the tubing poset of a connected graph, covers included."""
    elems = enumerate_maximal_tubings(graph)
    if len(elems) > max_elements:
        raise ValueError(f"poset has {len(elems)} elements, over the cap")
    index = {t.tube_masks: i for i, t in enumerate(elems)}
    covers_up: list[set[int]] = [set() for _ in elems]
    for i, t in enumerate(elems):
        for t2, old_top, new_top in iter_flip_neighbors(graph, t):
            j = index[t2.tube_masks]
            if old_top < new_top:
                covers_up[i].add(j)
            else:
                covers_up[j].add(i)
    return FinitePoset.from_covers(
        [t.key() for t in elems], [tuple(sorted(c)) for c in covers_up], elems)


def minimal_upper_bounds(p: FinitePoset, a: int, b: int) -> tuple[int, ...]:
    ub = p.up[a] & p.up[b]
    out = []
    for z in _bits(ub):
        if p.down[z] & ub == 1 << z:
            out.append(z)
    return tuple(out)


def maximal_lower_bounds(p: FinitePoset, a: int, b: int) -> tuple[int, ...]:
    lb = p.down[a] & p.down[b]
    out = []
    for z in _bits(lb):
        if p.up[z] & lb == 1 << z:
            out.append(z)
    return tuple(out)


def brute_join(p: FinitePoset, a: int, b: int) -> int | None:
    """The unique minimal upper bound, or None when it is not unique."""
    mubs = minimal_upper_bounds(p, a, b)
    return mubs[0] if len(mubs) == 1 else None


def brute_meet(p: FinitePoset, a: int, b: int) -> int | None:
    return brute_join(p.dual, a, b)


def is_lattice(p: FinitePoset) -> bool:
    return lattice_failure(p) is None


def lattice_failure(p: FinitePoset) -> dict | None:
    """A witness pair with several minimal upper or maximal lower bounds."""
    n = len(p)
    for a in range(n):
        for b in range(a + 1, n):
            mubs = minimal_upper_bounds(p, a, b)
            if len(mubs) != 1:
                return {"pair": [p.keys[a], p.keys[b]],
                        "minimal_upper_bounds": [p.keys[z] for z in mubs]}
            mlbs = maximal_lower_bounds(p, a, b)
            if len(mlbs) != 1:
                return {"pair": [p.keys[a], p.keys[b]],
                        "maximal_lower_bounds": [p.keys[z] for z in mlbs]}
    return None


def mobius(p: FinitePoset) -> tuple[tuple[int, ...], ...]:
    """The Moebius matrix, by the zeta recursion with exact integers."""
    n = len(p)
    ext = sorted(range(n), key=lambda i: p.down[i].bit_count())
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        row = rows[a]
        row[a] = 1
        for b in ext:
            if b == a or not p.leq(a, b):
                continue
            interval = p.up[a] & p.down[b] & ~(1 << b)
            row[b] = -sum(row[z] for z in _bits(interval))
    return tuple(tuple(r) for r in rows)


def join_irreducibles(p: FinitePoset) -> tuple[int, ...]:
    """Indices of elements covering exactly one element."""
    return tuple(i for i in range(len(p)) if len(p.covers_down[i]) == 1)


def meet_irreducibles(p: FinitePoset) -> tuple[int, ...]:
    """Indices of elements covered by exactly one element."""
    return tuple(i for i in range(len(p)) if len(p.covers_up[i]) == 1)


# --- canonical join and meet irreducibles of the cycle lattice ---------------

def canonical_ji(n: int, i: int, k: int) -> GTree:
    """The tree of the join irreducible with chain index i and height k.

    For k < n-i the root is n: a chain runs from n down through i+k+1 to i,
    whose right child starts the chain i+k, ..., i+1 and whose left child
    starts the chain i-1, ..., 1. For k >= n-i the root is i: a chain runs
    from i down to n-k, then n, whose left child starts the chain
    n-1, ..., i+1 and whose right child starts the chain n-k-1, ..., 1.
    Each of these trees has exactly one descent edge.
    """
    if n < 3:
        raise ValueError("join irreducibles need at least three vertices")
    if not (1 <= i <= n - 1 and 1 <= k <= n - 1):
        raise ValueError(f"indices must lie in 1..{n - 1}")
    parent: dict[int, int] = {}
    if k < n - i:
        root = n
        for v in range(i + k + 1, n):
            parent[v] = v + 1
        parent[i] = i + k + 1
        parent[i + k] = i
        for v in range(i + 1, i + k):
            parent[v] = v + 1
        for v in range(1, i):
            parent[v] = v + 1
    else:
        root = i
        for v in range(n - k, i):
            parent[v] = v + 1
        parent[n] = n - k
        if i + 1 <= n - 1:
            parent[n - 1] = n
            for v in range(i + 1, n - 1):
                parent[v] = v + 1
        if n - k - 1 >= 1:
            parent[n - k - 1] = n
            for v in range(1, n - k - 1):
                parent[v] = v + 1
    return GTree.of(n, root, parent)


def reverse_tree(g: GTree) -> GTree:
    """Relabel a tree by v -> n+1-v."""
    n = g.n
    parent = {n + 1 - v: n + 1 - g.parent[v]
              for v in range(1, n + 1) if v != g.root}
    return GTree.of(n, n + 1 - g.root, parent)


def canonical_mi(n: int, i: int, k: int) -> GTree:
    """The meet irreducible of height k on chain i: the reversal of j(i, n-k)."""
    if not (1 <= i <= n - 1 and 1 <= k <= n - 1):
        raise ValueError(f"indices must lie in 1..{n - 1}")
    return reverse_tree(canonical_ji(n, i, n - k))


def c_perm(n: int, i: int, k: int) -> int:
    """The chain-matching permutation: n-i+1-k for k <= n-i, else k itself."""
    if not (1 <= i <= n - 1 and 1 <= k <= n - 1):
        raise ValueError(f"indices must lie in 1..{n - 1}")
    return n - i + 1 - k if k <= n - i else k


def kappa(n: int, i: int, k: int) -> MiIndex:
    """Meet irreducible paired with the join irreducible (i, k).

    It is the largest element whose meet with that join irreducible is the
    unique element below it; in grid coordinates, (n+1-i-k, n-k) when
    i+k <= n and (k, n-i) otherwise. The map is a bijection.
    """
    if not (1 <= i <= n - 1 and 1 <= k <= n - 1):
        raise ValueError(f"indices must lie in 1..{n - 1}")
    if i + k <= n:
        return MiIndex(n + 1 - i - k, n - k)
    return MiIndex(k, n - i)


# --- the forcing apparatus ---------------------------------------------------

@dataclass(frozen=True)
class ForcingSystem:
    """Relations on the join irreducible grid of the cycle lattice.

    All four relations are stored without their diagonal: arrows_to and the
    two partial orders are reflexive by convention, arrows_force is kept
    strict so that acyclicity is meaningful.
    """

    n: int
    arrows_onto: frozenset[tuple[JiIndex, JiIndex]]
    arrows_into: frozenset[tuple[JiIndex, JiIndex]]
    arrows_to: frozenset[tuple[JiIndex, JiIndex]]
    arrows_force: frozenset[tuple[JiIndex, JiIndex]]

    @cached_property
    def universe(self) -> tuple[JiIndex, ...]:
        return tuple(JiIndex(i, k)
                     for i in range(1, self.n) for k in range(1, self.n))


def _forces_from_definition(universe, onto, into):
    """Direct forcing from the minimal/maximal element definition."""
    forces = set()
    for y in universe:
        into_y = [x for x in universe if x == y or (x, y) in into]
        for x in into_y:
            if x != y and not any(z != x and (x, z) in onto for z in into_y):
                forces.add((x, y))
        onto_y = [x for x in universe if x == y or (y, x) in onto]
        for x in onto_y:
            if x != y and not any(z != x and (x, z) in into for z in onto_y):
                forces.add((x, y))
    return forces


def forcing_system(n: int) -> ForcingSystem:
    """Build the onto/into/to/forcing relations on the (n-1) x (n-1) grid.

    onto: same chain, strictly smaller height. into: equal chain-matching
    value with (i+k, k) lexicographically below (s+t, t). The composite
    relation is their relational product; direct forcing is the closed
    form of its definition (_forces_from_definition): the into arrows
    together with the reversed onto arrows.
    """
    if n < 3:
        raise ValueError("the forcing system needs at least three vertices")
    universe = [JiIndex(i, k) for i in range(1, n) for k in range(1, n)]
    onto = set()
    into = set()
    for x in universe:
        for y in universe:
            if x == y:
                continue
            if x.i == y.i and y.k < x.k:
                onto.add((x, y))
            if (c_perm(n, *x) == c_perm(n, *y)
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
    return ForcingSystem(n, frozenset(onto), frozenset(into), frozenset(to),
                         frozenset(forces))


def relation_acyclic(universe, arrows) -> bool:
    """True when the arrow set has no directed cycle."""
    universe = tuple(universe)
    succ = {x: [] for x in universe}
    for a, b in arrows:
        succ[a].append(b)
    state = {x: 0 for x in universe}  # 0 fresh, 1 on stack, 2 done
    for start in universe:
        if state[start]:
            continue
        stack = [(start, iter(succ[start]))]
        state[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state[nxt] == 1:
                    return False
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                stack.pop()
    return True


def check_congruence_uniform(n: int) -> bool:
    """True when the direct forcing relation on join irreducibles is acyclic."""
    fs = forcing_system(n)
    return relation_acyclic(fs.universe, fs.arrows_force)


def semidistributivity_witness(p: FinitePoset) -> dict | None:
    """A triple violating one of the two semidistributive laws, if any."""
    if not is_lattice(p):
        raise ValueError("semidistributivity is only defined for lattices")
    join = p.join_table
    meet = p.meet_table
    n = len(p)
    for x in range(n):
        mrow = meet[x]
        jrow = join[x]
        for y in range(n):
            mxy = mrow[y]
            jxy = jrow[y]
            for z in range(n):
                if mrow[z] == mxy and mrow[join[y][z]] != mxy:
                    return {"law": "meet", "triple": [p.keys[x], p.keys[y],
                                                      p.keys[z]]}
                if jrow[z] == jxy and jrow[meet[y][z]] != jxy:
                    return {"law": "join", "triple": [p.keys[x], p.keys[y],
                                                      p.keys[z]]}
    return None


def check_semidistributive(p: FinitePoset) -> bool:
    return semidistributivity_witness(p) is None


# --- maximal orthogonal pairs -----------------------------------------------

MAX_PAIR_GENERATORS = 25  # grid size (n-1)^2 that pairs_lattice accepts


def _orthogonal_closure(fs: ForcingSystem):
    """Map a mask X over fs.universe to (closed set, orthogonal complement)."""
    size = len(fs.universe)
    pos = {x: b for b, x in enumerate(fs.universe)}
    fwd = [1 << b for b in range(size)]
    bwd = list(fwd)
    for a, b in fs.arrows_to:
        fwd[pos[a]] |= 1 << pos[b]
        bwd[pos[b]] |= 1 << pos[a]

    def closure(xmask: int) -> tuple[int, int]:
        perp = sum(1 << y for y in range(size) if bwd[y] & xmask == 0)
        closed = sum(1 << y for y in range(size) if fwd[y] & perp == 0)
        return closed, perp

    return closure


def orthogonal_pair(fs: ForcingSystem, members: frozenset[JiIndex]):
    """The pair (closure of members, its orthogonal complement)."""
    universe = fs.universe
    closed, perp = _orthogonal_closure(fs)(
        sum(1 << b for b, x in enumerate(universe) if x in members))
    left = frozenset(universe[b] for b in _bits(closed))
    right = frozenset(universe[b] for b in _bits(perp))
    return left, right


def pairs_lattice(n: int) -> FinitePoset:
    """The poset of maximal orthogonal pairs of the forcing relation.

    Pairs (X, Y) with Y the complement of X's arrow targets and X closed;
    they are ordered by containment of X. For the cycle forcing system the
    result reconstructs the tubing lattice. Closed sets are found by
    saturating under the closure operator starting from the empty set.
    """
    fs = forcing_system(n)
    universe = fs.universe
    size = len(universe)
    if size > MAX_PAIR_GENERATORS:
        raise ValueError(f"{size} generators exceed the cap of "
                         f"{MAX_PAIR_GENERATORS}")
    closure = _orthogonal_closure(fs)
    bottom, _ = closure(0)
    closed = {bottom}
    frontier = [bottom]
    while frontier:
        xmask = frontier.pop()
        for g in range(size):
            if not xmask & (1 << g):
                c, _ = closure(xmask | (1 << g))
                if c not in closed:
                    closed.add(c)
                    frontier.append(c)

    def keyof(xmask: int) -> str:
        members = sorted([x.i, x.k] for x in
                         (universe[b] for b in _bits(xmask)))
        return json.dumps(members, separators=(",", ":"))

    order = sorted(closed, key=lambda m: (m.bit_count(), keyof(m)))
    index = {m: i for i, m in enumerate(order)}
    up_masks = []
    for m in order:
        up = 0
        for other in order:
            if m & ~other == 0:
                up |= 1 << index[other]
        up_masks.append(up)
    objects = tuple(frozenset(universe[b] for b in _bits(m)) for m in order)
    return FinitePoset.from_leq([keyof(m) for m in order], up_masks, objects)


# --- exports ------------------------------------------------------------------

def hasse_dot(p: FinitePoset, labels: str = "index") -> str:
    """DOT digraph of the cover relations, drawn upward."""
    if labels not in ("index", "key"):
        raise ValueError("labels must be 'index' or 'key'")
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    for i, key in enumerate(p.keys):
        text = str(i) if labels == "index" else key.replace('"', r'\"')
        lines.append(f'  "{i}" [label="{text}"];')
    for i, ups in enumerate(p.covers_up):
        for j in ups:
            lines.append(f'  "{i}" -> "{j}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def mobius_csv(p: FinitePoset) -> str:
    """The Moebius matrix as plain CSV, row a column b holding mu(a, b)."""
    matrix = mobius(p)
    return "\n".join(",".join(str(v) for v in row) for row in matrix) + "\n"


def forcing_to_json(fs: ForcingSystem) -> str:
    def dump(rel):
        return sorted([[a.i, a.k], [b.i, b.k]] for a, b in rel)

    obj = {"n": fs.n,
           "onto": dump(fs.arrows_onto),
           "into": dump(fs.arrows_into),
           "to": dump(fs.arrows_to),
           "forces": dump(fs.arrows_force)}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
