"""Finite poset oracle and the structural theory of the cycle tubing lattice.

The FinitePoset type is a brute-force oracle: it stores an explicit element
list with cover relations and a reachability matrix. Every join it answers
reads one coordinate map, FinitePoset.coords: phi(x) is the set of elements
of Q above x, where Q holds the elements that are not the meet of their
upper covers (in a lattice, the meet irreducibles). phi is an order
embedding, so z is the join of a and b exactly when phi(z) == phi(a) &
phi(b); the dual's map gives meets. On it rest the lattice test (N * |J|
lookups), the Moebius function by Rota's crosscut theorem, and
semidistributivity: a finite lattice is meet semidistributive exactly when
every join irreducible j has a kappa, the class {x : j meet x = j_*}
holding the join of its members, and join semidistributive when its dual
is meet semidistributive. The N x N join and meet tables rest on the same
map; only the tests and perfbench read them. minimal_upper_bounds,
brute_join and their duals stay as the reference definitions the tests
hold these to. The remaining functions build the
structural apparatus of the cycle lattice: the grid of join irreducibles
j(i, k), the kappa map onto meet irreducibles, the onto/into/forcing
relations on join irreducibles, the congruence-uniformity check, and the
reconstruction of the lattice from maximal orthogonal pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .graph_core import (CYCLE, Graph, _bit, _check_vertex_count,
                         _flip_graph, make_graph)
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

class Coordinates(NamedTuple):
    """FinitePoset.coords: Q in index order, phi(x) for every x, phi -> x."""
    irreducibles: tuple[int, ...]
    masks: tuple[int, ...]
    at: dict[int, int]


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
        order = []  # every element after all of its upper covers
        while queue:
            i = queue.pop()
            order.append(i)
            m = 1 << i
            for j in covers_up[i]:
                m |= up[j]
            up[i] = m
            for p in preds[i]:
                pending[p] -= 1
                if pending[p] == 0:
                    queue.append(p)
        if len(order) != n:
            raise ValueError("cover relation contains a cycle")
        down = [0] * n
        for i in reversed(order):
            m = 1 << i
            for p in preds[i]:
                m |= down[p]
            down[i] = m
        return FinitePoset(tuple(keys), covers_up,
                           tuple(tuple(p) for p in preds),  # filled in order
                           tuple(up), tuple(down), tuple(objects))

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
        return self.dual.minimum()

    @cached_property
    def coords(self) -> Coordinates:
        """The irreducible coordinates phi(x) = up[x] & Q, renumbered.

        Q holds the elements y that are not the meet of their upper covers:
        the AND of down[c] over the covers c (the full mask when there are
        none) differs from down[y]. phi is an order embedding of any
        finite poset, x <= y exactly when phi(y) is a subset of phi(x), by
        downward induction on y: an element of Q is caught by its own bit,
        and any other y is the meet of its covers. So z is the join of a
        and b exactly when phi(z) == phi(a) & phi(b).
        """
        full = (1 << len(self)) - 1
        down, covers_up = self.down, self.covers_up
        irreducibles = []
        for y, ups in enumerate(covers_up):
            m = full
            for c in ups:
                m &= down[c]
            if m != down[y]:
                irreducibles.append(y)
        bit = {q: 1 << r for r, q in enumerate(irreducibles)}
        masks = [0] * len(self)
        # an upper cover has the smaller up-set, so it comes first
        for x in sorted(range(len(self)), key=lambda i: self.up[i].bit_count()):
            m = bit.get(x, 0)
            for c in covers_up[x]:
                m |= masks[c]
            masks[x] = m
        return Coordinates(tuple(irreducibles), tuple(masks),
                           {m: i for i, m in enumerate(masks)})

    @cached_property
    def joins_exist(self) -> bool:
        """True when every pair of elements has a join.

        Let J be the elements that are not the join of their lower covers,
        the Q of the dual. Dually to the embedding, phi(b) is the AND of
        phi(j) over the j in J below b, so phi(c) & phi(b) folds in one j
        at a time. Every pair has a join exactly when phi(c) & phi(j) is a
        coordinate for every c and every j in J: N * |J| lookups, once per
        poset; the dual answers for the meets.
        """
        at, masks = self.coords.at, self.coords.masks
        return all(mc & masks[j] in at
                   for j in self.dual.coords.irreducibles for mc in masks)

    @cached_property
    def join_table(self) -> tuple[tuple[int, ...], ...]:
        """join_table[a][b] is the join index, or -1 when it does not exist.

        One dict lookup of phi(a) & phi(b) in the coordinates finds the
        join. The table is symmetric: row a copies column a of the rows
        before it and looks up only the entries with b >= a. It and
        meet_table serve the tests as references and perfbench's
        oracle-cycle7 as a timed workload; everything else reads coords.
        """
        at, masks = self.coords.at.get, self.coords.masks
        rows: list[tuple[int, ...]] = []
        for a, ma in enumerate(masks):
            rows.append(tuple([r[a] for r in rows]
                              + [at(ma & mb, -1) for mb in masks[a:]]))
        return tuple(rows)

    @cached_property
    def dual(self) -> "FinitePoset":
        """The opposite poset: the same keys and objects, the order reversed.

        Its dual is this poset, caches included.
        """
        d = FinitePoset(self.keys, self.covers_down, self.covers_up,
                        self.down, self.up, self.objects)
        d.__dict__["dual"] = self
        return d

    @cached_property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        return self.dual.join_table


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_poset(graph: Graph, max_elements: int = 10 ** 6) -> FinitePoset:
    """The tubing poset of a connected graph, covers included.

    The covers are the up-flips of the enumeration's own flip pass, which
    refuses as soon as it counts past max_elements.
    """
    elems, covers_up = _flip_graph(graph, covers=True,
                                   max_elements=max_elements)
    return FinitePoset.from_covers([t.key() for t in elems], covers_up, elems)


def minimal_upper_bounds(p: FinitePoset, a: int, b: int) -> tuple[int, ...]:
    ub = p.up[a] & p.up[b]
    out = []
    for z in _bits(ub):
        if p.down[z] & ub == 1 << z:
            out.append(z)
    return tuple(out)


def maximal_lower_bounds(p: FinitePoset, a: int, b: int) -> tuple[int, ...]:
    return minimal_upper_bounds(p.dual, a, b)


def brute_join(p: FinitePoset, a: int, b: int) -> int | None:
    """The unique minimal upper bound, or None when it is not unique."""
    mubs = minimal_upper_bounds(p, a, b)
    return mubs[0] if len(mubs) == 1 else None


def brute_meet(p: FinitePoset, a: int, b: int) -> int | None:
    return brute_join(p.dual, a, b)


def is_lattice(p: FinitePoset) -> bool:
    return lattice_failure(p) is None


def lattice_failure(p: FinitePoset) -> dict | None:
    """A witness pair with several minimal upper or maximal lower bounds.

    The pair is the first a < b in row-major order without a join or a
    meet, the join checked first. Only a poset that fails joins_exist
    or its dual pays for the scan, which reads the coordinates of p and
    of p.dual (the join exists exactly when phi(a) & phi(b) is a
    coordinate) and builds no table.
    """
    if p.joins_exist and p.dual.joins_exist:
        return None
    sides = [(q.coords.at, q.coords.masks, q, name) for q, name in
             ((p, "minimal_upper_bounds"), (p.dual, "maximal_lower_bounds"))]
    for a in range(len(p)):
        for b in range(a + 1, len(p)):
            for at, masks, q, name in sides:
                if masks[a] & masks[b] not in at:
                    bounds = minimal_upper_bounds(q, a, b)
                    return {"pair": [p.keys[a], p.keys[b]],
                            name: [p.keys[z] for z in bounds]}
    return None


def mobius_rows(p: FinitePoset):
    """The rows of the Moebius matrix, by Rota's crosscut theorem, sparse.

    In a finite lattice mu(a, b) is the sum of (-1)^|S| over the sets S of
    upper covers of a whose join is b. Row a folds the covers in one at a
    time: joins[i] is phi of the join of the i-th subset and signs[i] its
    sign. The row is the dict {b: mu(a, b)} over the joins of those
    subsets; every b missing from it has mu(a, b) == 0. The theorem needs
    each interval [a, b] to be a lattice; that holds once every pair has a
    join, so a poset without is refused when the first row is asked for.
    Only one row is held at a time.
    """
    if not p.joins_exist:
        raise ValueError("the Moebius matrix needs a join for every pair")
    at, masks = p.coords.at, p.coords.masks
    for a, ups in enumerate(p.covers_up):
        joins, signs = [masks[a]], [1]
        for c in ups:
            mc = masks[c]
            joins += [m & mc for m in joins]
            signs += [-s for s in signs]
        row = {}
        for m, s in zip(joins, signs):
            b = at[m]
            row[b] = row.get(b, 0) + s
        yield row


def _dense_rows(p: FinitePoset):
    """mobius_rows with every row spelled out over all len(p) columns."""
    for sparse in mobius_rows(p):
        row = [0] * len(p)
        for b, v in sparse.items():
            row[b] = v
        yield row


def mobius(p: FinitePoset) -> tuple[tuple[int, ...], ...]:
    """The Moebius matrix with exact integers, mobius_rows made dense."""
    return tuple(map(tuple, _dense_rows(p)))


def join_irreducibles(p: FinitePoset) -> tuple[int, ...]:
    """Indices of elements covering exactly one element."""
    return tuple(i for i in range(len(p)) if len(p.covers_down[i]) == 1)


def meet_irreducibles(p: FinitePoset) -> tuple[int, ...]:
    """Indices of elements covered by exactly one element."""
    return join_irreducibles(p.dual)


# --- canonical join and meet irreducibles of the cycle lattice ---------------

def _check_grid(n: int, i: int, k: int):
    """Refuse a point (i, k) off the (n-1) x (n-1) grid, n checked first."""
    _check_vertex_count(n)  # before anything of size n is built
    if n < 3:
        raise ValueError("join irreducibles need at least three vertices")
    if not (1 <= i <= n - 1 and 1 <= k <= n - 1):
        raise ValueError(f"indices must lie in 1..{n - 1}")


def canonical_ji(n: int, i: int, k: int) -> GTree:
    """The tree of the join irreducible with chain index i and height k.

    For k < n-i the root is n: a chain runs from n down through i+k+1 to i,
    whose right child starts the chain i+k, ..., i+1 and whose left child
    starts the chain i-1, ..., 1. For k >= n-i the root is i: a chain runs
    from i down to n-k, then n, whose left child starts the chain
    n-1, ..., i+1 and whose right child starts the chain n-k-1, ..., 1.
    Each of these trees has exactly one descent edge.
    """
    _check_grid(n, i, k)
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
    _check_grid(n, i, k)
    if i + k <= n:
        return MiIndex(n + 1 - i - k, n - k)
    return MiIndex(k, n - i)


# --- the forcing apparatus ---------------------------------------------------

def _rank(x: JiIndex) -> tuple[int, int]:
    """The key (i + k, k) of a join irreducible. Every into arrow and every
    direct forcing arrow raises it, which certifies that they have no cycle."""
    return x.i + x.k, x.k


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
    value with a larger _rank, so above[x], x and its into targets, is a
    tail of x's class sorted by _rank. to is their relational product: y
    runs over x and its onto targets, z over above[y]. Direct forcing is
    the closed form of its definition (_forces_from_definition): the into
    arrows together with the reversed onto arrows.
    """
    _check_vertex_count(n)  # before the (n-1)^2 grid is built
    if n < 3:
        raise ValueError("the forcing system needs at least three vertices")
    universe = [JiIndex(i, k) for i in range(1, n) for k in range(1, n)]
    classes: dict[int, list[JiIndex]] = {}
    for x in universe:
        classes.setdefault(c_perm(n, *x), []).append(x)
    above = {}
    for members in classes.values():
        members.sort(key=_rank)
        for r, x in enumerate(members):
            above[x] = members[r:]
    onto = {(x, JiIndex(x.i, k)) for x in universe for k in range(1, x.k)}
    into = {(x, z) for x in universe for z in above[x][1:]}
    to = {(x, z) for x in universe for k in range(1, x.k + 1)
          for z in above[JiIndex(x.i, k)] if z != x}
    forces = into | {(y, x) for (x, y) in onto}
    return ForcingSystem(n, frozenset(onto), frozenset(into), frozenset(to),
                         frozenset(forces))


def check_congruence_uniform(n: int) -> bool:
    """True when every direct forcing arrow raises the total-order key
    _rank, which certifies that direct forcing has no directed cycle."""
    return all(_rank(a) < _rank(b) for a, b in forcing_system(n).arrows_force)


def _kappa_failure(p: FinitePoset) -> tuple[int, int, int] | None:
    """A triple (j, x, y) breaking the meet semidistributive law, if any.

    A finite lattice is meet semidistributive exactly when every join
    irreducible j, with lower cover j_*, has a kappa: the class
    {x : j meet x = j_*}, which is the x above j_* and not above j, holds
    the join of its members. phi of that join is the set of q in Q above
    the whole class, and the join is above j exactly when its phi is a
    subset of phi(j). Cost when every kappa exists: |J| * |Q| mask
    operations. For the first j without one, the members are folded by
    joins: the first y whose join with the running join x lies above j
    gives j meet x = j meet y = j_* and j meet (x join y) = j.
    """
    irreducibles, masks, at = p.coords
    up, down = p.up, p.down
    for j in p.dual.coords.irreducibles:
        members = up[p.covers_down[j][0]] & ~up[j]
        top = 0
        for r, q in enumerate(irreducibles):
            if members & ~down[q] == 0:
                top |= 1 << r
        if top & ~masks[j]:
            continue
        bits = _bits(members)
        x = next(bits)
        for y in bits:
            m = masks[x] & masks[y]
            if m & ~masks[j] == 0:
                return j, x, y
            x = at[m]
    return None


def semidistributivity_witness(p: FinitePoset) -> dict | None:
    """A triple violating one of the two semidistributive laws, if any.

    The meet law is checked first, by _kappa_failure on p; the join law
    by the same on the dual. The triple (j, x, y) comes from the first
    join irreducible j without a kappa, and j meet x = j meet y while
    j meet (x join y) differs, or the dual for the join law.
    """
    if not is_lattice(p):
        raise ValueError("semidistributivity is only defined for lattices")
    for q, law in ((p, "meet"), (p.dual, "join")):
        bad = _kappa_failure(q)
        if bad is not None:
            return {"law": law, "triple": [p.keys[i] for i in bad]}
    return None


def check_semidistributive(p: FinitePoset) -> bool:
    return semidistributivity_witness(p) is None


# --- maximal orthogonal pairs -----------------------------------------------

def _orthogonal_closure(fs: ForcingSystem):
    """Map a mask X over fs.universe to (closed set, orthogonal complement).

    fwd[x] holds x and the targets of its arrows, bwd[y] holds y and the
    sources of the arrows into it. perp is the complement of the OR of
    fwd[x] over the members x of X, and the closed set the complement of
    the OR of bwd[y] over the members y of perp.
    """
    size = len(fs.universe)
    full = (1 << size) - 1
    pos = {x: b for b, x in enumerate(fs.universe)}
    fwd = [1 << b for b in range(size)]
    bwd = list(fwd)
    for a, b in fs.arrows_to:
        fwd[pos[a]] |= 1 << pos[b]
        bwd[pos[b]] |= 1 << pos[a]

    def closure(xmask: int) -> tuple[int, int]:
        reach = 0
        for x in _bits(xmask):
            reach |= fwd[x]
        perp = full & ~reach
        reach = 0
        for y in _bits(perp):
            reach |= bwd[y]
        return full & ~reach, perp

    return closure


def pairs_lattice(n: int) -> FinitePoset:
    """The poset of maximal orthogonal pairs of the forcing relation.

    Pairs (X, Y) with Y the complement of X's arrow targets and X closed;
    they are ordered by containment of X. For the cycle forcing system the
    result reconstructs the tubing lattice. Closed sets are found by
    saturating under the closure operator starting from the empty set. A
    closed set strictly above X holds X | {g} for some g not in X, and so
    its closure: the covers of X are the minimal closures its step meets.
    """
    fs = forcing_system(n)
    universe = fs.universe
    size = len(universe)
    closure = _orthogonal_closure(fs)
    above: dict[int, set[int]] = {}
    frontier = [closure(0)[0]]
    while frontier:
        xmask = frontier.pop()
        if xmask in above:
            continue
        above[xmask] = {closure(xmask | 1 << g)[0]
                        for g in range(size) if not xmask >> g & 1}
        frontier.extend(above[xmask])

    def keyof(xmask: int) -> str:
        members = sorted([x.i, x.k] for x in
                         (universe[b] for b in _bits(xmask)))
        return json.dumps(members, separators=(",", ":"))

    order = sorted(above, key=lambda m: (m.bit_count(), keyof(m)))
    index = {m: i for i, m in enumerate(order)}
    covers = [[index[c] for c in above[m]
               if not any(d != c and d & ~c == 0 for d in above[m])]
              for m in order]
    objects = tuple(frozenset(universe[b] for b in _bits(m)) for m in order)
    return FinitePoset.from_covers([keyof(m) for m in order], covers, objects)


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
    return "\n".join(",".join(map(str, row)) for row in _dense_rows(p)) + "\n"


def forcing_to_json(fs: ForcingSystem) -> str:
    def dump(rel):
        return sorted([[a.i, a.k], [b.i, b.k]] for a, b in rel)

    obj = {"n": fs.n,
           "onto": dump(fs.arrows_onto),
           "into": dump(fs.arrows_into),
           "to": dump(fs.arrows_to),
           "forces": dump(fs.arrows_force)}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
