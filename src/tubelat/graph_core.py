"""Graphs, tubes, and maximal tubings.

A tube of a graph is a set of vertices inducing a connected subgraph. Two
tubes are compatible when one contains the other or their union is not a
tube. A maximal tubing is an inclusion-maximal pairwise-compatible set of
tubes; on a connected graph with n vertices it always consists of exactly
n tubes, one of which is the full vertex set.

Vertex sets are encoded as integer bit masks (bit v-1 stands for vertex v),
which keeps compatibility and connectivity checks cheap during exhaustive
enumeration. Vertices are labelled 1..n and n is capped at 63.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

MAX_VERTICES = 63

PATH = "path"
CYCLE = "cycle"
COMPLETE = "complete"
CUSTOM = "custom"

GRAPH_KINDS = (PATH, CYCLE, COMPLETE, CUSTOM)


def _bit(v: int) -> int:
    return 1 << (v - 1)


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _check_vertex_count(n: int):
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")


@lru_cache(maxsize=1 << 16)
def _tube_sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    return (mask.bit_count(), vertices_of(mask))


@dataclass(frozen=True)
class Graph:
    """A labelled simple connected graph on vertices 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]
    kind: str = CUSTOM

    def __post_init__(self):
        _check_vertex_count(self.n)
        if self.kind not in GRAPH_KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}")
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"bad edge ({u},{v}) for n={self.n}")
        expected = _expected_edges(self.kind, self.n)
        if expected is not None and self.edges != expected:
            raise ValueError(f"edge set does not match kind {self.kind!r} on {self.n} vertices")
        if not _connected_mask(self.full_mask, self.adj):
            raise ValueError("graph must be connected")

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Adjacency bit masks, indexed by vertex (index 0 unused)."""
        adj = [0] * (self.n + 1)
        for u, v in self.edges:
            adj[u] |= _bit(v)
            adj[v] |= _bit(u)
        return tuple(adj)

    def is_tube_mask(self, mask: int) -> bool:
        if mask == 0 or mask & ~self.full_mask:
            raise ValueError("tube must be a nonempty subset of the vertices")
        # _connected_mask without its extra call: mask is nonzero, path is hot
        return _component(mask, mask & -mask, self.adj) == mask

    def w0_invariant(self) -> bool:
        """True when relabelling v to n+1-v maps the edge set onto itself."""
        n = self.n
        flipped = frozenset(tuple(sorted((n + 1 - u, n + 1 - v))) for u, v in self.edges)
        return flipped == self.edges


def _expected_edges(kind: str, n: int) -> frozenset[tuple[int, int]] | None:
    if kind == PATH:
        return frozenset((i, i + 1) for i in range(1, n))
    if kind == CYCLE:
        base = {(i, i + 1) for i in range(1, n)}
        base.add((1, n))
        return frozenset(base)
    if kind == COMPLETE:
        return frozenset((i, j) for i in range(1, n) for j in range(i + 1, n + 1))
    return None


def _component(mask: int, seed_bit: int, adj: tuple[int, ...]) -> int:
    """The component containing seed_bit of the subgraph induced by mask."""
    comp = seed_bit
    while True:
        grown = comp
        m = comp
        while m:
            low = m & -m
            grown |= adj[low.bit_length()] & mask
            m ^= low
        if grown == comp:
            return comp
        comp = grown


def _connected_mask(mask: int, adj: tuple[int, ...]) -> bool:
    return mask != 0 and _component(mask, mask & -mask, adj) == mask


@lru_cache(maxsize=None)
def make_graph(kind: str, n: int) -> Graph:
    """Build the canonical path, cycle, or complete graph on 1..n."""
    _check_vertex_count(n)  # before the edge set is built
    if kind == CYCLE and n < 3:
        raise ValueError("cycle graphs need at least three vertices")
    if kind == CUSTOM:
        raise ValueError("use custom_graph() to supply an edge list")
    edges = _expected_edges(kind, n)
    if edges is None:
        raise ValueError(f"unknown graph kind {kind!r}")
    return Graph(n=n, edges=edges, kind=kind)


def custom_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    canon = frozenset(tuple(sorted((u, v))) for u, v in edges)
    for u, v in canon:
        if u == v:
            raise ValueError("loops are not allowed")
    return Graph(n=n, edges=canon, kind=CUSTOM)


def is_tube(graph: Graph, s: Iterable[int] | int) -> bool:
    """True when s induces a connected subgraph of graph."""
    mask = s if isinstance(s, int) else mask_of(s)
    return graph.is_tube_mask(mask)


def compatible(graph: Graph, a: Iterable[int] | int, b: Iterable[int] | int) -> bool:
    """Tubes are compatible when nested or when their union is not a tube."""
    am = a if isinstance(a, int) else mask_of(a)
    bm = b if isinstance(b, int) else mask_of(b)
    if not graph.is_tube_mask(am) or not graph.is_tube_mask(bm):
        raise ValueError("compatible() expects two tubes of the graph")
    return _compatible_masks(graph, am, bm)


def _compatible_masks(graph: Graph, am: int, bm: int) -> bool:
    if am & bm == am or am & bm == bm:
        return True
    union = am | bm
    return _component(union, am, graph.adj) != union  # am is connected


def all_tubes(graph: Graph) -> tuple[int, ...]:
    """All tubes of the graph as bit masks, sorted canonically.

    Exponential in n; intended for oracles and for seeding custom graphs.
    """
    if graph.n > 20:
        raise ValueError("all_tubes() is only feasible for small graphs")
    found = [m for m in range(1, graph.full_mask + 1) if _connected_mask(m, graph.adj)]
    found.sort(key=_tube_sort_key)
    return tuple(found)


def is_maximal_tubing(graph: Graph, tubes: Iterable[Iterable[int] | int]) -> bool:
    """True when the tubes are pairwise compatible and cannot be extended.

    On a connected graph this is equivalent to having exactly n pairwise
    compatible tubes including the full vertex set.
    """
    masks = []
    for t in tubes:
        m = t if isinstance(t, int) else mask_of(t)
        if not graph.is_tube_mask(m):
            raise ValueError(f"{sorted(vertices_of(m))} is not a tube")
        masks.append(m)
    if len(set(masks)) != len(masks):
        return False
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if not _compatible_masks(graph, masks[i], masks[j]):
                return False
    return len(masks) == graph.n and graph.full_mask in masks


@dataclass(frozen=True)
class Tubing:
    """A maximal tubing, stored as a canonically sorted tuple of tube masks."""

    graph: Graph
    tube_masks: tuple[int, ...]

    @staticmethod
    def of(graph: Graph, tubes: Iterable[Iterable[int] | int]) -> "Tubing":
        masks = [t if isinstance(t, int) else mask_of(t) for t in tubes]
        if not is_maximal_tubing(graph, masks):
            raise ValueError("not a maximal tubing of the graph")
        return Tubing._make(graph, masks)

    @staticmethod
    def _make(graph: Graph, masks: Iterable[int]) -> "Tubing":
        return Tubing(graph, tuple(sorted(masks, key=_tube_sort_key)))

    @property
    def n(self) -> int:
        return self.graph.n

    def tubes(self) -> tuple[tuple[int, ...], ...]:
        """The tubes as sorted vertex tuples, smallest tubes first."""
        return tuple(vertices_of(m) for m in self.tube_masks)

    def key(self) -> str:
        """Canonical serialized form, used for ordering and deduplication."""
        return json.dumps([list(t) for t in self.tubes()], separators=(",", ":"))

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """down_masks[v] is the smallest tube containing v, as GTree.down_masks."""
        down = [0] * (self.n + 1)
        for v in range(1, self.n + 1):
            vb = _bit(v)
            best = 0
            for m in self.tube_masks:
                if m & vb:
                    best = m
                    break
            down[v] = best
        return tuple(down)

    def down(self, x: int) -> int:
        """Mask of the smallest tube containing vertex x."""
        if not 1 <= x <= self.n:
            raise ValueError(f"vertex {x} out of range")
        return self.down_masks[x]

    def top(self, tube: Iterable[int] | int) -> int:
        """The unique vertex whose smallest tube is the given tube."""
        m = tube if isinstance(tube, int) else mask_of(tube)
        if m not in self.tube_masks:
            raise ValueError("tube is not part of this tubing")
        inner = 0
        for other in self.tube_masks:
            if other != m and other & m == other:
                inner |= other
        rest = m & ~inner
        if rest.bit_count() != 1:  # cannot happen for a valid maximal tubing
            raise AssertionError("tube has no unique least-nested vertex")
        return rest.bit_length()


def top(t: Tubing, x: Iterable[int] | int) -> int:
    return t.top(x)


def flip(graph: Graph, t: Tubing, x: Iterable[int] | int) -> tuple[Tubing, tuple[int, ...]]:
    """Exchange the tube x for the unique other tube giving a maximal tubing.

    The replacement is the connected component of Y minus top(x) containing
    top(Y), where Y is the smallest tube of t properly containing x. Returns
    the new tubing and the replacement tube.
    """
    xm = x if isinstance(x, int) else mask_of(x)
    if xm not in t.tube_masks:
        raise ValueError("tube to flip is not in the tubing")
    if xm == graph.full_mask:
        raise ValueError("the full tube cannot be flipped")
    t2, replacement, _, _ = _flip(graph, t, xm)
    return t2, vertices_of(replacement)


def _flip(graph: Graph, t: Tubing, xm: int) -> tuple[Tubing, int, int, int]:
    """flip on a tube mask, unchecked: (tubing, replacement, top(x), top(Y)).

    top(Y), the top of the tube Y just above x, lies in no tube below Y,
    so it is also the top of the replacement in the new tubing.
    """
    parent = 0
    for m in t.tube_masks:
        if m != xm and m & xm == xm:
            parent = m
            break
    vx = t.top(xm)
    vy = t.top(parent)
    replacement = _component(parent & ~_bit(vx), _bit(vy), graph.adj)
    others = [m for m in t.tube_masks if m != xm]
    return Tubing._make(graph, others + [replacement]), replacement, vx, vy


def covers(graph: Graph, a: Tubing, b: Tubing) -> bool:
    """True when b covers a: one tube differs and its top label increases."""
    only_a = set(a.tube_masks) - set(b.tube_masks)
    only_b = set(b.tube_masks) - set(a.tube_masks)
    if len(only_a) != 1 or len(only_b) != 1:
        return False
    return a.top(only_a.pop()) < b.top(only_b.pop())


def relabel_reverse(t: Tubing) -> Tubing:
    """Apply the order-reversing relabelling v -> n+1-v to every tube."""
    g = t.graph
    if not g.w0_invariant():
        raise ValueError("graph is not preserved by the reversal relabelling")
    n = g.n
    masks = [mask_of(n + 1 - v for v in vertices_of(m)) for m in t.tube_masks]
    return Tubing._make(g, masks)


def minimum_tubing(graph: Graph) -> Tubing:
    """The enumeration seed: prefix tubes for the standard kinds.

    For path, cycle, and complete graphs the prefixes {1}, {1,2}, ... form
    the minimum of the tubing poset. Custom graphs get a deterministic
    greedy seed instead, which need not be the poset minimum.
    """
    if graph.kind in (PATH, CYCLE, COMPLETE):
        return Tubing._make(graph, [(1 << v) - 1 for v in range(1, graph.n + 1)])
    chosen: list[int] = [graph.full_mask]
    for m in all_tubes(graph):
        if m in chosen:
            continue
        if all(_compatible_masks(graph, m, c) for c in chosen):
            chosen.append(m)
    return Tubing.of(graph, chosen)


def enumerate_maximal_tubings(graph: Graph) -> tuple[Tubing, ...]:
    """All maximal tubings, in breadth-first order by flip distance.

    Layers expand from the seed tubing; within a layer, tubings are sorted
    by their canonical serialized form, so the output order is deterministic.
    """
    seed = minimum_tubing(graph)
    seen = {seed.tube_masks}
    out: list[Tubing] = []
    layer = [seed]
    while layer:
        layer.sort(key=lambda t: t.key())
        out.extend(layer)
        nxt = []
        for t in layer:
            for m in t.tube_masks:
                if m == graph.full_mask:
                    continue
                t2 = _flip(graph, t, m)[0]
                if t2.tube_masks not in seen:
                    seen.add(t2.tube_masks)
                    nxt.append(t2)
        layer = nxt
    return tuple(out)


# --- JSON interchange -------------------------------------------------------

def graph_to_obj(graph: Graph) -> dict:
    obj: dict = {"kind": graph.kind, "n": graph.n}
    if graph.kind == CUSTOM:
        obj["edges"] = sorted([list(e) for e in graph.edges])
    return obj


def parse_json(text: str):
    """json.loads, reporting nesting too deep for the parser as ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON is nested too deeply") from None


def _check_object(obj, what: str, *keys: str):
    if not isinstance(obj, dict) or not all(k in obj for k in keys):
        raise ValueError(f"{what} JSON must be an object with keys "
                         f"{', '.join(keys)}")


def _vertex_lists(value, n: int) -> bool:
    """True when value is a JSON list of lists of vertices in 1..n."""
    return isinstance(value, list) and all(
        isinstance(x, list) and all(isinstance(v, int) and 1 <= v <= n
                                    for v in x) for x in value)


def graph_from_obj(obj: dict) -> Graph:
    _check_object(obj, "graph", "kind", "n")
    kind, n = obj["kind"], obj["n"]
    if kind not in GRAPH_KINDS or not isinstance(n, int):
        raise ValueError(f"graph needs a kind in {GRAPH_KINDS} and an integer n")
    if kind == CUSTOM:
        if not _vertex_lists(obj.get("edges"), n):
            raise ValueError("custom graph edges must be vertex pairs")
        return custom_graph(n, [tuple(e) for e in obj["edges"]])
    return make_graph(kind, n)


def tubing_to_json(t: Tubing) -> str:
    obj = {"graph": graph_to_obj(t.graph), "tubes": [list(tu) for tu in t.tubes()]}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def tubing_from_json(text: str) -> Tubing:
    return tubing_from_obj(parse_json(text))


def tubing_from_obj(obj: dict) -> Tubing:
    _check_object(obj, "tubing", "graph", "tubes")
    graph = graph_from_obj(obj["graph"])
    tubes = obj["tubes"]
    if not _vertex_lists(tubes, graph.n):
        raise ValueError(f"tubes must be lists of vertices in 1..{graph.n}")
    return Tubing.of(graph, [tuple(tu) for tu in tubes])


def iter_flip_neighbors(graph: Graph, t: Tubing) -> Iterator[tuple[Tubing, int, int]]:
    """Yield (neighbor, old_top, new_top) for every flip of t."""
    for m in t.tube_masks:
        if m == graph.full_mask:
            continue
        t2, _, old_top, new_top = _flip(graph, t, m)
        yield t2, old_top, new_top
