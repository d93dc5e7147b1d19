"""Order tests and constructive lattice operations for cycle tubings.

The order on maximal tubings of the cycle graph admits a global test: j is
below k exactly when every inversion of j is an inversion or an
incomparable pair of k. For the path graph plain inversion containment
suffices.

The bridge between the two posets is the cut map, which snips the edge
between vertices 1 and n. Cutting a cycle tubing yields a path tubing; the
fiber over a path tubing is parameterized by the in-order shuffles of its
two zippers, and carries the order of a weak-order interval. Joins in the
cycle poset are computed by joining the cut images in the path poset,
lifting both arguments into the fiber over that join, and joining the
resulting shuffle words coordinatewise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .graph_core import (CYCLE, PATH, Graph, Tubing, _bit, make_graph,
                         mask_of, vertices_of)
from .gtree import (CYCLE_CBT, PATH_BST, GTree, gtree_of, inversion_masks,
                    pair_mask_universe, tree_move, tubing_of, validate,
                    zippers)


def _require(t: Tubing, kind: str):
    if t.graph.kind != kind:
        raise ValueError(f"expected a {kind} tubing, got {t.graph.kind}")


def _same_n(a: Tubing, b: Tubing):
    if a.graph != b.graph:
        raise ValueError("tubings live on different graphs")


def leq_path(x: Tubing, y: Tubing) -> bool:
    """Order test for path tubings: inversion containment."""
    _require(x, PATH)
    _require(y, PATH)
    _same_n(x, y)
    ix, _ = inversion_masks(gtree_of(x.graph, x))
    iy, _ = inversion_masks(gtree_of(y.graph, y))
    return ix & ~iy == 0


def leq_cycle(j: Tubing, k: Tubing) -> bool:
    """Order test for cycle tubings: inv(j) inside inv(k) union inc(k)."""
    _require(j, CYCLE)
    _require(k, CYCLE)
    _same_n(j, k)
    ij, _ = inversion_masks(gtree_of(j.graph, j))
    ik, ck = inversion_masks(gtree_of(k.graph, k))
    universe = pair_mask_universe(j.n)
    allowed = ik | (universe & ~(ik | ck))
    return ij & ~allowed == 0


# --- the cut map ------------------------------------------------------------

def cut(j: Tubing) -> Tubing:
    """Snip the edge between 1 and n, splitting the tubes that cross it.

    With m the root of the tree of j, the tube of a vertex x below m keeps
    its part in 1..m-1 when x < m and its part in m+1..n when x > m; the
    full tube stays whole. The result is a maximal tubing of the path.
    """
    _require(j, CYCLE)
    n = j.n
    m = j.top(j.graph.full_mask)
    low = (1 << (m - 1)) - 1        # vertices strictly below m
    high = ((1 << n) - 1) & ~((1 << m) - 1)  # vertices strictly above m
    masks = []
    for v in range(1, n + 1):
        dm = j.down(v)
        if v == m:
            masks.append(dm)
        elif v < m:
            masks.append(dm & low)
        else:
            masks.append(dm & high)
    return Tubing._make_checked(make_graph(PATH, n), masks)


# --- shuffle words and the sew map ------------------------------------------

@dataclass(frozen=True)
class ShuffleWord:
    """An in-order shuffle of the two zippers of a path tubing.

    The word lists zipper vertices bottom-up; the left-zipper letters must
    appear in their chain order, and likewise the right-zipper letters.
    """

    base: Tubing
    word: tuple[int, ...]

    @staticmethod
    def of(base: Tubing, word) -> "ShuffleWord":
        _require(base, PATH)
        w = tuple(int(v) for v in word)
        left, right = zippers(gtree_of(base.graph, base))
        if sorted(w) != sorted(left + right):
            raise ValueError("word is not a permutation of the zipper vertices")
        if tuple(v for v in w if v in set(left)) != left:
            raise ValueError("left zipper letters out of order")
        if tuple(v for v in w if v in set(right)) != right:
            raise ValueError("right zipper letters out of order")
        return ShuffleWord(base, w)

    def serialize(self) -> str:
        if self.base.n <= 9:
            return "".join(str(v) for v in self.word)
        return ",".join(str(v) for v in self.word)


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a shuffle word, comma separated or digit shorthand for n <= 9."""
    text = text.strip()
    if "," in text:
        return tuple(int(p) for p in text.split(","))
    return tuple(int(ch) for ch in text)


def sew(x: Tubing, w) -> Tubing:
    """Rejoin a path tubing into a cycle tubing along a shuffle word.

    The tube of the i-th word letter becomes the union of the tubes of the
    first i letters; all other tubes are unchanged. Cutting the result
    recovers x.
    """
    word = w if isinstance(w, ShuffleWord) else ShuffleWord.of(x, w)
    if word.base != x:
        raise ValueError("shuffle word belongs to a different base tubing")
    n = x.n
    masks = []
    in_word = set(word.word)
    acc = 0
    cumulative = {}
    for v in word.word:
        acc |= x.down(v)
        cumulative[v] = acc
    for v in range(1, n + 1):
        masks.append(cumulative[v] if v in in_word else x.down(v))
    return Tubing._make_checked(make_graph(CYCLE, n), masks)


def word_of(j: Tubing) -> ShuffleWord:
    """The shuffle word that sews cut(j) back into j.

    The zipper vertices of cut(j) form a chain in the tree of j; reading
    them bottom-up gives the word.
    """
    _require(j, CYCLE)
    return _word_over(j, cut(j))


def _word_over(j: Tubing, x: Tubing) -> ShuffleWord:
    left, right = zippers(gtree_of(x.graph, x))
    letters = sorted(left + right, key=lambda v: j.down(v).bit_count())
    return ShuffleWord.of(x, letters)


def fiber_words(x: Tubing) -> tuple[ShuffleWord, ...]:
    """All in-order shuffles of the zippers of x, in lexicographic order."""
    _require(x, PATH)
    left, right = zippers(gtree_of(x.graph, x))
    l, r = len(left), len(right)
    out = []
    for apos in combinations(range(l + r), l):
        word = [0] * (l + r)
        ai = iter(left)
        bi = iter(right)
        aset = set(apos)
        for pos in range(l + r):
            word[pos] = next(ai) if pos in aset else next(bi)
        out.append(ShuffleWord.of(x, word))
    return tuple(out)


def fiber_size(x: Tubing) -> int:
    """The number of in-order shuffles of the zippers of x, without listing them."""
    _require(x, PATH)
    left, right = zippers(gtree_of(x.graph, x))
    return math.comb(len(left) + len(right), len(left))


def fiber(x: Tubing) -> tuple[Tubing, ...]:
    """Every cycle tubing that cuts to x, ordered by its shuffle word."""
    return tuple(sew(x, w) for w in fiber_words(x))


# --- lifting along the path order -------------------------------------------

def _cover_moves(x: Tubing):
    """Upward covers of a path tubing, via moves on the left edges of its tree.

    Yields (moved tree, moved child u, its parent v, exchanged tube key).
    """
    g = gtree_of(x.graph, x)
    for u in range(1, x.n + 1):
        if u == g.root:
            continue
        v = g.parent[u]
        if u > v:
            continue  # right edge, the move would go down
        yield tree_move(g, u, PATH_BST), u, v, vertices_of(g.down_masks[u])


def _surgered_word(word: tuple[int, ...], u: int, v: int, x: Tubing,
                   g: GTree) -> tuple[int, ...]:
    """Rewrite the shuffle word across one upward cover move on (u, v).

    The move turns the left edge from u up to v in the tree of x into a
    right edge. Four positions of that edge are possible and each leaves its
    own footprint on the zipper word: away from the zippers the word is
    unchanged; adjacent to the right zipper, u joins it just after v;
    inside the left zipper, v drops out and u takes its slot; at the top,
    u becomes the new root and the old root joins the right zipper last.
    """
    left, _ = zippers(g)
    leftset = set(left)
    w = list(word)
    if v == g.root:
        w.remove(u)
        w.append(v)
        return tuple(w)
    if v in leftset:
        w.remove(u)
        w[w.index(v)] = u
        return tuple(w)
    if v in set(word):  # v is a right zipper vertex; u tops its hanging subtree
        w.insert(w.index(v) + 1, u)
        return tuple(w)
    return tuple(w)


def lift(j: Tubing, x: Tubing) -> Tubing:
    """The least element of the fiber over x that lies above j.

    Requires cut(j) <= x. Walks a saturated chain from cut(j) up to x,
    rewriting j's shuffle word across each cover step; the result does not
    depend on the chain, but ties between available covers are broken by
    the lexicographically smallest exchanged tube for determinism.
    """
    _require(j, CYCLE)
    _require(x, PATH)
    base = cut(j)
    if not leq_path(base, x):
        raise ValueError("lift requires cut(j) <= x in the path order")
    return _lift_from(j, base, x)


def _lift_from(j: Tubing, base: Tubing, x: Tubing) -> Tubing:
    target_inv, _ = inversion_masks(gtree_of(x.graph, x))
    current = j
    while base != x:
        g = gtree_of(base.graph, base)
        word = _word_over(current, base).word
        best = None
        for g2, u, v, exch in _cover_moves(base):
            inv2, _ = inversion_masks(g2)
            if inv2 & ~target_inv == 0 and (best is None or exch < best[3]):
                best = (g2, u, v, exch)
        if best is None:  # cannot happen when cut(j) <= x
            raise AssertionError("no cover step toward the target tubing")
        g2, u, v, _ = best
        upper = tubing_of(base.graph, g2)
        current = sew(upper, _surgered_word(word, u, v, base, g))
        base = upper
    return current


# --- joins and meets --------------------------------------------------------

def _crossing_counts(w: ShuffleWord) -> tuple[int, ...]:
    """For each left-zipper letter, how many right letters precede it."""
    left, _ = zippers(gtree_of(w.base.graph, w.base))
    leftset = set(left)
    counts = []
    seen_right = 0
    for v in w.word:
        if v in leftset:
            counts.append(seen_right)
        else:
            seen_right += 1
    return tuple(counts)


def _word_from_counts(x: Tubing, counts: tuple[int, ...]) -> ShuffleWord:
    left, right = zippers(gtree_of(x.graph, x))
    word = []
    ri = 0
    for ai, a in enumerate(left):
        while ri < counts[ai]:
            word.append(right[ri])
            ri += 1
        word.append(a)
    word.extend(right[ri:])
    return ShuffleWord.of(x, word)


def _shuffle_bound(x: Tubing, w1: ShuffleWord, w2: ShuffleWord, pick):
    if w1.base != x or w2.base != x:
        raise ValueError("shuffle words must share the base tubing")
    c1, c2 = _crossing_counts(w1), _crossing_counts(w2)
    return _word_from_counts(x, tuple(pick(a, b) for a, b in zip(c1, c2)))


def shuffle_join(x: Tubing, w1: ShuffleWord, w2: ShuffleWord) -> ShuffleWord:
    """Join of two shuffle words in the fiber order over x.

    A word is determined by which right letters precede each left letter;
    these cross-precedence sets order the fiber by containment, so the join
    realizes their union, the coordinatewise maximum of the crossing counts.
    """
    return _shuffle_bound(x, w1, w2, max)


def shuffle_meet(x: Tubing, w1: ShuffleWord, w2: ShuffleWord) -> ShuffleWord:
    """Meet in the fiber order: coordinatewise minimum of crossing counts."""
    return _shuffle_bound(x, w1, w2, min)


@lru_cache(maxsize=None)
def _path_universe(n: int):
    """All path tubings on n vertices with their inversion masks."""
    from .graph_core import enumerate_maximal_tubings
    graph = make_graph(PATH, n)
    elems = enumerate_maximal_tubings(graph)
    masks = tuple(inversion_masks(gtree_of(graph, t))[0] for t in elems)
    return elems, masks


def join_path(x: Tubing, y: Tubing) -> Tubing:
    """Join in the path order, by table scan over the enumerated poset."""
    _require(x, PATH)
    _require(y, PATH)
    _same_n(x, y)
    elems, masks = _path_universe(x.n)
    ix, _ = inversion_masks(gtree_of(x.graph, x))
    iy, _ = inversion_masks(gtree_of(y.graph, y))
    target = ix | iy
    ubs = [m for t, m in zip(elems, masks) if target & ~m == 0]
    best = min(ubs, key=lambda m: m.bit_count())
    if any(best & ~m for m in ubs):  # the path poset is a lattice
        raise AssertionError("upper bounds have no common minimum")
    return elems[masks.index(best)]


def meet_path(x: Tubing, y: Tubing) -> Tubing:
    """Meet in the path order: the maximal common lower bound."""
    _require(x, PATH)
    _require(y, PATH)
    _same_n(x, y)
    elems, masks = _path_universe(x.n)
    ix, _ = inversion_masks(gtree_of(x.graph, x))
    iy, _ = inversion_masks(gtree_of(y.graph, y))
    target = ix & iy
    lbs = [m for t, m in zip(elems, masks) if m & ~target == 0]
    best = max(lbs, key=lambda m: m.bit_count())
    if any(m & ~best for m in lbs):
        raise AssertionError("lower bounds have no common maximum")
    return elems[masks.index(best)]


def join_cycle(j: Tubing, k: Tubing) -> Tubing:
    """Join of two cycle tubings.

    Both arguments are lifted into the fiber over the join of their cut
    images; inside that fiber the join is the shuffle-word join.
    """
    _require(j, CYCLE)
    _require(k, CYCLE)
    _same_n(j, k)
    cj, ck = cut(j), cut(k)
    x = join_path(cj, ck)
    jw = _word_over(_lift_from(j, cj, x), x)
    kw = _word_over(_lift_from(k, ck, x), x)
    return sew(x, shuffle_join(x, jw, kw))


def meet_cycle(j: Tubing, k: Tubing) -> Tubing:
    """Meet of two cycle tubings, through the order-reversing relabelling."""
    from .graph_core import relabel_reverse
    return relabel_reverse(join_cycle(relabel_reverse(j), relabel_reverse(k)))
