"""Order tests and constructive lattice operations for cycle tubings.

The order on maximal tubings of the cycle graph admits a global test: j is
below k exactly when every inversion of j is an inversion or an
incomparable pair of k. For the path graph the order is componentwise on
the bracket vector of Huang and Tamari: r[v] is the size of the right
subtree of v in the binary search tree of the tubing. The meet of two
path tubings is the componentwise minimum of their bracket vectors, and
the join is the least bracket vector above the componentwise maximum.

The bridge between the two posets is the cut map, which snips the edge
between vertices 1 and n. Cutting a cycle tubing yields a path tubing; the
fiber over a path tubing is parameterized by the in-order shuffles of its
two zippers, and carries the order of a weak-order interval. Joins in the
cycle poset are computed by joining the cut images in the path poset,
lifting both arguments into the fiber over that join, and joining the
resulting shuffle words coordinatewise. A lift climbs from the cut image to
its target one tree rotation at a time, always taking the first rotation
that stays below the target, and rewrites the shuffle word on the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .graph_core import (CYCLE, PATH, Graph, Tubing, make_graph,
                         relabel_reverse)
from .gtree import _zipper_chains, inversion_masks


def _require(t: Tubing, kind: str):
    if t.graph.kind != kind:
        raise ValueError(f"expected a {kind} tubing, got {t.graph.kind}")


def _same_n(a: Tubing, b: Tubing):
    if a.graph != b.graph:
        raise ValueError("tubings live on different graphs")


def leq_path(x: Tubing, y: Tubing) -> bool:
    """Order test for path tubings: componentwise on the bracket vectors."""
    _require(x, PATH)
    _require(y, PATH)
    _same_n(x, y)
    return all(a <= b for a, b in zip(_right_sizes(x), _right_sizes(y)))


def _right_sizes(x: Tubing) -> list[int]:
    """The bracket vector of a path tubing; index 0 is unused.

    The tube of v is an interval of the path, and r[v] counts its vertices
    above v, which form the right subtree of v.
    """
    return [(d >> v).bit_length() for v, d in enumerate(x.down_masks)]


def _path_tubing(graph: Graph, r: list[int]) -> Tubing:
    """The path tubing with bracket vector r.

    The tube of v ends at v + r[v] and starts just above the nearest u < v
    whose tube reaches v; the scan for u skips whole tubes that end before v.
    """
    start = [0] * len(r)
    masks = []
    for v in range(1, len(r)):
        u = v - 1
        while u and u + r[u] < v:
            u = start[u] - 1
        start[v] = u + 1
        masks.append((1 << (v + r[v])) - (1 << u))
    return Tubing._make(graph, masks)


def leq_cycle(j: Tubing, k: Tubing) -> bool:
    """Order test for cycle tubings: inv(j) inside inv(k) union inc(k).

    inv, coinv and inc partition the pairs, so inv(k) union inc(k) is the
    complement of coinv(k).
    """
    _require(j, CYCLE)
    _require(k, CYCLE)
    _same_n(j, k)
    return inversion_masks(j)[0] & inversion_masks(k)[1] == 0


# --- the cut map ------------------------------------------------------------

def cut(j: Tubing) -> Tubing:
    """Snip the edge between 1 and n, splitting the tubes that cross it.

    With m the root of the tree of j, the tube of a vertex x below m keeps
    its part in 1..m-1 when x < m and its part in m+1..n when x > m; the
    full tube stays whole. The result is a maximal tubing of the path.
    """
    _require(j, CYCLE)
    down, full = j.down_masks, j.graph.full_mask
    m = down.index(full)  # the root tops the full tube
    low = (1 << (m - 1)) - 1  # vertices strictly below m
    high = full & ~((1 << m) - 1)  # vertices strictly above m
    masks = [d & low for d in down[1:m]] + [full] + [d & high for d in down[m + 1:]]
    return Tubing._make(make_graph(PATH, j.n), masks)


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
        left, right = _zipper_chains(base)
        if sorted(w) != sorted(left + right):
            raise ValueError("word is not a permutation of the zipper vertices")
        lset, rset = set(left), set(right)
        if tuple(v for v in w if v in lset) != left:
            raise ValueError("left zipper letters out of order")
        if tuple(v for v in w if v in rset) != right:
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
    recovers x. A raw sequence w is checked by ShuffleWord.of; a
    ShuffleWord is trusted.
    """
    word = w if isinstance(w, ShuffleWord) else ShuffleWord.of(x, w)
    if word.base != x:
        raise ValueError("shuffle word belongs to a different base tubing")
    down = x.down_masks
    masks, acc = list(down), 0
    for v in word.word:
        acc |= down[v]
        masks[v] = acc
    return Tubing._make(make_graph(CYCLE, x.n), masks[1:])


def word_of(j: Tubing) -> ShuffleWord:
    """The shuffle word that sews cut(j) back into j.

    The zipper vertices of cut(j) form a chain in the tree of j; reading
    them bottom-up gives the word.
    """
    _require(j, CYCLE)
    return _word_over(j, cut(j))


def _word_over(j: Tubing, x: Tubing) -> ShuffleWord:
    left, right = _zipper_chains(x)
    letters = sorted(left + right, key=lambda v: j.down_masks[v].bit_count())
    return ShuffleWord(x, tuple(letters))


def fiber_words(x: Tubing) -> tuple[ShuffleWord, ...]:
    """All in-order shuffles of the zippers of x, in lexicographic order."""
    _require(x, PATH)
    left, right = _zipper_chains(x)
    l, r = len(left), len(right)
    out = []
    for apos in combinations(range(l + r), l):
        word = [0] * (l + r)
        ai = iter(left)
        bi = iter(right)
        aset = set(apos)
        for pos in range(l + r):
            word[pos] = next(ai) if pos in aset else next(bi)
        out.append(ShuffleWord(x, tuple(word)))
    return tuple(out)


def fiber_size(x: Tubing) -> int:
    """The number of in-order shuffles of the zippers of x, without listing them."""
    _require(x, PATH)
    left, right = _zipper_chains(x)
    return math.comb(len(left) + len(right), len(left))


def fiber(x: Tubing) -> tuple[Tubing, ...]:
    """Every cycle tubing that cuts to x, ordered by its shuffle word."""
    return tuple(sew(x, w) for w in fiber_words(x))


# --- lifting along the path order -------------------------------------------

def _rotate_up(parent: list[int], r: list[int], word: list[int], u: int):
    """Rotate the left edge from u up to its parent v, in place.

    parent is the tree of a path tubing (parent[root] == 0), r its bracket
    vector and word a shuffle word over it. The rotation hands the right
    subtree of u to v and raises r[u] by 1 + r[v]. Four positions of the
    edge are possible and each leaves its own footprint on the zipper word:
    at the top, u becomes the new root and the old root joins the right
    zipper last; inside the left zipper, v drops out and u takes its slot;
    adjacent to the right zipper, u joins it just after v; away from the
    zippers the word is unchanged.
    """
    v = parent[u]
    for c in range(u + 1, u + r[u] + 1):
        if parent[c] == u:  # the right child of u
            parent[c] = v
            break
    parent[u], parent[v] = parent[v], u
    r[u] += 1 + r[v]
    if parent[u] == 0:  # v was the root
        word.remove(u)
        word.append(v)
    elif u in word:  # a left child is a zipper letter only on the left zipper
        word.remove(u)
        word[word.index(v)] = u
    elif v in word:  # v is on the right zipper; u tops its hanging subtree
        word.insert(word.index(v) + 1, u)


def _path_parents(x: Tubing) -> list[int]:
    """The parent table of the tree of a path tubing in O(n), 0 at the root.

    A tube holding a neighbour of v's tube [s, e] contains it, so v's parent
    is s - 1 or e + 1, whichever has the smaller (nested) tube mask.
    """
    down, n = x.down_masks, x.n
    parent = [0] * (n + 1)
    for v in range(1, n + 1):
        d = down[v]
        a, b = (d & -d).bit_length() - 1, d.bit_length() + 1  # s - 1, e + 1
        parent[v] = a if b > n or (a and down[a] < down[b]) else b
    return parent


def _encode(j: Tubing) -> tuple:
    """cut(j), its bracket vector and parent table, and j's word over it; the
    vectors are bytes (no entry exceeds n <= 63), a third of a tuple's size."""
    x = cut(j)
    return (x, bytes(_right_sizes(x)), bytes(_path_parents(x)),
            bytes(_word_over(j, x).word))


def _lift(e: tuple, target: list[int]) -> list[int]:
    """The word of the lift of the encoded tubing e over the path tubing of
    bracket vector target; the rotations work on list copies of e's vectors."""
    r, parent, word = list(e[1]), list(e[2]), list(e[3])
    while r != target:
        u = next(u for u in range(1, len(r)) if u < parent[u]
                 and r[u] + 1 + r[parent[u]] <= target[u])
        _rotate_up(parent, r, word, u)
    return word


def lift(j: Tubing, x: Tubing) -> Tubing:
    """The least element of the fiber over x that lies above j.

    Requires cut(j) <= x. Walks a saturated chain from cut(j) up to x,
    taking at each step the first left edge, by its lower vertex, whose
    rotation stays below x, and rewrites j's shuffle word across each
    rotation. The result does not depend on the chain: the tests compare
    every chain at n <= 5, and the lattice verify suite proves each single
    rotation from every cycle tubing against the oracle's join, which by
    induction covers every chain.
    """
    _require(j, CYCLE)
    _require(x, PATH)
    e = _encode(j)
    if not leq_path(e[0], x):
        raise ValueError("lift requires cut(j) <= x in the path order")
    return sew(x, ShuffleWord(x, tuple(_lift(e, _right_sizes(x)))))


# --- joins and meets --------------------------------------------------------

def _root(r) -> int:
    """The root of the path tubing of bracket vector r: its tube ends at n."""
    return next(v for v in range(1, len(r)) if v + r[v] == len(r) - 1)


def _merge(w1, w2, m: int, pick) -> list[int]:
    """The word over a base of root m whose crossing counts are pick of those
    of the words w1 and w2. Left letter i (a letter below m) sits at i plus
    its crossing count, so inserting the left letters in chain order at pick
    of their positions among the right letters builds the word."""
    word = [v for v in w1 if v > m]
    for a in (v for v in w1 if v < m):
        word.insert(pick(w1.index(a), w2.index(a)), a)
    return word


def _shuffle_bound(x: Tubing, w1: ShuffleWord, w2: ShuffleWord, pick):
    if w1.base != x or w2.base != x:
        raise ValueError("shuffle words must share the base tubing")
    m = x.down_masks.index(x.graph.full_mask)
    return ShuffleWord(x, tuple(_merge(w1.word, w2.word, m, pick)))


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


def meet_path(x: Tubing, y: Tubing) -> Tubing:
    """Meet in the path order: the componentwise minimum of bracket vectors."""
    _require(x, PATH)
    _require(y, PATH)
    _same_n(x, y)
    r = [min(a, b) for a, b in zip(_right_sizes(x), _right_sizes(y))]
    return _path_tubing(x.graph, r)


def _join_brackets(r1, r2) -> list[int]:
    """The least bracket vector above the bracket vectors r1 and r2.

    A vector is a bracket vector when the interval from v to v + r[v]
    contains the interval of every w inside it. Starting from the
    componentwise maximum, each interval, taken from the right, grows just
    enough to contain the intervals that start inside it; the jumps skip
    intervals nested in one already seen. The intervals right of v already
    nest, so the first one that reaches past the end is the last one met,
    and v's interval ends where it does. r[n] is 0.
    """
    r = list(map(max, r1, r2))
    for v in range(len(r) - 2, 0, -1):
        end, w = v + r[v], v + 1
        while w <= end:
            w += r[w] + 1
        r[v] = w - 1 - v
    return r


def join_path(x: Tubing, y: Tubing) -> Tubing:
    """Join in the path order: the least bracket vector above both."""
    _require(x, PATH)
    _require(y, PATH)
    _same_n(x, y)
    return _path_tubing(x.graph, _join_brackets(_right_sizes(x), _right_sizes(y)))


def join_cycle(j: Tubing, k: Tubing) -> Tubing:
    """Join of two cycle tubings.

    Both arguments are lifted into the fiber over the join of their cut
    images; inside that fiber the join is the shuffle-word join.
    """
    _require(j, CYCLE)
    _require(k, CYCLE)
    _same_n(j, k)
    e1, e2 = _encode(j), _encode(k)
    r = _join_brackets(e1[1], e2[1])
    x = _path_tubing(e1[0].graph, r)
    word = _merge(_lift(e1, r), _lift(e2, r), _root(r), max)
    return sew(x, ShuffleWord(x, tuple(word)))


def meet_cycle(j: Tubing, k: Tubing) -> Tubing:
    """Meet of two cycle tubings, through the order-reversing relabelling."""
    return relabel_reverse(join_cycle(relabel_reverse(j), relabel_reverse(k)))
