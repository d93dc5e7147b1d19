import json
from functools import lru_cache

import pytest

import tubelat as tl
from tubelat import cycle_lattice as cl
from tubelat import gtree as gt
from tubelat.graph_core import vertices_of
from helpers import (closure_leq, graph, lifts, load_fixture, poset,
                     positions, reference_gtree_of, reference_join_brackets,
                     tubings)


def tubing_from(obj) -> tl.Tubing:
    return tl.tubing_from_json(json.dumps(obj))


@lru_cache(maxsize=None)
def order_trio():
    fx = load_fixture("cycle8_order_trio.json")
    c8 = graph("cycle", 8)
    return {name: tl.tubing_of(c8, gt.gtree_from_json(json.dumps(fx[name])))
            for name in ("j", "k", "l")}, fx["relations"]


# --- order tests --------------------------------------------------------------

def test_leq_cycle_trio():
    trio, rel = order_trio()
    assert cl.leq_cycle(trio["k"], trio["j"]) == rel["k_leq_j"]
    assert cl.leq_cycle(trio["j"], trio["k"]) == rel["j_leq_k"]
    assert cl.leq_cycle(trio["l"], trio["j"]) == rel["l_leq_j"]
    assert cl.leq_cycle(trio["j"], trio["l"]) == rel["j_leq_l"]
    assert cl.leq_cycle(trio["l"], trio["k"]) == rel["l_leq_k"]
    assert cl.leq_cycle(trio["k"], trio["l"]) == rel["k_leq_l"]


def test_leq_cycle_is_reflexive():
    for t in tubings("cycle", 5):
        assert cl.leq_cycle(t, t)


def test_leq_cycle_equals_flip_closure():
    for n in (3, 4, 5):
        elems, leq = closure_leq("cycle", n)
        for a in elems:
            for b in elems:
                assert cl.leq_cycle(a, b) == leq(a, b)


def test_leq_path_minimum_below_everything():
    lo = tl.minimum_tubing(graph("path", 5))
    for t in tubings("path", 5):
        assert cl.leq_path(lo, t)


def test_leq_path_equals_flip_closure():
    elems, leq = closure_leq("path", 5)
    for a in elems:
        for b in elems:
            assert cl.leq_path(a, b) == leq(a, b)


def test_leq_path_direction_on_the_pentagon():
    p3 = graph("path", 3)
    lower = tl.Tubing.of(p3, [{2}, {2, 3}, {1, 2, 3}])
    upper = tl.Tubing.of(p3, [{3}, {2, 3}, {1, 2, 3}])
    assert cl.leq_path(lower, upper)
    assert not cl.leq_path(upper, lower)
    # cross-check against the flip closure
    elems, leq = closure_leq("path", 3)
    assert leq(lower, upper) and not leq(upper, lower)


def test_leq_path_antisymmetry_via_inversions():
    elems = tubings("path", 5)
    for a in elems:
        for b in elems:
            both = cl.leq_path(a, b) and cl.leq_path(b, a)
            assert both == (a == b)


def test_order_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        cl.leq_cycle(tubings("cycle", 4)[0], tubings("cycle", 5)[0])
    with pytest.raises(ValueError):
        cl.leq_cycle(tubings("path", 4)[0], tubings("path", 4)[0])


# --- cut ------------------------------------------------------------------------

def test_cut_nine_vertex_example():
    fx = load_fixture("cycle9_cut_sew.json")
    j = tubing_from(fx["tubing"])
    assert tl.tubing_to_json(cl.cut(j)) == json.dumps(
        fx["cut_tubing"], sort_keys=True, separators=(",", ":"))


def test_cut_six_vertex_example():
    fx = load_fixture("cycle6_cut_example.json")
    j = tubing_from(fx["tubing"])
    assert tl.tubing_to_json(cl.cut(j)) == json.dumps(
        fx["cut_tubing"], sort_keys=True, separators=(",", ":"))


def test_cut_of_minimum_is_minimum():
    for n in (3, 5, 7):
        assert cl.cut(tl.minimum_tubing(graph("cycle", n))) == \
            tl.minimum_tubing(graph("path", n))


def test_cut_tree_is_the_unzipping():
    for n in (4, 5, 6):
        for j in tubings("cycle", n):
            tree = tl.gtree_of(j)
            m = tree.root
            unzipped = tl.gtree_of(cl.cut(j))
            for v in range(1, n + 1):
                if v == m:
                    continue
                p = tree.parent[v]
                while p != m and (p < m) != (v < m):
                    p = tree.parent[p]
                assert unzipped.parent[v] == p


def test_cut_maps_down_sets_to_down_sets():
    for n in (4, 5):
        cg = graph("cycle", n)
        for j in tubings("cycle", n):
            x = cl.cut(j)
            m = j.top(cg.full_mask)
            low = (1 << (m - 1)) - 1
            high = cg.full_mask & ~((1 << m) - 1)
            for v in range(1, n + 1):
                dj = j.down(v)
                want = dj if v == m else dj & (low if v < m else high)
                assert x.down(v) == want


def test_cut_is_order_preserving():
    for n in (4, 5):
        elems = tubings("cycle", n)
        for a in elems:
            for b in elems:
                if cl.leq_cycle(a, b):
                    assert cl.leq_path(cl.cut(a), cl.cut(b))


def test_cut_commutes_with_reversal():
    for n in (4, 5, 6):
        for j in tubings("cycle", n):
            assert cl.cut(tl.relabel_reverse(j)) == \
                tl.relabel_reverse(cl.cut(j))


# --- sew and fibers -------------------------------------------------------------

def test_sew_round_trip_example():
    fx = load_fixture("cycle9_cut_sew.json")
    x = tubing_from(fx["cut_tubing"])
    j = cl.sew(x, cl.parse_word(fx["sew_word"]))
    assert tl.tubing_to_json(j) == json.dumps(
        fx["tubing"], sort_keys=True, separators=(",", ":"))
    assert cl.word_of(j).serialize() == fx["sew_word"]


def test_fiber_words_example():
    fx = load_fixture("cycle9_cut_sew.json")
    x = tubing_from(fx["cut_tubing"])
    assert [w.serialize() for w in cl.fiber_words(x)] == fx["fiber_words"]
    assert len(cl.fiber(x)) == 6


def test_singleton_fiber_when_a_zipper_is_empty():
    n = 5
    pg = graph("path", n)
    chain = tl.minimum_tubing(pg)  # rooted at n, right zipper empty
    words = cl.fiber_words(chain)
    assert len(words) == 1 and words[0].word == tuple(range(1, n))
    assert cl.cut(cl.sew(chain, words[0])) == chain


def test_fiber_size_counts_the_fiber_words():
    for n in range(1, 7):
        for x in tubings("path", n):
            assert cl.fiber_size(x) == len(cl.fiber_words(x))


def test_cut_after_sew_is_identity_everywhere():
    # cut and sew build their tubings unchecked; both must stay maximal
    import math
    for n in (3, 4, 5, 6):
        total = 0
        for x in tubings("path", n):
            left, right = tl.zippers(tl.gtree_of(x))
            words = cl.fiber_words(x)
            assert len(words) == math.comb(len(left) + len(right), len(left))
            for w in words:
                j = cl.sew(x, w)
                assert tl.is_maximal_tubing(j.graph, j.tube_masks)
                assert cl.cut(j) == x
            total += len(words)
        assert total == math.comb(2 * n - 2, n - 1)
        for j in tubings("cycle", n):
            x = cl.cut(j)
            assert tl.is_maximal_tubing(x.graph, x.tube_masks)


def test_sew_maps_down_sets_to_down_sets():
    for n in (4, 5):
        for x in tubings("path", n):
            for w in cl.fiber_words(x):
                j = cl.sew(x, w)
                prefix = 0
                image = {}
                for v in w.word:
                    prefix |= x.down(v)
                    image[v] = prefix
                for v in range(1, n + 1):
                    assert j.down(v) == image.get(v, x.down(v))


def test_sew_tree_extends_base_relations_by_the_word_chain():
    for x in tubings("path", 5):
        base_tree = tl.gtree_of(x)
        for w in cl.fiber_words(x):
            tree = tl.gtree_of(cl.sew(x, w))
            for v in range(1, 6):
                assert tree.down_masks[v] & base_tree.down_masks[v] == \
                    base_tree.down_masks[v]
            for a, b in zip(w.word, w.word[1:]):
                assert tree.below(a, b)


def test_fiber_order_is_the_weak_order_on_words():
    # covers inside a fiber are exactly adjacent left/right transpositions
    for x in tubings("path", 5):
        left, _ = tl.zippers(tl.gtree_of(x))
        leftset = set(left)
        words = cl.fiber_words(x)
        elems = [cl.sew(x, w) for w in words]
        for a, wa in zip(elems, words):
            for b, wb in zip(elems, words):
                is_cover = tl.covers(a, b)
                swaps = [i for i in range(len(wa.word) - 1)
                         if wa.word[i] in leftset
                         and wb.word[i] == wa.word[i + 1]
                         and wb.word[i + 1] == wa.word[i]
                         and wa.word[:i] == wb.word[:i]
                         and wa.word[i + 2:] == wb.word[i + 2:]]
                assert is_cover == bool(swaps)


def test_shuffle_word_validation():
    fx = load_fixture("cycle9_cut_sew.json")
    x = tubing_from(fx["cut_tubing"])
    with pytest.raises(ValueError):
        cl.ShuffleWord.of(x, (1, 3, 9))  # not all letters
    with pytest.raises(ValueError):
        cl.ShuffleWord.of(x, (3, 1, 9, 7))  # left letters out of order
    with pytest.raises(ValueError):
        cl.ShuffleWord.of(x, (1, 3, 7, 9))  # right letters out of order
    assert cl.parse_word("9,13,7") == (9, 13, 7)
    assert cl.parse_word("9137") == (9, 1, 3, 7)


# --- lift ------------------------------------------------------------------------

def test_lift_parent_table_is_the_tree_of_the_base():
    # the parent table the lift rotates is the tree of cut(j), by the
    # nested scan of every tube; every path tubing up to n = 9 is a cut
    for n in range(3, 10):
        cuts = set()
        for j in tubings("cycle", n):
            x = cl.cut(j)
            cuts.add(x)
            assert list(cl._encode(j)[2]) == list(reference_gtree_of(x).parent)
        assert cuts == set(tubings("path", n))


def test_lift_at_the_base_is_identity():
    for j in tubings("cycle", 5):
        assert cl.lift(j, cl.cut(j)) == j


def test_lift_is_least_fiber_element_above():
    for n in (4, 5):
        for j in tubings("cycle", n):
            cj = cl.cut(j)
            for x in tubings("path", n):
                if not cl.leq_path(cj, x):
                    continue
                lifted = cl.lift(j, x)
                above = [k for k in cl.fiber(x) if cl.leq_cycle(j, k)]
                least = [k for k in above
                         if all(cl.leq_cycle(k, o) for o in above)]
                assert least == [lifted]


def test_lift_is_independent_of_the_chain():
    # every saturated chain of rotations from cut(j) up to x produces the
    # same element, and every chain ends on the tree of x
    def words_over_all_chains(parent, r, word, target, tree):
        if r == target:
            assert parent == tree
            return {tuple(word)}
        out = set()
        for u in range(1, len(r)):
            if u > parent[u]:
                continue  # the root or a right edge, the rotation goes down
            p2, r2, w2 = list(parent), list(r), list(word)
            cl._rotate_up(p2, r2, w2, u)
            if all(a <= b for a, b in zip(r2, target)):
                out |= words_over_all_chains(p2, r2, w2, target, tree)
        return out

    for n in (4, 5):
        for j in tubings("cycle", n):
            cj = cl.cut(j)
            start = list(tl.gtree_of(cj).parent)
            word = list(cl.word_of(j).word)
            for x in tubings("path", n):
                if not cl.leq_path(cj, x):
                    continue
                tree = list(tl.gtree_of(x).parent)
                words = words_over_all_chains(start, cl._right_sizes(cj), word,
                                              cl._right_sizes(x), tree)
                assert {cl.sew(x, w).tube_masks for w in words} == \
                    {cl.lift(j, x).tube_masks}


def test_lift_table_matches_the_walk_on_every_target():
    # the reference lift table reaches each target by its own chain of
    # rotations; it must hold every path tubing above the cut, each with
    # the first-fit walk's word
    for n in range(3, 8):
        targets = [cl._right_sizes(x) for x in tubings("path", n)]
        for j in tubings("cycle", n):
            e = cl._encode(j)
            above = [r for r in targets
                     if all(a <= b for a, b in zip(e[1], r))]
            table = lifts(e)
            assert table.keys() == {bytes(r) for r in above}
            for r in above:
                assert table[bytes(r)] == positions(cl._lift(e, r),
                                                    cl._root(r))


def test_lift_requires_comparable_cut():
    c5 = graph("cycle", 5)
    hi = tl.relabel_reverse(tl.minimum_tubing(c5))
    lo_path = tl.minimum_tubing(graph("path", 5))
    with pytest.raises(ValueError):
        cl.lift(hi, lo_path)


# --- shuffle joins ---------------------------------------------------------------

def test_shuffle_join_examples():
    fx = load_fixture("cycle9_cut_sew.json")
    x = tubing_from(fx["cut_tubing"])
    w = {s: cl.ShuffleWord.of(x, cl.parse_word(s)) for s in fx["fiber_words"]}
    assert cl.shuffle_join(x, w["1937"], w["9137"]) == w["9137"]
    assert cl.shuffle_join(x, w["1973"], w["9137"]) == w["9173"]
    for s, word in w.items():
        assert cl.shuffle_join(x, word, word) == word
        assert cl.shuffle_meet(x, word, word) == word


def test_shuffle_join_and_meet_match_the_fiber_order():
    for n in (4, 5, 6):
        for x in tubings("path", n):
            words = cl.fiber_words(x)
            elems = {w: cl.sew(x, w) for w in words}
            le = {(w, o): cl.leq_cycle(elems[w], elems[o])
                  for w in words for o in words}
            for w1 in words:
                for w2 in words:
                    ubs = [w for w in words if le[w1, w] and le[w2, w]]
                    least = [w for w in ubs if all(le[w, o] for o in ubs)]
                    assert least == [cl.shuffle_join(x, w1, w2)]
                    lbs = [w for w in words if le[w, w1] and le[w, w2]]
                    greatest = [w for w in lbs if all(le[o, w] for o in lbs)]
                    assert greatest == [cl.shuffle_meet(x, w1, w2)]


# --- joins and meets --------------------------------------------------------------

def test_join_path_identities():
    lo = tl.minimum_tubing(graph("path", 5))
    for y in tubings("path", 5):
        assert cl.join_path(lo, y) == y
        assert cl.meet_path(lo, y) == lo


def test_join_path_matches_poset_oracle():
    for n in (4, 5, 6, 7):
        p = poset("path", n)
        elems = p.objects
        index = {t.tube_masks: i for i, t in enumerate(elems)}
        for a in range(len(elems)):
            for b in range(a, len(elems)):
                j = cl.join_path(elems[a], elems[b])
                m = cl.meet_path(elems[a], elems[b])
                assert index[j.tube_masks] == p.join_table[a][b]
                assert index[m.tube_masks] == p.meet_table[a][b]


@pytest.mark.parametrize("n", range(1, 8))
def test_join_brackets_matches_the_reference_loop(n):
    # on every pair of path bracket vectors, as bytes as the suites pass them
    vectors = [bytes(cl._right_sizes(t)) for t in tubings("path", n)]
    for r1 in vectors:
        for r2 in vectors:
            assert cl._join_brackets(r1, r2) == reference_join_brackets(r1, r2)


@pytest.mark.parametrize("n", range(1, 7))
def test_join_brackets_reads_only_the_max(n):
    # the lattice suite's box certificate checks _join_brackets(m, m) on
    # every m, which covers every pair only because of this
    vectors = [bytes(cl._right_sizes(t)) for t in tubings("path", n)]
    for r1 in vectors:
        for r2 in vectors:
            m = bytes(map(max, r1, r2))
            assert cl._join_brackets(r1, r2) == cl._join_brackets(m, m)


def test_path_meets_and_joins_are_componentwise_on_subtree_sizes():
    # Huang-Tamari: the oracle meet takes the componentwise minimum of the
    # right subtree sizes, the oracle join that of the left subtree sizes
    def subtree_sizes(t):
        g = tl.gtree_of(t)
        down = [vertices_of(g.down_masks[v]) for v in range(1, t.n + 1)]
        return ([sum(u > v for u in d) for v, d in enumerate(down, 1)],
                [sum(u < v for u in d) for v, d in enumerate(down, 1)])

    for n in (4, 5, 6, 7):
        p = poset("path", n)
        sizes = [subtree_sizes(t) for t in p.objects]
        for a in range(len(p)):
            for b in range(a, len(p)):
                (ra, la_), (rb, lb) = sizes[a], sizes[b]
                assert sizes[p.meet_table[a][b]][0] == list(map(min, ra, rb))
                assert sizes[p.join_table[a][b]][1] == list(map(min, la_, lb))


def test_path_meet_is_reversed_join():
    for n in (4, 5):
        elems = tubings("path", n)
        for a in elems:
            for b in elems:
                assert cl.meet_path(a, b) == tl.relabel_reverse(
                    cl.join_path(tl.relabel_reverse(a), tl.relabel_reverse(b)))


def test_join_cycle_identities():
    c5 = graph("cycle", 5)
    lo = tl.minimum_tubing(c5)
    for k in tubings("cycle", 5):
        assert cl.join_cycle(lo, k) == k
        assert cl.join_cycle(k, k) == k
        assert cl.meet_cycle(lo, k) == lo


def test_join_cycle_matches_poset_oracle():
    for n in (3, 4, 5):
        p = poset("cycle", n)
        elems = p.objects
        index = {t.tube_masks: i for i, t in enumerate(elems)}
        for a in range(len(elems)):
            for b in range(a, len(elems)):
                j = cl.join_cycle(elems[a], elems[b])
                m = cl.meet_cycle(elems[a], elems[b])
                assert index[j.tube_masks] == p.join_table[a][b]
                assert index[m.tube_masks] == p.meet_table[a][b]


def test_cut_is_a_quotient_of_joins_and_meets():
    for n in (4, 5):
        elems = tubings("cycle", n)
        for a in elems:
            for b in elems:
                assert cl.cut(cl.join_cycle(a, b)) == \
                    cl.join_path(cl.cut(a), cl.cut(b))
                assert cl.cut(cl.meet_cycle(a, b)) == \
                    cl.meet_path(cl.cut(a), cl.cut(b))
