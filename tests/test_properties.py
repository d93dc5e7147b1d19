"""Lattice laws on random cycle tubings beyond the exhaustive range.

The brute oracles stop at n = 8; here the constructive operations are
checked against the laws of PAPER.md on random search-tree tubings with
n = 10..40. Examples are derandomized, so the suite stays deterministic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import tubelat as tl
from tubelat import cycle_lattice as cl
from helpers import search_tree_tubings

LAWS = settings(derandomize=True, database=None, deadline=None,
                max_examples=40)


def cycle_pairs():
    return st.integers(10, 40).flatmap(lambda n: st.tuples(
        search_tree_tubings("cycle", n), search_tree_tubings("cycle", n)))


@LAWS
@given(cycle_pairs())
def test_join_and_meet_are_lattice_operations(pair):
    j, k = pair
    join, meet = cl.join_cycle(j, k), cl.meet_cycle(j, k)
    assert join == cl.join_cycle(k, j) and meet == cl.meet_cycle(k, j)
    assert cl.join_cycle(j, j) == j and cl.meet_cycle(j, j) == j
    assert cl.join_cycle(j, meet) == j and cl.meet_cycle(j, join) == j
    assert cl.leq_cycle(j, join) and cl.leq_cycle(k, join)
    assert cl.leq_cycle(meet, j) and cl.leq_cycle(meet, k)
    assert tl.is_maximal_tubing(j.graph, join.tube_masks)
    assert tl.is_maximal_tubing(j.graph, meet.tube_masks)


@LAWS
@given(cycle_pairs())
def test_reversal_is_an_order_anti_automorphism(pair):
    j, k = pair
    rj, rk = tl.relabel_reverse(j), tl.relabel_reverse(k)
    assert cl.leq_cycle(j, k) == cl.leq_cycle(rk, rj)
    assert tl.relabel_reverse(cl.join_cycle(j, k)) == cl.meet_cycle(rj, rk)
    assert cl.cut(rj) == tl.relabel_reverse(cl.cut(j))
    x, y = cl.cut(j), cl.cut(k)
    assert tl.relabel_reverse(cl.join_path(x, y)) == \
        cl.meet_path(tl.relabel_reverse(x), tl.relabel_reverse(y))


@LAWS
@given(cycle_pairs())
def test_cut_is_a_lattice_map(pair):
    j, k = pair
    assert cl.cut(cl.join_cycle(j, k)) == cl.join_path(cl.cut(j), cl.cut(k))
    assert cl.cut(cl.meet_cycle(j, k)) == cl.meet_path(cl.cut(j), cl.cut(k))


@LAWS
@given(cycle_pairs())
def test_lift_is_the_least_fiber_element_above(pair):
    j, k = pair
    x = cl.join_path(cl.cut(j), cl.cut(k))
    up = cl.lift(j, x)
    assert tl.is_maximal_tubing(up.graph, up.tube_masks)
    assert cl.cut(up) == x
    assert cl.leq_cycle(j, up)
    assert cl.lift(j, cl.cut(j)) == j
    assert cl.leq_cycle(up, cl.join_cycle(j, k))


@LAWS
@given(st.integers(10, 40).flatmap(lambda n: search_tree_tubings("cycle", n)),
       st.data())
def test_cut_and_sew_are_inverse(j, data):
    x = cl.cut(j)
    assert cl.sew(x, cl.word_of(j)) == j
    left, right = tl.zippers(tl.gtree_of(x.graph, x))
    size = len(left) + len(right)
    slots = data.draw(st.sets(st.integers(0, size - 1), min_size=len(left),
                              max_size=len(left)))
    lefts, rights = iter(left), iter(right)
    word = [next(lefts) if i in slots else next(rights) for i in range(size)]
    assert cl.cut(cl.sew(x, word)) == x


@LAWS
@given(cycle_pairs())
def test_join_coordinates_are_those_of_the_join(pair):
    # the join's cut is the path join of the two cuts, and a checked sew of
    # the join's word over that cut gives the join back
    j, k = pair
    join = cl.join_cycle(j, k)
    x = cl.cut(join)
    assert x == cl.join_path(cl.cut(j), cl.cut(k))
    assert cl.sew(x, list(cl.word_of(join).word)) == join
