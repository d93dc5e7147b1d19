import itertools
import json

import pytest

import tubelat as tl
from tubelat import graph_core as gc
from helpers import (graph, load_fixture, oracle_flip_replacements,
                     oracle_is_maximal, tubings)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_make_graph_shapes():
    assert graph("path", 3).edges == frozenset({(1, 2), (2, 3)})
    assert graph("cycle", 4).edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})
    assert graph("complete", 3).edges == frozenset({(1, 2), (1, 3), (2, 3)})


def test_make_graph_rejects_bad_sizes(monkeypatch):
    with pytest.raises(ValueError):
        tl.make_graph("cycle", 2)
    with pytest.raises(ValueError):
        tl.make_graph("path", 0)
    with pytest.raises(ValueError):
        tl.make_graph("path", 64)
    # a huge n must be refused before its edge set is built
    monkeypatch.setattr(gc, "_expected_edges", None)
    with pytest.raises(ValueError, match="vertex count"):
        tl.make_graph("cycle", 10 ** 12)


def test_custom_graph_must_be_connected_and_simple():
    with pytest.raises(ValueError):
        tl.custom_graph(4, [(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        tl.custom_graph(2, [(1, 1), (1, 2)])
    star = tl.custom_graph(4, [(1, 2), (1, 3), (1, 4)])
    assert star.kind == "custom"


def test_is_tube():
    assert tl.is_tube(graph("cycle", 9), {1, 2, 8, 9})
    assert not tl.is_tube(graph("path", 4), {1, 3})
    assert tl.is_tube(graph("cycle", 4), {1, 2, 3, 4})
    with pytest.raises(ValueError):
        tl.is_tube(graph("path", 3), set())
    with pytest.raises(ValueError):
        tl.is_tube(graph("path", 3), {4})


def test_compatible():
    p3 = graph("path", 3)
    assert tl.compatible(p3, {1}, {3})
    assert tl.compatible(p3, {2}, {2, 3})
    assert not tl.compatible(p3, {2}, {3})
    with pytest.raises(ValueError):
        tl.compatible(graph("path", 4), {1, 3}, {2})


def test_is_maximal_tubing():
    p3 = graph("path", 3)
    assert tl.is_maximal_tubing(p3, [{3}, {2, 3}, {1, 2, 3}])
    assert not tl.is_maximal_tubing(p3, [{2, 3}, {1, 2, 3}])
    c4 = graph("cycle", 4)
    assert tl.is_maximal_tubing(c4, [{3}, {2, 3}, {1, 2, 3}, {1, 2, 3, 4}])


def test_is_maximal_matches_extension_search():
    for kind, n in (("path", 4), ("cycle", 4), ("complete", 3)):
        g = graph(kind, n)
        for t in tubings(kind, n):
            masks = list(t.tube_masks)
            assert oracle_is_maximal(g, masks)
            assert tl.is_maximal_tubing(g, masks)
            for drop in masks:
                if drop == g.full_mask:
                    continue
                rest = [m for m in masks if m != drop]
                assert not tl.is_maximal_tubing(g, rest)
                assert not oracle_is_maximal(g, rest)


def test_top():
    p3 = graph("path", 3)
    t = tl.Tubing.of(p3, [{3}, {2, 3}, {1, 2, 3}])
    assert tl.top(t, {2, 3}) == 2
    c4 = graph("cycle", 4)
    mins = tl.minimum_tubing(c4)
    assert tl.top(mins, {1, 2, 3, 4}) == 4
    c9 = graph("cycle", 9)
    big = tl.Tubing.of(c9, [(2,), (4,), (6,), (8,), (8, 9), (1, 2, 8, 9),
                            (1, 2, 3, 4, 8, 9), (1, 2, 3, 4, 6, 7, 8, 9),
                            tuple(range(1, 10))])
    assert tl.top(big, {1, 2, 8, 9}) == 1


def test_flip_examples():
    p3 = graph("path", 3)
    t = tl.Tubing.of(p3, [{3}, {2, 3}, {1, 2, 3}])
    t2, repl = tl.flip(p3, t, {3})
    assert repl == (2,)
    c4 = graph("cycle", 4)
    chain = tl.minimum_tubing(c4)
    t2, repl = tl.flip(c4, chain, {1, 2, 3})
    assert repl == (1, 2, 4)
    with pytest.raises(ValueError):
        tl.flip(c4, chain, {1, 2, 3, 4})
    with pytest.raises(ValueError):
        tl.flip(c4, chain, {2, 3})


def test_flip_is_an_involution():
    for kind, n in (("path", 4), ("cycle", 5)):
        g = graph(kind, n)
        for t in tubings(kind, n):
            for m in t.tube_masks:
                if m == g.full_mask:
                    continue
                t2, repl = tl.flip(g, t, m)
                t3, repl2 = tl.flip(g, t2, gc.mask_of(repl))
                assert t3 == t
                assert gc.mask_of(repl2) == m


def test_flip_matches_replacement_search():
    cases = [graph("path", 5), graph("cycle", 5), graph("complete", 4),
             tl.custom_graph(4, [(1, 2), (1, 3), (1, 4)]),
             tl.custom_graph(5, [(1, 2), (2, 3), (3, 4), (2, 5)])]
    for g in cases:
        for t in tl.enumerate_maximal_tubings(g):
            for m in t.tube_masks:
                if m == g.full_mask:
                    continue
                _, repl = tl.flip(g, t, m)
                assert oracle_flip_replacements(g, t, m) == [gc.mask_of(repl)]


def test_covers():
    c4 = graph("cycle", 4)
    a = tl.minimum_tubing(c4)
    b = tl.Tubing.of(c4, [{1}, {1, 2}, {1, 2, 4}, {1, 2, 3, 4}])
    assert tl.covers(c4, a, b)
    assert not tl.covers(c4, b, a)
    assert not tl.covers(c4, a, a)
    top = tl.relabel_reverse(a)
    assert not tl.covers(c4, a, top)


def test_covers_agree_with_flips():
    c4 = graph("cycle", 4)
    for a in tubings("cycle", 4):
        for b in tubings("cycle", 4):
            if tl.covers(c4, a, b):
                diff = set(a.tube_masks) - set(b.tube_masks)
                flipped, _ = tl.flip(c4, a, diff.pop())
                assert flipped == b


def test_relabel_reverse():
    for n in (3, 4, 5):
        cn = graph("cycle", n)
        lo = tl.minimum_tubing(cn)
        hi = tl.relabel_reverse(lo)
        assert hi.tubes()[:2] == ((n,), (n - 1, n))
        assert tl.relabel_reverse(hi) == lo
    with pytest.raises(ValueError):
        tl.relabel_reverse(tl.minimum_tubing(
            tl.custom_graph(3, [(1, 2), (1, 3)])))


def test_relabel_reverses_the_order_exhaustively():
    c4 = graph("cycle", 4)
    from helpers import closure_leq
    elems, leq = closure_leq("cycle", 4)
    for a in elems:
        for b in elems:
            assert leq(a, b) == leq(tl.relabel_reverse(b), tl.relabel_reverse(a))


def test_enumeration_counts():
    assert len(tubings("path", 3)) == 5
    assert len(tubings("cycle", 4)) == 20
    assert len(tubings("complete", 3)) == 6
    for n in range(1, 8):
        assert len(tubings("path", n)) == CATALAN[n]


def test_enumeration_matches_catalog():
    catalog = load_fixture("path3_catalog.json")
    expected = [json.dumps(e["tubing"], sort_keys=True, separators=(",", ":"))
                for e in catalog["tubings"]]
    got = [tl.tubing_to_json(t) for t in tubings("path", 3)]
    assert sorted(got) == sorted(expected)


def test_enumeration_is_deterministic():
    first = [t.key() for t in tl.enumerate_maximal_tubings(graph("cycle", 5))]
    second = [t.key() for t in tl.enumerate_maximal_tubings(graph("cycle", 5))]
    assert first == second
    assert len(set(first)) == len(first)


def test_every_tubing_has_n_minus_one_flips():
    # flip builds its result unchecked; every flip must stay maximal
    kite = tl.custom_graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    cases = ([graph("path", n) for n in range(1, 8)]
             + [graph("cycle", n) for n in range(3, 7)]
             + [graph("complete", n) for n in range(1, 6)] + [kite])
    for g in cases:
        for t in tl.enumerate_maximal_tubings(g):
            assert tl.is_maximal_tubing(g, t.tube_masks)
            nbrs = {t2.tube_masks for t2, _, _ in gc.iter_flip_neighbors(g, t)}
            assert len(nbrs) == g.n - 1
            assert all(tl.is_maximal_tubing(g, m) for m in nbrs)


def test_down_sets_and_top_bijection():
    for kind, n in (("path", 4), ("cycle", 5), ("complete", 4)):
        g = graph(kind, n)
        for t in tubings(kind, n):
            tops = {t.top(m) for m in t.tube_masks}
            assert tops == set(range(1, n + 1))
            for x in range(1, n + 1):
                meet = g.full_mask
                for m in t.tube_masks:
                    if m & (1 << (x - 1)):
                        meet &= m
                assert meet == t.down(x)
                assert meet in t.tube_masks


def test_tubing_json_round_trip():
    text = ('{"graph":{"kind":"cycle","n":4},'
            '"tubes":[[3],[2,3],[1,2,3],[1,2,3,4]]}')
    t = tl.tubing_from_json(text)
    assert tl.tubing_to_json(t) == text
    custom = tl.custom_graph(4, [(1, 2), (1, 3), (1, 4)])
    for t in tl.enumerate_maximal_tubings(custom):
        assert tl.tubing_from_json(tl.tubing_to_json(t)) == t


def test_tubing_of_rejects_invalid_sets():
    p3 = graph("path", 3)
    with pytest.raises(ValueError):
        tl.Tubing.of(p3, [{1}, {2}, {1, 2, 3}])
    with pytest.raises(ValueError):
        tl.Tubing.of(p3, [{3}, {2, 3}])
