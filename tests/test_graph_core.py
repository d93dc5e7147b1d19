import itertools
import json
import re

import pytest

import tubelat as tl
from tubelat import graph_core as gc
import helpers
from helpers import (connected_graphs, graph, load_fixture,
                     oracle_enumeration, oracle_flip_replacements,
                     oracle_is_maximal, reference_build_poset,
                     reference_down_masks, reference_flip_graph,
                     reference_flips, reference_graphs,
                     reference_relabel_reverse,
                     reference_top, tubings)

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
    for edge in ([1, 2, 3], [1], []):
        with pytest.raises(ValueError,
                           match=re.escape(f"must be vertex pairs, got {edge}")):
            tl.custom_graph(3, [edge, (2, 3)])


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
    assert t.top({2, 3}) == 2
    c4 = graph("cycle", 4)
    mins = tl.minimum_tubing(c4)
    assert mins.top({1, 2, 3, 4}) == 4
    c9 = graph("cycle", 9)
    big = tl.Tubing.of(c9, [(2,), (4,), (6,), (8,), (8, 9), (1, 2, 8, 9),
                            (1, 2, 3, 4, 8, 9), (1, 2, 3, 4, 6, 7, 8, 9),
                            tuple(range(1, 10))])
    assert big.top({1, 2, 8, 9}) == 1


def test_flip_examples():
    p3 = graph("path", 3)
    t = tl.Tubing.of(p3, [{3}, {2, 3}, {1, 2, 3}])
    t2, repl = tl.flip(t, {3})
    assert repl == (2,)
    c4 = graph("cycle", 4)
    chain = tl.minimum_tubing(c4)
    t2, repl = tl.flip(chain, {1, 2, 3})
    assert repl == (1, 2, 4)
    with pytest.raises(ValueError):
        tl.flip(chain, {1, 2, 3, 4})
    with pytest.raises(ValueError):
        tl.flip(chain, {2, 3})


def test_flip_is_an_involution():
    for kind, n in (("path", 4), ("cycle", 5)):
        g = graph(kind, n)
        for t in tubings(kind, n):
            for m in t.tube_masks:
                if m == g.full_mask:
                    continue
                t2, repl = tl.flip(t, m)
                t3, repl2 = tl.flip(t2, gc.mask_of(repl))
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
                _, repl = tl.flip(t, m)
                assert oracle_flip_replacements(g, t, m) == [gc.mask_of(repl)]
            for t2, _, new_top in gc.iter_flip_neighbors(t):
                (replacement,) = set(t2.tube_masks) - set(t.tube_masks)
                assert new_top == t2.top(replacement)


def kernel_graphs():
    """Every connected labeled graph on n <= 4 vertices, and the path,
    cycle and complete graphs with n <= 5."""
    for n in range(1, 5):
        yield from connected_graphs(n)
    for kind, low in (("path", 1), ("cycle", 3), ("complete", 1)):
        for n in range(low, 6):
            yield graph(kind, n)


def test_enumeration_matches_oracle_search_in_order():
    for g in kernel_graphs():
        assert list(tl.enumerate_maximal_tubings(g)) == oracle_enumeration(g)


def test_flip_tops_and_poset_covers_match_covers():
    for g in kernel_graphs():
        p = tl.build_poset(g)
        for i, t in enumerate(p.objects):
            for t2, old_top, new_top in gc.iter_flip_neighbors(t):
                (x,) = set(t.tube_masks) - set(t2.tube_masks)
                (y,) = set(t2.tube_masks) - set(t.tube_masks)
                assert (old_top, new_top) == (t.top(x), t2.top(y))
            assert set(p.covers_up[i]) == {
                j for j, b in enumerate(p.objects) if tl.covers(t, b)}


def test_build_poset_matches_the_two_pass_reference():
    # reference_graphs() holds path 8 and cycle 7
    for g in reference_graphs():
        assert tl.build_poset(g) == reference_build_poset(g)


def test_rotations_match_the_parent_scan():
    # _flips reads each flip as a rotation of the G-tree; the parent scan
    # over the sorted masks that it replaced lists them in another order
    for g in reference_graphs():
        for t in tl.enumerate_maximal_tubings(g):
            assert sorted(gc._flips(t)) == sorted(reference_flips(t))


def counting(fn, calls):
    def counted(t):
        calls.append(t)
        return fn(t)
    return counted


def test_flip_pass_matches_the_reference_on_every_graph_on_five_vertices(
        monkeypatch):
    # layer order, covers as sets, and a refusal halfway through the pass
    # after the flips of the same tubings
    graphs = list(connected_graphs(5))
    assert len(graphs) == 728
    for g in graphs:
        elems, covers_up = gc._flip_graph(g, covers=True)
        want, want_up = reference_flip_graph(g, covers=True)
        assert elems == want
        assert list(map(set, covers_up)) == list(map(set, want_up))
        assert gc._flip_graph(g) == (elems, None)
        cap = len(elems) // 2
        refused = []
        for module, name, run in ((gc, "_flips", gc._flip_graph),
                                  (helpers, "reference_flips",
                                   reference_flip_graph)):
            calls = []
            with monkeypatch.context() as m:
                m.setattr(module, name, counting(getattr(module, name), calls))
                with pytest.raises(ValueError, match=f"more than {cap} "):
                    run(g, max_elements=cap)
            refused.append(calls)
        assert refused[0] == refused[1]


def test_covers():
    c4 = graph("cycle", 4)
    a = tl.minimum_tubing(c4)
    b = tl.Tubing.of(c4, [{1}, {1, 2}, {1, 2, 4}, {1, 2, 3, 4}])
    assert tl.covers(a, b)
    assert not tl.covers(b, a)
    assert not tl.covers(a, a)
    top = tl.relabel_reverse(a)
    assert not tl.covers(a, top)
    # the path's minimum holds the same masks, on another graph
    for other in (graph("path", 4), graph("cycle", 5)):
        with pytest.raises(ValueError, match="different graphs"):
            tl.covers(a, tl.minimum_tubing(other))


def test_covers_agree_with_flips():
    for a in tubings("cycle", 4):
        for b in tubings("cycle", 4):
            if tl.covers(a, b):
                diff = set(a.tube_masks) - set(b.tube_masks)
                flipped, _ = tl.flip(a, diff.pop())
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


def test_top_matches_the_inner_union_scan():
    for g in reference_graphs():
        for t in tl.enumerate_maximal_tubings(g):
            assert [t.top(m) for m in t.tube_masks] == \
                [reference_top(t, m) for m in t.tube_masks]


def test_down_masks_match_the_per_vertex_scan():
    for g in reference_graphs() + [graph("cycle", 8)]:
        for t in tl.enumerate_maximal_tubings(g):
            assert t.down_masks == reference_down_masks(t)


def test_relabel_reverse_matches_the_vertex_list_version():
    refused = 0
    for g in reference_graphs():
        for t in tl.enumerate_maximal_tubings(g):
            try:
                want = reference_relabel_reverse(t)
            except ValueError:
                refused += 1
                with pytest.raises(ValueError, match="reversal"):
                    tl.relabel_reverse(t)
            else:
                assert tl.relabel_reverse(t) == want
    # every tubing of the star, and of no other graph, is refused
    star = tl.custom_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert refused == len(tl.enumerate_maximal_tubings(star)) > 0


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


def test_tube_tables_match_their_definitions():
    for m in range(1 << 10):
        assert gc._tube_order[m] == (m.bit_count(), gc.vertices_of(m))
        assert gc._tube_text[m] == json.dumps(list(gc.vertices_of(m)),
                                              separators=(",", ":"))


def test_tube_tables_that_start_over_give_the_same_output(monkeypatch):
    custom = reference_graphs()[-1]
    assert custom.kind == "custom"
    cases = [graph("path", 7), graph("cycle", 6), graph("complete", 5)]

    def outputs():
        return ([[tl.tubing_to_json(t) for t in tl.enumerate_maximal_tubings(g)]
                 for g in cases], gc.all_tubes(custom))

    want = outputs()
    monkeypatch.setattr(gc, "_TUBE_TABLE_SIZE", 2)
    for table in (gc._tube_order, gc._tube_text):
        table.clear()  # so that every mask is a miss
    assert outputs() == want
    assert len(gc._tube_order) <= 2 and len(gc._tube_text) <= 2


def test_every_tubing_has_n_minus_one_flips():
    # flip builds its result unchecked; every flip must stay maximal
    kite = tl.custom_graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    cases = ([graph("path", n) for n in range(1, 8)]
             + [graph("cycle", n) for n in range(3, 7)]
             + [graph("complete", n) for n in range(1, 6)] + [kite])
    for g in cases:
        for t in tl.enumerate_maximal_tubings(g):
            assert tl.is_maximal_tubing(g, t.tube_masks)
            nbrs = {t2.tube_masks for t2, _, _ in gc.iter_flip_neighbors(t)}
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
