import json

import pytest

import tubelat as tl
from tubelat import graph_core as gc
from tubelat import gtree as gt
from helpers import (graph, load_fixture, reference_graphs, reference_gtree_of,
                     reference_validate, tubings)


def tree_of(obj) -> gt.GTree:
    return gt.gtree_from_json(json.dumps(obj))


def test_gtree_of_path_chain():
    p3 = graph("path", 3)
    t = tl.Tubing.of(p3, [{3}, {2, 3}, {1, 2, 3}])
    g = tl.gtree_of(t)
    assert g.root == 1 and g.parent[2] == 1 and g.parent[3] == 2


def test_gtree_of_cycle_chain():
    c4 = graph("cycle", 4)
    t = tl.Tubing.of(c4, [{3}, {2, 3}, {1, 2, 3}, {1, 2, 3, 4}])
    g = tl.gtree_of(t)
    assert g.root == 4
    assert [g.parent[v] for v in (1, 2, 3)] == [4, 1, 2]


def test_gtree_of_nine_vertex_example():
    fx = load_fixture("cycle9_cut_sew.json")
    t = tl.tubing_from_json(json.dumps(fx["tubing"]))
    assert gt.gtree_to_json(tl.gtree_of(t)) == json.dumps(
        fx["tree"], sort_keys=True, separators=(",", ":"))


def test_tubing_of_inverts_gtree_of():
    # gtree_of builds its tree unchecked; GTree.of must accept the same table
    cases = ([("path", gt.PATH_BST, n) for n in range(1, 7)]
             + [("cycle", gt.CYCLE_CBT, n) for n in range(3, 7)])
    for kind, treekind, n in cases:
        g = graph(kind, n)
        for t in tubings(kind, n):
            tree = tl.gtree_of(t)
            parent = {v: tree.parent[v] for v in range(1, n + 1)
                      if v != tree.root}
            assert tree == gt.GTree.of(n, tree.root, parent)
            assert tl.validate(tree, treekind)
            assert tl.tubing_of(g, tree) == t


def test_gtree_of_matches_the_nested_scan():
    # with path 9, every path tubing up to n = 9: the cuts whose trees
    # _encode stores
    for g in [*reference_graphs(), graph("path", 9)]:
        for t in tl.enumerate_maximal_tubings(g):
            assert tl.gtree_of(t) == reference_gtree_of(t)


def test_tubing_of_examples():
    c4 = graph("cycle", 4)
    chain = gt.GTree.of(4, 4, {1: 2, 2: 3, 3: 4})
    assert tl.tubing_of(c4, chain).tubes() == (
        (1,), (1, 2), (1, 2, 3), (1, 2, 3, 4))
    p3 = graph("path", 3)
    wedge = gt.GTree.of(3, 2, {1: 2, 3: 2})
    assert tl.tubing_of(p3, wedge).tubes() == ((1,), (3,), (1, 2, 3))


def test_tubing_of_rejects_disconnected_down_sets():
    p3 = graph("path", 3)
    bad = gt.GTree.of(3, 2, {3: 1, 1: 2})  # down-set of 1 is {1, 3}
    with pytest.raises(ValueError):
        tl.tubing_of(p3, bad)


def test_pair_statistics_of_ascending_chain():
    g = gt.GTree.of(5, 5, {v: v + 1 for v in range(1, 5)})
    st = tl.pair_statistics(g)
    assert st.inv == frozenset() and st.inc == frozenset()
    assert st.asc == frozenset((v, v + 1) for v in range(1, 5))
    assert st.desc == frozenset()


def test_pair_statistics_inversions_example():
    fx = load_fixture("cycle8_order_trio.json")
    st = tl.pair_statistics(tree_of(fx["k"]))
    assert sorted(st.inv) == [tuple(p) for p in fx["inv_k"]]


def test_pair_statistics_of_single_descent_tree():
    from tubelat import lattice_analysis as la
    st = tl.pair_statistics(la.canonical_ji(7, 3, 1))
    assert st.inv == frozenset({(3, 4)})
    assert st.desc == frozenset({(3, 4)})


def test_pair_statistics_partition_property():
    for kind, n in (("path", 5), ("cycle", 5)):
        allpairs = {(i, j) for j in range(2, n + 1) for i in range(1, j)}
        for t in tubings(kind, n):
            st = tl.pair_statistics(tl.gtree_of(t))
            assert st.inv | st.coinv | st.inc == allpairs
            assert not (st.inv & st.coinv) and not (st.inv & st.inc)
            assert st.asc <= st.coinv and st.desc <= st.inv
            assert len(st.asc) + len(st.desc) == n - 1


def test_validate_catalog_trees():
    catalog = load_fixture("cycle4_catalog.json")
    assert len(catalog["trees"]) == 20
    for entry in catalog["trees"]:
        assert tl.validate(tree_of(entry["tree"]), gt.CYCLE_CBT)


def test_validate_chain_for_both_kinds():
    g = gt.GTree.of(5, 5, {v: v + 1 for v in range(1, 5)})
    assert tl.validate(g, gt.PATH_BST)
    assert tl.validate(g, gt.CYCLE_CBT)


def test_validate_rejects_bad_shapes():
    # two children on the same side of 1 in the rotated order
    two_rights = gt.GTree.of(4, 4, {1: 4, 2: 1, 3: 1})
    assert not tl.validate(two_rights, gt.CYCLE_CBT)
    # root of a cycle tree must have exactly one child
    forked_root = gt.GTree.of(4, 4, {1: 4, 2: 4, 3: 2})
    assert not tl.validate(forked_root, gt.CYCLE_CBT)
    # subtree escapes its side: 3 sits below the left child of 2
    escaped = gt.GTree.of(4, 4, {2: 4, 1: 2, 3: 1})
    assert not tl.validate(escaped, gt.CYCLE_CBT)
    # same shape violations in the plain order
    assert not tl.validate(gt.GTree.of(3, 1, {2: 1, 3: 1}), gt.PATH_BST)


def test_validate_rejects_named_breaks_as_the_subtree_scan_does():
    wrong_side = gt.GTree.of(3, 2, {1: 2, 3: 1})  # 3 under 2's left child
    two_lefts = gt.GTree.of(3, 3, {1: 3, 2: 3})
    forked_root = gt.GTree.of(4, 4, {1: 4, 2: 4, 3: 2})
    for g, kind in ((wrong_side, gt.PATH_BST), (two_lefts, gt.PATH_BST),
                    (forked_root, gt.CYCLE_CBT)):
        assert not tl.validate(g, kind) and not reference_validate(g, kind)


def leaf_regrafts(g):
    """g with each leaf hung from every other vertex in turn: children on
    the wrong side, two children on one side, a cycle root with two."""
    for w in range(1, g.n + 1):
        if w != g.root and not g.children[w]:
            for u in range(1, g.n + 1):
                if u not in (w, g.parent[w]):
                    table = list(g.parent)
                    table[w] = u
                    yield gt.GTree(g.n, g.root, tuple(table))


@pytest.mark.parametrize("kind, n", [("path", n) for n in range(1, 8)]
                         + [("cycle", n) for n in range(3, 8)])
def test_validate_matches_the_subtree_scan(kind, n):
    # every tree of the graph and every leaf regraft of it, read as both
    # kinds of search tree
    verdicts = set()
    for t in tubings(kind, n):
        g = tl.gtree_of(t)
        for h in (g, *leaf_regrafts(g)):
            for treekind in (gt.PATH_BST, gt.CYCLE_CBT):
                got = tl.validate(h, treekind)
                assert got == reference_validate(h, treekind)
                verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("kind, treekind", [("path", gt.PATH_BST),
                                            ("cycle", gt.CYCLE_CBT)])
def test_tree_moves_realize_the_flips(kind, treekind):
    for n in range(3, 7):
        g0 = graph(kind, n)
        for t in tubings(kind, n):
            g = tl.gtree_of(t)
            for x, rep, v, _ in gc._flips(t):
                moved = tl.tree_move(g, v, treekind)
                assert tl.validate(moved, treekind)
                assert tl.tubing_of(g0, moved) == gc._swap(t, x, rep)


def test_validate_catalog_covers_enumeration():
    catalog = load_fixture("cycle4_catalog.json")
    keys = {json.dumps(e["tubing"], sort_keys=True, separators=(",", ":"))
            for e in catalog["trees"]}
    assert keys == {tl.tubing_to_json(t) for t in tubings("cycle", 4)}


def test_tree_move_fixture():
    fx = load_fixture("cycle5_tree_moves.json")
    base = tree_of(fx["base"])
    c5 = graph("cycle", 5)
    t = tl.tubing_of(c5, base)
    for mv in fx["moves"]:
        moved = tl.tree_move(base, mv["vertex"], gt.CYCLE_CBT)
        assert gt.gtree_to_json(moved) == json.dumps(
            mv["result"], sort_keys=True, separators=(",", ":"))
        t2 = tl.tubing_of(c5, moved)
        if mv["direction"] == "up":
            assert tl.covers(t, t2)
        else:
            assert tl.covers(t2, t)


def test_tree_move_matches_flip():
    for kind, treekind, n in (("path", gt.PATH_BST, 5),
                              ("cycle", gt.CYCLE_CBT, 5)):
        g = graph(kind, n)
        for t in tubings(kind, n):
            tree = tl.gtree_of(t)
            for v in range(1, n + 1):
                if v == tree.root:
                    continue
                moved = tl.tubing_of(g, tl.tree_move(tree, v, treekind))
                flipped, _ = tl.flip(t, t.down(v))
                assert moved == flipped


def test_tree_move_rejects_root():
    g = gt.GTree.of(3, 3, {1: 3, 2: 1})
    with pytest.raises(ValueError):
        tl.tree_move(g, 3, gt.CYCLE_CBT)


def test_zippers():
    fx = load_fixture("cycle9_cut_sew.json")
    left, right = tl.zippers(tree_of(fx["cut_tree"]))
    assert list(left) == fx["left_zipper"]
    assert list(right) == fx["right_zipper"]
    n = 6
    chain_up = gt.GTree.of(n, n, {v: v + 1 for v in range(1, n)})
    assert tl.zippers(chain_up) == (tuple(range(1, n)), ())
    chain_down = gt.GTree.of(n, 1, {v + 1: v for v in range(1, n)})
    assert tl.zippers(chain_down) == ((), tuple(range(n, 1, -1)))


def test_zipper_vertices_interleave_around_the_root():
    for t in tubings("path", 6):
        g = tl.gtree_of(t)
        left, right = tl.zippers(g)
        seq = list(left) + [g.root] + list(reversed(right))
        assert seq == sorted(seq)
        assert (not left or left[0] == 1) and (not right or right[0] == 6)


def test_zippers_reject_non_search_trees():
    g = gt.GTree.of(4, 2, {3: 2, 4: 3, 1: 4})  # cyclic shape, not a BST
    assert tl.validate(g, gt.CYCLE_CBT) and not tl.validate(g, gt.PATH_BST)
    with pytest.raises(ValueError):
        tl.zippers(g)


def test_descents_bound_right_edges():
    for n in range(3, 7):
        for t in tubings("cycle", n):
            tree = tl.gtree_of(t)
            pos = lambda v: (v - tree.root - 1) % n
            rights = sum(1 for v in range(1, n + 1) if v != tree.root
                         for c in tree.children[v] if pos(c) > pos(v))
            assert len(tl.pair_statistics(tree).desc) >= rights


def test_inversion_sets_determine_cycle_trees():
    for n in range(3, 7):
        seen = {}
        for t in tubings("cycle", n):
            inv = tl.pair_statistics(tl.gtree_of(t)).inv
            assert inv not in seen
            seen[inv] = t


def test_gtree_json_format():
    text = ('{"n":9,"parent":{"1":3,"2":1,"3":7,"4":3,"6":7,"7":5,"8":9,'
            '"9":1},"root":5}')
    g = gt.gtree_from_json(text)
    assert g.root == 5 and g.parent[7] == 5 and g.parent[8] == 9
    assert gt.gtree_to_json(g) == text


def test_gtree_dot_export():
    g = gt.GTree.of(3, 1, {2: 1, 3: 2})
    dot = gt.gtree_to_dot(g)
    assert '"1" [shape=doublecircle];' in dot
    assert '"3" -> "2";' in dot and '"2" -> "1";' in dot


def test_gtree_of_rejects_malformed_trees():
    with pytest.raises(ValueError):
        gt.GTree.of(3, 1, {2: 3, 3: 2})  # cycle between 2 and 3
    with pytest.raises(ValueError):
        gt.GTree.of(3, 1, {2: 1})  # 3 has no parent
    with pytest.raises(ValueError, match="bad parent entry '03' -> 1"):
        gt.GTree.of(3, 1, {2: 1, "03": 1})  # not the label of vertex 3


def test_gtree_of_rejects_vertex_counts_out_of_range():
    for n in (0, 64):
        with pytest.raises(ValueError,
                           match=rf"vertex count must be in 1\.\.63, got {n}"):
            gt.GTree.of(n, 1, {})
