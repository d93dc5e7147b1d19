import dataclasses
import hashlib
import itertools
import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest

import tubelat as tl
from tubelat import cli
from tubelat import cycle_lattice as cl
from tubelat import graph_core as gc
from tubelat import gtree as gt
from tubelat import lattice_analysis as la
from helpers import (diamond, fiber_pairs, graph, lattice_join_failure,
                     lattice_meet_failure, load_fixture,
                     order_pair_failure, pairs_order_failure,
                     quotient_pair_failure, reference_transitivity_witness,
                     search_tree_tubing, selfdual_pair_failure)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tubing(tmp_path, name, t):
    path = tmp_path / name
    path.write_text(tl.tubing_to_json(t), encoding="utf-8")
    return str(path)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--graph", "cycle", "--n", "6",
                       "--format", "count")
    assert code == 0 and out == "252\n"
    code, out, _ = run(capsys, "enumerate", "--graph", "path", "--n", "4",
                       "--format", "count")
    assert code == 0 and out == "14\n"


def test_enumerate_json_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "--graph", "path", "--n", "3",
                       "--format", "json")
    lines = out.strip().split("\n")
    assert code == 0 and len(lines) == 5
    assert all(json.loads(line)["graph"] == {"kind": "path", "n": 3}
               for line in lines)


def test_enumerate_rejects_bad_and_infeasible_sizes(capsys):
    code, _, err = run(capsys, "enumerate", "--graph", "cycle", "--n", "2")
    assert code == 2 and err
    code, _, err = run(capsys, "enumerate", "--graph", "cycle", "--n", "12")
    assert code == 3 and "cap" in err


@pytest.mark.parametrize("kind, n, digest", [
    ("path", 10, "0c657fd30a0aec036eaeba334a6b1d681342598803b65eec1bf9b6fda4c60ba3"),
    ("cycle", 9, "76339b3658b6c0e9682a5f3baecda357d9a39c572b0707464116b5c3b4301314"),
], ids=["path-10", "cycle-9"])
def test_enumerate_json_catalog_is_pinned(capsys, kind, n, digest):
    code, out, _ = run(capsys, "enumerate", "--graph", kind, "--n", str(n),
                       "--format", "json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n, digest", [
    (5, "53c5d64065731fa81cd1c57ceb5b24a324a0e1b72d862c1aa50d413d539a07fb"),
    (9, "37d4af397b2d125ba5dca6c3f6795c43688133a6e0c5058f2a5e063801e7ca51"),
    (12, "16be066c9a45b140488552288a758d1726026a90df3a984548821f91450f9718"),
    (16, "936f8ac73102e48ad7e1f2709c347e369792e97c21dce6988b5ca959e32aa476"),
])
def test_forcing_json_is_pinned(capsys, n, digest):
    code, out, _ = run(capsys, "forcing", "--n", str(n))
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_order_command(capsys, tmp_path):
    fx = load_fixture("cycle8_order_trio.json")
    c8 = graph("cycle", 8)
    trio = {name: gt.tubing_of(c8, gt.gtree_from_json(json.dumps(fx[name])))
            for name in ("j", "k", "l")}
    j = write_tubing(tmp_path, "j.json", trio["j"])
    k = write_tubing(tmp_path, "k.json", trio["k"])
    l = write_tubing(tmp_path, "l.json", trio["l"])
    code, out, _ = run(capsys, "order", "--a", k, "--b", j)
    assert code == 0 and out == '{"geq":false,"leq":true}\n'
    code, out, _ = run(capsys, "order", "--a", l, "--b", j)
    assert code == 0 and out == '{"geq":false,"leq":false}\n'
    code, out, _ = run(capsys, "order", "--a", j, "--b", j)
    assert code == 0 and out == '{"geq":true,"leq":true}\n'


def test_order_rejects_mismatched_sizes(capsys, tmp_path):
    a = write_tubing(tmp_path, "a.json", tl.minimum_tubing(graph("cycle", 4)))
    b = write_tubing(tmp_path, "b.json", tl.minimum_tubing(graph("cycle", 5)))
    code, _, err = run(capsys, "order", "--a", a, "--b", b)
    assert code == 2 and err


def test_order_rejects_unparseable_files(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "order", "--a", str(bad), "--b", str(bad))
    assert code == 2 and err


def test_cut_sew_fiber_lift_commands(capsys, tmp_path):
    fx = load_fixture("cycle9_cut_sew.json")
    jfile = write_json(tmp_path, "j.json", fx["tubing"])
    xfile = write_json(tmp_path, "x.json", fx["cut_tubing"])
    code, out, _ = run(capsys, "cut", "--input", jfile)
    assert code == 0
    assert json.loads(out) == fx["cut_tubing"]
    code, out, _ = run(capsys, "sew", "--base", xfile, "--word", "9137")
    assert code == 0 and json.loads(out) == fx["tubing"]
    code, out, _ = run(capsys, "fiber", "--base", xfile, "--format", "count")
    assert code == 0 and out == "6\n"
    code, out, _ = run(capsys, "fiber", "--base", xfile)
    words = [json.loads(line)["word"] for line in out.strip().split("\n")]
    assert words == fx["fiber_words"]
    code, out, _ = run(capsys, "lift", "--input", jfile, "--target", xfile)
    assert code == 0 and json.loads(out) == fx["tubing"]


@pytest.mark.parametrize("obj", [
    {"tubes": [[1]]},
    {"graph": {"kind": "cycle", "n": 4}, "tubes": 5},
    [1, 2],
    {"graph": {"kind": "path", "n": 3}, "tubes": [[1], [1, 2], [1, 2.5]]},
    {"graph": {"kind": "path", "n": 3}, "tubes": [[1], [1, 2], [1, 2, 99]]},
    {"graph": {"kind": "custom", "n": 3, "edges": [[1, 2], 3]}, "tubes": []},
])
def test_malformed_tubing_json_exits_two(capsys, tmp_path, obj):
    bad = write_json(tmp_path, "bad.json", obj)
    code, out, err = run(capsys, "cut", "--input", bad)
    assert code == 2 and out == "" and err.startswith("error:")


def write_wide_fiber_base(tmp_path):
    # path tubing rooted at 15 whose zippers are the chains 1..14 and 30..16
    n = 30
    tubes = ([list(range(1, k + 1)) for k in range(1, 15)]
             + [list(range(k, n + 1)) for k in range(16, n + 1)]
             + [list(range(1, n + 1))])
    return write_json(tmp_path, "x.json",
                      {"graph": {"kind": "path", "n": n}, "tubes": tubes})


def test_fiber_count_does_not_list_the_words(capsys, tmp_path):
    base = write_wide_fiber_base(tmp_path)
    code, out, _ = run(capsys, "fiber", "--base", base, "--format", "count")
    assert code == 0 and out == "77558760\n"


def test_fiber_json_is_capped(capsys, tmp_path):
    base = write_wide_fiber_base(tmp_path)
    code, out, err = run(capsys, "fiber", "--base", base)
    assert code == 3 and out == ""
    assert "cap" in err and "(use --force to override)" in err


def test_join_meet_commands(capsys, tmp_path):
    c5 = graph("cycle", 5)
    lo = tl.minimum_tubing(c5)
    some = tl.enumerate_maximal_tubings(c5)[17]
    a = write_tubing(tmp_path, "a.json", lo)
    b = write_tubing(tmp_path, "b.json", some)
    code, out, _ = run(capsys, "join", "--a", a, "--b", b)
    assert code == 0 and out == tl.tubing_to_json(some) + "\n"
    code, out, _ = run(capsys, "meet", "--a", a, "--b", b)
    assert code == 0 and out == tl.tubing_to_json(lo) + "\n"
    p5 = graph("path", 5)
    pa = write_tubing(tmp_path, "pa.json", tl.minimum_tubing(p5))
    pb = write_tubing(tmp_path, "pb.json",
                      tl.relabel_reverse(tl.minimum_tubing(p5)))
    code, out, _ = run(capsys, "join", "--a", pa, "--b", pb)
    assert code == 0
    assert json.loads(out) == json.loads(
        tl.tubing_to_json(tl.relabel_reverse(tl.minimum_tubing(p5))))


def test_join_meet_commands_beyond_the_exhaustive_range(capsys, tmp_path):
    rng = random.Random(7)
    for kind, n in (("path", 30), ("cycle", 20)):
        a, b = (search_tree_tubing(kind, n, rng.randint) for _ in range(2))
        fa = write_tubing(tmp_path, "a.json", a)
        fb = write_tubing(tmp_path, "b.json", b)
        code, out, _ = run(capsys, "join", "--a", fa, "--b", fb)
        assert code == 0
        join = tl.tubing_from_json(out)
        code, out, _ = run(capsys, "meet", "--a", fa, "--b", fb)
        assert code == 0
        meet = tl.tubing_from_json(out)
        leq = cl.leq_cycle if kind == "cycle" else cl.leq_path
        assert leq(a, join) and leq(b, join)
        assert leq(meet, a) and leq(meet, b)


def test_gtree_conversion_commands(capsys, tmp_path):
    fx = load_fixture("cycle9_cut_sew.json")
    tub = write_json(tmp_path, "t.json", fx["tubing"])
    code, out, _ = run(capsys, "gtree", "--input", tub)
    assert code == 0 and json.loads(out) == fx["tree"]
    tree = write_json(tmp_path, "tree.json", fx["tree"])
    code, out, _ = run(capsys, "gtree", "--input", tree, "--graph", "cycle")
    assert code == 0 and json.loads(out) == fx["tubing"]
    code, _, err = run(capsys, "gtree", "--input", tree)
    assert code == 2 and err
    code, out, _ = run(capsys, "gtree", "--input", tub, "--format", "dot")
    assert code == 0 and out.startswith("digraph gtree {")
    assert '"5" [shape=doublecircle];' in out


@pytest.mark.parametrize("obj", [
    5,
    {"n": 3, "root": 1},
    {"n": 3, "root": 1, "parent": [2, 1]},
    {"n": 3, "root": 1, "parent": {"2": [1], "3": 1}},
    {"n": 64, "root": 1, "parent": {}},
    {"n": 3, "root": 1, "parent": {"2": 1, "3": "2"}},
    {"n": 3, "root": 1, "parent": {"2": 3, "3": 2}},  # a cycle
    {"n": 3, "root": 1, "parent": {"2": 1, "3": 4}},  # out of range
    {"n": 10 ** 6, "root": 1, "parent": {}},
])
def test_malformed_tree_json_exits_two(capsys, tmp_path, obj):
    bad = write_json(tmp_path, "bad.json", obj)
    code, out, err = run(capsys, "gtree", "--input", bad, "--graph", "cycle")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("kind", ["path", "cycle"])
def test_gtree_accepts_a_chain_at_the_vertex_cap(capsys, tmp_path, kind):
    n = gc.MAX_VERTICES
    chain = write_json(tmp_path, "chain.json", {
        "n": n, "root": n, "parent": {str(v): v + 1 for v in range(1, n)}})
    code, out, err = run(capsys, "gtree", "--input", chain, "--graph", kind)
    assert code == 0 and err == ""
    assert json.loads(out)["tubes"] == [list(range(1, k + 1))
                                        for k in range(1, n + 1)]


@pytest.mark.parametrize("command, obj", [
    (("join", "--a", "{}", "--b", "{}"),
     {"graph": {"kind": "path", "n": 2}, "tubes": [[True], [1, 2]]}),
    (("gtree", "--input", "{}"),
     {"graph": {"kind": "path", "n": True}, "tubes": [[1]]}),
    (("gtree", "--input", "{}"),
     {"graph": {"kind": "custom", "n": 2, "edges": [[True, 2]]},
      "tubes": [[1], [1, 2]]}),
    (("gtree", "--input", "{}", "--graph", "path"),
     {"n": True, "root": 1, "parent": {}}),
    (("gtree", "--input", "{}", "--graph", "cycle"),
     {"n": 3, "root": True, "parent": {"2": 1, "3": 2}}),
    (("gtree", "--input", "{}", "--graph", "cycle"),
     {"n": 3, "root": 1, "parent": {"2": True, "3": 2}}),
])
def test_json_booleans_are_not_integers(capsys, tmp_path, command, obj):
    # json loads true as True, which is an int equal to 1
    bad = write_json(tmp_path, "bad.json", obj)
    code, out, err = run(capsys, *(a.format(bad) for a in command))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_deeply_nested_json_exits_two(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    for argv in (("order", "--a", str(deep), "--b", str(deep)),
                 ("gtree", "--input", str(deep), "--graph", "cycle")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")


def test_ji_kappa_forcing_commands(capsys):
    code, out, _ = run(capsys, "ji", "--n", "7", "--i", "3", "--k", "1")
    assert code == 0
    tree = json.loads(out)
    assert tree["root"] == 7 and tree["parent"]["4"] == 3
    code, out, _ = run(capsys, "kappa", "--n", "5", "--i", "1", "--k", "1")
    assert code == 0 and out == '{"i":4,"k":4}\n'
    code, out, _ = run(capsys, "forcing", "--n", "3")
    obj = json.loads(out)
    assert len(obj["to"]) == 6
    code, _, err = run(capsys, "ji", "--n", "7", "--i", "9", "--k", "1")
    assert code == 2 and err


@pytest.mark.parametrize("argv, want", [
    (("ji", "--n", "1000000", "--i", "1", "--k", "1"), 2),
    (("forcing", "--n", "17"), 3),
    (("forcing", "--n", "100000"), 3),
    (("forcing", "--n", "100000", "--force"), 2),
    (("verify", "--selector", "cu", "--n", "100000", "--force"), 2),
    (("verify", "--selector", "lattice", "--n", "10"), 3),
    (("kappa", "--n", "100000", "--i", "99999", "--k", "99999"), 2),
    (("kappa", "--n", "2", "--i", "1", "--k", "1"), 2),
], ids=["ji", "forcing-cap", "forcing-huge", "forcing-huge-forced",
        "verify-cu-huge-forced", "verify-lattice-cap", "kappa-huge",
        "kappa-too-small"])
def test_huge_n_exits_before_allocating(capsys, argv, want):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == want and out == "" and err
    assert peak < 1 << 20


def test_hasse_and_mobius_commands(capsys):
    code, out, _ = run(capsys, "hasse", "--graph", "path", "--n", "3")
    assert code == 0 and out.count("->") == 5
    code, out, err = run(capsys, "hasse", "--graph", "cycle", "--n", "9")
    assert code == 3 and out == "" and "(use --force to override)" in err
    code, out, _ = run(capsys, "mobius", "--graph", "cycle", "--n", "3")
    rows = out.strip().split("\n")
    assert code == 0 and len(rows) == 6
    code, _, err = run(capsys, "mobius", "--graph", "cycle", "--n", "7")
    assert code == 3 and "cap" in err


def test_verify_selectors(capsys):
    code, out, _ = run(capsys, "verify", "--selector", "cu", "--n", "10")
    assert code == 0 and out.startswith("PASS cu (n=10)")
    code, out, _ = run(capsys, "verify", "--selector", "ji", "--n", "4")
    assert code == 0 and "PASS ji" in out
    code, out, _ = run(capsys, "verify", "--selector", "lattice", "--n", "3")
    assert code == 0
    for selector, cap in (("lattice", 9), ("order", 9), ("quotient", 9),
                          ("sdl", 9), ("selfdual", 9), ("regular", 9),
                          ("pairs", 5)):
        code, out, err = run(capsys, "verify", "--selector", selector,
                             "--n", str(cap + 1))
        assert code == 3 and out == "" and f"{selector} is n <= {cap}" in err
    code, out, _ = run(capsys, "verify", "--selector", "sdl", "--n", "6")
    assert code == 0 and out == ("PASS sdl (n=6)\n  sdl: both "
                                 "semidistributive laws hold on all triples "
                                 "(n=6)\n")


def test_verify_mobius_cap(capsys):
    code, out, _ = run(capsys, "verify", "--selector", "mobius", "--n", "7")
    assert code == 0 and out == ("PASS mobius (n=7)\n  mobius: all values "
                                 "lie in -1..1 on 924 elements (n=7)\n")
    code, out, err = run(capsys, "verify", "--selector", "mobius",
                         "--n", "10")
    assert code == 3 and out == "" and "mobius is n <= 9" in err


def test_verify_all_runs_every_suite(capsys):
    code, out, _ = run(capsys, "verify", "--selector", "all", "--n", "3")
    assert code == 0
    for selector in cli.VERIFY_CAPS:
        assert f"PASS {selector}" in out


def test_verify_all_n5_stdout_is_pinned(capsys):
    pinned = (Path(__file__).parent.parent / "perfbench" / "expected"
              / "verify_all_n5.stdout").read_text(encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--selector", "all", "--n", "5")
    assert code == 0 and out == pinned


@pytest.mark.parametrize("n, digest", [
    (3, "6a7172852682b54220182ef79d609d9d03b83caed4810d998ac5f0d1aa80c83c"),
    (4, "1d2505e0e19c38a989a7a51ffea388e0987a25c3d2e7639f8f64c6a30090ede2"),
    (6, "b1b9b031ab4ec99b700d38e91e9c66279f611a92659eaae523d94389e6577a07"),
    (7, "3c92bbfe9229bbe19dec805968decf3b8f85ed9e53685d313308683e52323527"),
])
def test_verify_all_stdout_is_pinned(capsys, n, digest):
    # n = 5 is pinned by the file above, which perfbench reads too
    code, out, _ = run(capsys, "verify", "--selector", "all", "--n", str(n))
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_commands_are_deterministic(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "enumerate", "--graph", "cycle", "--n", "5",
                           "--format", "json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "forcing", "--n", "6")
        outs.add(out)
    assert len(outs) == 1


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "enumerate", "--graph", "torus", "--n", "3")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "verify", "--selector", "everything", "--n", "3")[0] == 2


# --- the FAIL paths of the suites ------------------------------------------

def test_verify_order_fails_when_a_tree_move_is_wrong(monkeypatch):
    p = cli._poset("cycle", 4)
    monkeypatch.setattr(gt, "tree_move", lambda g, v, kind: g)
    ok, lines, witness = cli.verify_order(4)
    root = gt.gtree_of(p.objects[0].graph, p.objects[0]).root
    assert not ok and lines == []
    assert witness == {"tree_move_mismatch": [p.keys[0], 1 + (root == 1)]}


def grandchild_to_grandparent(g):
    """g with its first vertex of depth two hung from its grandparent."""
    w = next(v for v in range(1, g.n + 1)
             if v != g.root and g.parent[v] != g.root)
    table = list(g.parent)
    table[w] = g.parent[g.parent[w]]
    return gt.GTree(g.n, g.root, tuple(table))


def two_cycle(g):
    """g with the parent of its first vertex of depth two made its child."""
    w = next(v for v in range(1, g.n + 1)
             if v != g.root and g.parent[v] != g.root)
    table = list(g.parent)
    table[g.parent[w]] = w
    return gt.GTree(g.n, g.root, tuple(table))


def rooted_at_a_leaf(g):
    """g rooted at its first leaf, each vertex above that leaf made its own
    parent: the down masks of the vertices above still add up."""
    leaf = next(v for v in range(1, g.n + 1) if not g.children[v])
    table = list(g.parent)
    v = table[leaf]
    while v:
        table[v], v = v, table[v]
    table[leaf] = 0
    return gt.GTree(g.n, leaf, tuple(table))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_tree_move_check_agrees_with_the_rebuilt_tubing(n):
    # verify_order looks each moved tree's parent table up among the trees
    # of a's neighbours; the flip rebuilt as a tubing is its reference:
    # every move is the tree of exactly one neighbour, the flip of the
    # moved vertex's tube, and three broken versions of each move are the
    # tree of no element
    graph = gc.make_graph("cycle", n)
    p = cli._poset("cycle", n)
    trees = [gt.gtree_of(graph, t) for t in p.objects]
    at = {g.parent: a for a, g in enumerate(trees)}
    index = {t: a for a, t in enumerate(p.objects)}
    assert len(at) == len(index) == len(p)
    for a, (t, g) in enumerate(zip(p.objects, trees)):
        neighbours = set(p.covers_up[a]) | set(p.covers_down[a])
        for x, rep, v, _ in gc._flips(t):
            moved = gt.tree_move(g, v, gt.CYCLE_CBT)
            hits = [b for b in neighbours if trees[b].parent == moved.parent]
            assert hits == [index[gc._swap(t, x, rep)]]
            for broken in (grandchild_to_grandparent, two_cycle,
                           rooted_at_a_leaf):
                assert broken(moved).parent not in at


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_a_flip_moves_two_down_masks(n):
    # a flip's down masks are t's with two entries replaced, as _flips
    # states for the rotated tree: the tube of v becomes the tube Y of u,
    # the top of the tube holding v's, and the tube of u the replacement
    for t in cli._poset("cycle", n).objects:
        for x, rep, v, u in gc._flips(t):
            down = list(t.down_masks)
            down[v], down[u] = down[u], rep
            assert tuple(down) == gc._swap(t, x, rep).down_masks


@pytest.mark.parametrize("broken", [grandchild_to_grandparent, two_cycle,
                                    rooted_at_a_leaf])
def test_verify_order_fails_on_a_broken_tree_move(monkeypatch, broken):
    p = cli._poset("cycle", 4)
    real = gt.tree_move
    monkeypatch.setattr(gt, "tree_move",
                        lambda g, v, kind: broken(real(g, v, kind)))
    root = gt.gtree_of(p.objects[0].graph, p.objects[0]).root
    assert cli.verify_order(4) == (False, [], {
        "tree_move_mismatch": [p.keys[0], 1 + (root == 1)]})


def test_verify_order_fails_when_a_cover_is_no_tree_move(monkeypatch):
    # the bottom gains an upper cover two flips above it: the rows are the
    # transitive closure, so they do not change, but no tree move of the
    # bottom lands on the new cover
    real = cli._poset("cycle", 4)
    c = next(c for b in real.covers_up[0] for c in real.covers_up[b]
             if c not in real.covers_up[0])
    covers = (real.covers_up[0] + (c,),) + real.covers_up[1:]
    p = dataclasses.replace(real, covers_up=covers)
    assert la.FinitePoset.from_covers(p.keys, covers).up == real.up
    monkeypatch.setattr(cli, "_poset", lambda kind, n: p)
    assert cli.verify_order(4) == (False, [], {
        "cover_not_a_move": [p.keys[0], p.keys[c]]})


@pytest.mark.parametrize("e1, e2", itertools.combinations(range(6), 2))
def test_verify_order_fails_when_two_pairs_trade_bits(monkeypatch, e1, e2):
    # every element's inversion masks swap pairs e1 and e2: the order
    # theorem does not see a renaming of the pairs, but some tree edge now
    # reads as the wrong pair; the old statistics name the same element
    p = cli._poset("cycle", 4)
    real = gt.inversion_masks

    def swap(m):
        b1, b2 = m >> e1 & 1, m >> e2 & 1
        return m & ~(1 << e1 | 1 << e2) | b1 << e2 | b2 << e1

    monkeypatch.setattr(gt, "inversion_masks",
                        lambda x: tuple(map(swap, real(x))))
    def edges_agree(t):
        stats = gt.pair_statistics(gt.gtree_of(t.graph, t))
        return stats.asc <= stats.coinv and stats.desc <= stats.inv

    a = next(a for a, t in enumerate(p.objects) if not edges_agree(t))
    assert cli.verify_order(4) == (False, [], {
        "bad_pair_statistics_for": p.keys[a]})


def test_verify_selfdual_fails_when_reversal_keeps_the_order(monkeypatch):
    p = cli._poset("cycle", 4)
    monkeypatch.setattr(gc, "relabel_reverse", lambda t: t)
    ok, lines, witness = cli.verify_selfdual(4)
    b = p.covers_up[0][0]
    assert not ok and lines == []
    assert witness == {"cover_not_reversed": [p.keys[0], p.keys[b]]}


def test_fiber_pairs_give_every_unordered_pair_once():
    # the reference join pass and the quotient's pair oracle check exactly
    # the pairs this yields
    R = [bytes(cl._right_sizes(cl.cut(t)))
         for t in cli._poset("cycle", 5).objects]
    got = []
    for x, y, pairs in fiber_pairs(R):
        for a, b in pairs:
            assert (R[a], R[b]) == (x, y)
            got.append((min(a, b), max(a, b)))
    assert sorted(got) == [(a, b) for a in range(70) for b in range(a, 70)]


def join_brackets_skipping_vertex_one(r1, r2):
    """cl._join_brackets with its nesting pass stopped before vertex 1."""
    r = list(map(max, r1, r2))
    for v in range(len(r) - 2, 1, -1):
        end, w = v + r[v], v + 1
        while w <= end:
            w += r[w] + 1
        r[v] = w - 1 - v
    return r


def rotate_up_right_zipper_before(real):
    """cl._rotate_up with u put into the right zipper just before v, not
    just after: the positions of the left letters do not change."""
    def rotate(parent, r, word, u):
        v = parent[u]
        joins = parent[v] != 0 and u not in word and v in word
        real(parent, r, word, u)
        if joins:
            word.remove(u)
            word.insert(word.index(v), u)
    return rotate


def merge_keeping_the_first(real):
    """cl._merge that keeps the crossing counts of its first word."""
    return lambda w1, w2, m, pick: real(w1, w2, m, lambda i, j: i)


def test_verify_lattice_fails_on_a_wrong_join(monkeypatch):
    # a rotation at the root puts the old root first in the right zipper,
    # not last: lifting the bottom over the cut of its upper cover 1 gives
    # another element of that fiber, and so does the bottom's join with 1;
    # the reference join pass names the same pair
    p = cli._poset("cycle", 4)
    real = cl._rotate_up

    def rotate(parent, r, word, u):
        real(parent, r, word, u)
        if parent[u] == 0:
            word.insert(0, word.pop())

    monkeypatch.setattr(cl, "_rotate_up", rotate)
    witness = {"op": "join", "pair": [p.keys[0], p.keys[1]],
               "oracle": p.keys[1],
               "constructive": "[[4],[1,4],[1,2,4],[1,2,3,4]]"}
    assert list(p.keys[:2]) == ["[[1],[1,2],[1,2,3],[1,2,3,4]]",
                                "[[1],[1,2],[1,2,4],[1,2,3,4]]"]
    assert cli.verify_lattice(4) == (False, [], witness)
    assert lattice_join_failure(p) == witness


@pytest.mark.parametrize("name, mutate, witness", [
    ("_join_brackets", lambda real: join_brackets_skipping_vertex_one,
     {"op": "path_join", "max": [0, 1, 1, 0, 0], "oracle": [0, 2, 1, 0, 0],
      "constructive": [0, 1, 1, 0, 0]}),
    ("_rotate_up", rotate_up_right_zipper_before,
     {"op": "join", "pair": ["[[1],[3],[1,3,4],[1,2,3,4]]",
                             "[[1],[1,4],[1,3,4],[1,2,3,4]]"],
      "oracle": "[[1],[1,4],[1,3,4],[1,2,3,4]]",
      "constructive": "[[1],[1,3,4],[1,3,4],[1,2,3,4]]"}),
    ("_merge", merge_keeping_the_first,
     {"op": "join", "pair": ["[[1],[1,2],[1,2,4],[1,2,3,4]]",
                             "[[1],[1,4],[1,2,4],[1,2,3,4]]"],
      "oracle": "[[1],[1,4],[1,2,4],[1,2,3,4]]",
      "constructive": "[[1],[1,2],[1,2,4],[1,2,3,4]]"}),
], ids=["join_brackets", "rotate_up", "merge"])
def test_verify_lattice_fails_on_each_broken_step(monkeypatch, name, mutate,
                                                  witness):
    # each of the three steps of join_cycle, broken alone, fails its own
    # certificate: the Tamari join names the max it fails on, the lift and
    # the fiber join a pair with the oracle's join and join_cycle's answer.
    # The reference join pass compares positions, blind to the order of
    # the right zipper, and joins them by its own max, not by _merge
    monkeypatch.setattr(cl, name, mutate(getattr(cl, name)))
    assert cli.verify_lattice(4) == (False, [], witness)
    reference = lattice_join_failure(cli._poset("cycle", 4))
    assert (reference is not None) == (name == "_join_brackets")


@pytest.mark.parametrize("raise_by, witness", [
    (1, {"op": "join", "pair": ["[[1],[1,2],[1,2,3],[1,2,3,4]]",
                                "[[2],[2,3],[1,2,3],[1,2,3,4]]"],
         "oracle": "[[2],[2,3],[1,2,3],[1,2,3,4]]",
         "constructive": "ValueError('3 is not in list')"}),
    (5, {"op": "join", "rotated_off_the_path": [
        "[[1],[1,2],[1,2,3],[1,2,3,4]]", 1]}),
], ids=["join_cycle_raises", "off_the_path"])
def test_verify_lattice_reports_a_rotation_that_breaks_the_vector(
        monkeypatch, capsys, raise_by, witness):
    # a rotation that raises r[u] too far: join_cycle itself fails on the
    # pair, or the vector is no path tubing; each is a witness, exit 1
    real = cl._rotate_up

    def rotate(parent, r, word, u):
        real(parent, r, word, u)
        r[u] += raise_by

    monkeypatch.setattr(cl, "_rotate_up", rotate)
    code, out, err = run(capsys, "verify", "--selector", "lattice", "--n", "4")
    assert code == 1 and out == "FAIL lattice (n=4)\n"
    assert json.loads(err)["counterexample"] == witness


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_verify_lattice_agrees_with_the_join_pass(n):
    assert cli.verify_lattice(n) == (True, [
        f"lattice: joins and meets exist and the constructive operations "
        f"match the oracle on all pairs (n={n})"], None)
    assert lattice_join_failure(cli._poset("cycle", n)) is None


def test_verify_lattice_fails_with_the_quotient_witness(monkeypatch):
    # the lattice suite proves the joins through the cut congruence, so a
    # cut that is no congruence fails it with the quotient's witness
    p = cli._poset("cycle", 4)
    bottom, one = cl.cut(p.objects[0]), cl.cut(p.objects[1])
    cut_sending(monkeypatch, lambda t, x: bottom if x == one else x)
    witness = {"cut_off_the_path": [], "empty_fibers": [one.key()]}
    assert cli.verify_lattice(4) == (False, [], witness)
    assert cli.verify_quotient(4) == (False, [], witness)


def test_verify_lattice_fails_when_reversal_keeps_the_order(monkeypatch):
    # the meets are checked as reversed joins of reversals, so a reversal
    # that is not an anti-automorphism fails the suite before the joins,
    # with the selfdual suite's witness; the old meet pass fails too
    p = cli._poset("cycle", 4)
    monkeypatch.setattr(gc, "relabel_reverse", lambda t: t)
    witness = {"cover_not_reversed": [p.keys[0], p.keys[p.covers_up[0][0]]]}
    assert cli.verify_lattice(4) == (False, [], witness)
    assert cli.verify_selfdual(4) == (False, [], witness)
    assert lattice_meet_failure(p) is not None


def test_verify_lattice_fails_when_reversal_is_not_an_involution(
        monkeypatch):
    # the bottom reverses to its upper cover 1, whose reversal is not the
    # bottom
    p = cli._poset("cycle", 4)
    real = gc.relabel_reverse
    monkeypatch.setattr(gc, "relabel_reverse", lambda t: p.objects[1]
                        if t is p.objects[0] else real(t))
    witness = {"not_involution": p.keys[0]}
    assert cli.verify_lattice(4) == (False, [], witness)
    assert cli.verify_selfdual(4) == (False, [], witness)
    assert lattice_meet_failure(p) is not None


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_verify_lattice_agrees_with_the_meet_pass(n):
    assert cli.verify_lattice(n) == (True, [
        f"lattice: joins and meets exist and the constructive operations "
        f"match the oracle on all pairs (n={n})"], None)
    assert lattice_meet_failure(cli._poset("cycle", n)) is None


def test_verify_all_asks_for_joins_once_per_side(monkeypatch, capsys):
    # lattice, quotient, sdl and mobius all need every pair to have a join
    # or a meet; a fresh poset and its dual each answer once
    calls, prop = [], la.FinitePoset.__dict__["joins_exist"]
    monkeypatch.setattr(prop, "func",
                        lambda q, real=prop.func: calls.append(q) or real(q))
    cli._poset.cache_clear()
    assert run(capsys, "verify", "--selector", "all", "--n", "5")[0] == 0
    p = cli._poset("cycle", 5)
    assert len(calls) == 2 and calls[0] is p and calls[1] is p.dual


def test_verify_sdl_fails_on_m3(monkeypatch, capsys):
    m3 = diamond()
    monkeypatch.setattr(cli, "_poset", lambda kind, n: m3)
    code, out, err = run(capsys, "verify", "--selector", "sdl", "--n", "4")
    assert code == 1 and out == "FAIL sdl (n=4)\n"
    witness = json.loads(err)["counterexample"]
    assert witness["law"] == "meet"
    x, y, z = map(m3.keys.index, witness["triple"])
    meet, join = m3.meet_table, m3.join_table
    assert meet[x][y] == meet[x][z] != meet[x][join[y][z]]


def test_verify_lattice_reports_a_join_above_neither_cut(monkeypatch,
                                                         capsys):
    # the join of two bracket vectors other than the bottom's reads as the
    # bottom, which lies above neither: the box certificate names the first
    # max it fails on, the least bracket vector above it and the one built;
    # the reference join pass finds no lift there, a witness, not a KeyError
    p = cli._poset("cycle", 4)
    real = cl._join_brackets
    monkeypatch.setattr(cl, "_join_brackets", lambda r1, r2: real(r1, r2)
                        if not any(r1) or not any(r2) else [0] * len(r1))
    code, out, err = run(capsys, "verify", "--selector", "lattice", "--n", "4")
    assert code == 1 and out == "FAIL lattice (n=4)\n"
    assert json.loads(err)["counterexample"] == {
        "op": "path_join", "max": [0, 0, 0, 1, 0], "oracle": [0, 0, 0, 1, 0],
        "constructive": [0] * 5}
    assert lattice_join_failure(p) == {
        "op": "join", "pair": [p.keys[1], p.keys[1]], "oracle": p.keys[1],
        "unlifted": [0] * 5}


def test_verify_lattice_fails_when_the_path_order_is_not_componentwise(
        monkeypatch):
    # the path poset gains a cover between two upper covers of its bottom,
    # which are incomparable bracket vectors: the joins of the path lattice
    # are then no longer read off the vectors, and the rows name the pair
    real = cli._poset
    path = real("path", 4)
    x, y = path.covers_up[0][:2]
    covers = [c + (y,) if i == x else c for i, c in enumerate(path.covers_up)]
    q = la.FinitePoset.from_covers(path.keys, covers, path.objects)
    monkeypatch.setattr(cli, "_poset", lambda kind, n: q if kind == "path"
                        else real(kind, n))
    assert cli._path_join_failure(4) == {
        "path_order_not_componentwise": [q.keys[x], q.keys[y]]}


def cut_sending(monkeypatch, send):
    """Replace cut(t) by send(t, cut(t)), a path tubing, and drop the
    quotient that cli._quotient cached through the cut before."""
    real = cl.cut
    monkeypatch.setattr(cl, "cut", lambda t: send(t, real(t)))
    cli._quotient.cache_clear()


def test_verify_quotient_fails_when_two_fibers_merge(monkeypatch):
    # the top's fiber cuts to the bottom's path tubing: the merged fiber
    # has bottom 0 and top 19 but is not the whole interval between them,
    # element 1, an upper cover of the bottom, being in neither fiber
    p = cli._poset("cycle", 4)
    bottom, top, one = (cl.cut(p.objects[i]) for i in (0, -1, 1))
    assert one not in (bottom, top)
    with monkeypatch.context() as m:
        cut_sending(m, lambda t, x: bottom if x == top else x)
        assert cli.verify_quotient(4) == (False, [], {
            "fiber_not_interval": [p.keys[0], p.keys[-1]],
            "element": p.keys[1]})
        assert quotient_pair_failure(p) is not None
    # the fiber of element 1 merged into the bottom's is still an interval,
    # [0, 14], but the path tubing it cut to has lost its fiber
    cut_sending(monkeypatch, lambda t, x: bottom if x == one else x)
    assert cli.verify_quotient(4) == (False, [], {
        "cut_off_the_path": [], "empty_fibers": [one.key()]})
    assert quotient_pair_failure(p) is not None


def test_verify_quotient_fails_when_an_element_moves_fiber(monkeypatch):
    # elements 1, 2 and 3 are the upper covers of the bottom, 0
    p = cli._poset("cycle", 4)
    assert p.covers_up[0] == (1, 2, 3) and 1 in p.covers_down[6]
    cuts = [cl.cut(t) for t in p.objects]
    # 1 joins the bottom's fiber, which becomes the interval [0, 1]; its
    # top 1 is not below 2, the top of the fiber of the cover 0 < 2, so
    # x -> high breaks
    with monkeypatch.context() as m:
        cut_sending(m, lambda t, x: cuts[0] if t is p.objects[1] else x)
        assert cli.verify_quotient(4) == (False, [], {
            "not_monotone": "high", "cover": [p.keys[0], p.keys[2]]})
        assert quotient_pair_failure(p) is not None
    # 6 joins the fiber of its lower cover 3, which becomes the interval
    # [3, 6]; the bottom of the fiber of 1 is 1, which is not below 3, so
    # x -> low breaks on the cover 1 < 6
    cut_sending(monkeypatch, lambda t, x: cuts[3] if t is p.objects[6] else x)
    assert cli.verify_quotient(4) == (False, [], {
        "not_monotone": "low", "cover": [p.keys[1], p.keys[6]]})
    assert quotient_pair_failure(p) is not None


def test_verify_quotient_fails_when_fiber_labels_swap(monkeypatch):
    # the bottom's and the top's fibers trade path tubings, so every fiber
    # is still an interval but the bottom now cuts to the path's top, which
    # is not below the cut of its upper cover 1
    p = cli._poset("cycle", 4)
    bottom, top = cl.cut(p.objects[0]), cl.cut(p.objects[-1])
    cut_sending(monkeypatch, lambda t, x: top if x == bottom
                else bottom if x == top else x)
    assert cli.verify_quotient(4) == (False, [], {
        "not_monotone": "cut", "cover": [p.keys[0], p.keys[1]]})
    assert quotient_pair_failure(p) is not None


def test_verify_quotient_fails_when_the_path_order_gains_a_cover(
        monkeypatch):
    # two upper covers of the path's bottom become comparable in the path
    # poset; cut stays order-preserving, but the bottoms of their fibers
    # are not comparable in the cycle lattice
    real = cli._poset
    path = real("path", 4)
    x, y = path.covers_up[0][:2]
    covers = [c + (y,) if i == x else c for i, c in enumerate(path.covers_up)]
    q = la.FinitePoset.from_covers(path.keys, covers, path.objects)
    monkeypatch.setattr(cli, "_poset", lambda kind, n: q if kind == "path"
                        else real(kind, n))
    assert cli.verify_quotient(4) == (False, [], {
        "path_cover_not_lifted": [q.keys[x], q.keys[y]]})


def test_verify_quotient_rejects_every_perturbed_partition(monkeypatch):
    # at n = 4: any two of the 14 fibers merged, any two fibers' path
    # tubings swapped, any element moved to the fiber of a cover; the pair
    # oracle agrees
    p = cli._poset("cycle", 4)
    cuts = [cl.cut(t) for t in p.objects]
    labels = list(dict.fromkeys(cuts))
    sends = [lambda t, x, u=u, v=v: u if x == v else x
             for u, v in itertools.combinations(labels, 2)]
    sends += [lambda t, x, u=u, v=v: v if x == u else u if x == v else x
              for u, v in itertools.combinations(labels, 2)]
    sends += [lambda t, x, a=a, c=c: cuts[c] if t is p.objects[a] else x
              for a in range(len(p))
              for c in p.covers_up[a] + p.covers_down[a] if cuts[c] != cuts[a]]
    assert len(sends) == 91 + 91 + 48
    for send in sends:
        with monkeypatch.context() as m:
            cut_sending(m, send)
            assert not cli.verify_quotient(4)[0]
            assert quotient_pair_failure(p) is not None


@pytest.mark.parametrize("op", ["shuffle_join", "shuffle_meet"])
def test_verify_quotient_fails_when_the_fiber_bounds_are_wrong(monkeypatch,
                                                               op):
    # the join of the first and last words reads as the first, or their
    # meet as the last: the first fiber of two or more words has a bound
    # that is not one
    q = cli._poset("path", 4)
    monkeypatch.setattr(cl, op, lambda x, w1, w2:
                        w1 if op == "shuffle_join" else w2)
    x = next(x for x in q.objects if cl.fiber_size(x) > 1)
    assert cli.verify_quotient(4) == (False, [], {
        "fiber_bounds_wrong": x.key()})


def test_verify_quotient_reports_a_bound_off_the_fiber(monkeypatch):
    # the meet reads as the first word reversed, which over the path's
    # bottom is no word of its fiber: a witness, not a KeyError
    x = cli._poset("path", 4).objects[0]
    bad = cl.ShuffleWord(x, cl.fiber_words(x)[0].word[::-1])
    assert bad.word not in {w.word for w in cl.fiber_words(x)}
    monkeypatch.setattr(cl, "shuffle_meet", lambda x, w1, w2:
                        cl.ShuffleWord(x, w1.word[::-1]))
    assert cli.verify_quotient(4) == (False, [], {
        "bound_off_the_fiber": [x.key(), bad.serialize()]})


@pytest.mark.parametrize("fn, wrong", [
    ("fiber_words", lambda real: lambda x: real(x)[:-1]),
    ("fiber_size", lambda real: lambda x: real(x) + 1)],
    ids=["last_word_dropped", "size_off_by_one"])
def test_verify_quotient_fails_when_the_fiber_words_differ(monkeypatch, fn,
                                                           wrong):
    # the fibers are walked from the bottom's, so its cut is the base named
    p = cli._poset("cycle", 4)
    monkeypatch.setattr(cl, fn, wrong(getattr(cl, fn)))
    assert cli.verify_quotient(4) == (False, [], {
        "fiber_words_mismatch": cl.cut(p.objects[0]).key()})


def _sew_ignoring_the_word(real):
    return lambda x, w: real(x, cl.fiber_words(x)[0])


def _path_tubing_wrong_at_r1(real):
    # r[1] = 1 becomes r[1] = 0: still a bracket vector, another tubing
    return lambda graph, r: real(graph, [0, 0, *r[2:]] if r[1] == 1 else r)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("fn, wrong", [
    ("sew", _sew_ignoring_the_word),
    ("_path_tubing", _path_tubing_wrong_at_r1)],
    ids=["sew_ignores_the_word", "path_tubing_wrong"])
def test_lattice_and_quotient_fail_on_a_wrong_decode(monkeypatch, n, fn,
                                                     wrong):
    # join_cycle decodes its join as sew(_path_tubing(r), word); a decode
    # that loses the word or the base names an element that is not the
    # decode of its own encoding, so its join with itself is wrong too
    p = cli._poset("cycle", n)
    monkeypatch.setattr(cl, fn, wrong(getattr(cl, fn)))
    ok, lines, witness = cli.verify_lattice(n)
    assert (ok, lines) == (False, []) and list(witness) == ["not_decoded"]
    assert cli.verify_quotient(n) == (False, [], witness)
    t = p.objects[p.keys.index(witness["not_decoded"])]
    assert cl.join_cycle(t, t) != t


def test_verify_cu_fails_when_a_relation_is_not_transitive(monkeypatch):
    # chain 1 keeps 3 onto 2 onto 1 but loses 3 onto 1
    fs = la.forcing_system(4)
    a, b, c = (la.JiIndex(1, k) for k in (3, 2, 1))
    onto = fs.arrows_onto - {(a, c)}
    assert {(a, b), (b, c)} <= onto
    monkeypatch.setattr(la, "forcing_system", lambda n: dataclasses.replace(
        fs, arrows_onto=onto))
    assert cli.verify_cu(4) == (False, [], {"not_transitive": (a, b, c)})


@pytest.mark.parametrize("n", [4, 5, 6])
def test_transitivity_witness_matches_the_pair_scan(n):
    # each relation loses, in turn, every arrow that two others imply
    fs = la.forcing_system(n)
    for rel in (fs.arrows_onto, fs.arrows_into):
        assert cli._transitivity_witness(rel) is None
        assert reference_transitivity_witness(rel) is None
        implied = {(a, d) for a, b in rel for c, d in rel if b == c}
        assert implied
        for arrow in implied:
            broken = rel - {arrow}
            got = cli._transitivity_witness(broken)
            assert got is not None
            assert got == reference_transitivity_witness(broken)


def test_verify_cu_fails_on_an_onto_into_two_cycle(monkeypatch):
    fs = la.forcing_system(4)
    a, b = la.JiIndex(1, 2), la.JiIndex(1, 1)
    monkeypatch.setattr(la, "forcing_system", lambda n: dataclasses.replace(
        fs, arrows_onto=frozenset({(a, b)}), arrows_into=frozenset({(b, a)})))
    assert cli.verify_cu(4) == (False, [], {"onto_into_two_cycle": (a, b)})


def test_verify_cu_fails_when_forcing_differs_from_its_definition(
        monkeypatch):
    fs = la.forcing_system(4)
    lost = min(fs.arrows_force)
    monkeypatch.setattr(la, "forcing_system", lambda n: dataclasses.replace(
        fs, arrows_force=fs.arrows_force - {lost}))
    assert cli.verify_cu(4) == (False, [], {
        "forcing_closed_form_differs": lost})


def test_verify_cu_fails_on_a_reversed_forcing_arrow(monkeypatch):
    # one forcing arrow gains its reverse, which the definition is made to
    # agree with: a two-cycle, caught as the one arrow that lowers the key
    fs = la.forcing_system(4)
    a, b = min(fs.arrows_force)
    force = fs.arrows_force | {(b, a)}
    monkeypatch.setattr(la, "forcing_system", lambda n: dataclasses.replace(
        fs, arrows_force=force))
    monkeypatch.setattr(la, "_forces_from_definition",
                        lambda universe, onto, into: set(force))
    assert cli.verify_cu(4) == (False, [], {"non_increasing_edge": [
        [b.i, b.k], [a.i, a.k]]})


def test_verify_quotient_names_an_element_whose_cut_is_not_reversed(
        monkeypatch):
    # the bottom's cached cut reads as another element's, so the reversed
    # cut of the bottom is no longer the cut of its reversal, the top; a
    # reversal that is no element counts as a mismatch too
    p = cli._poset("cycle", 4)
    es, fibers, low, witness = cli._quotient(4)
    c = next(c for c, e in enumerate(es) if e[0] != es[0][0])
    bad = [(es[c][0],) + es[0][1:]] + es[1:]
    rev = cli._reversal(4)
    with monkeypatch.context() as m:
        m.setattr(cli, "_quotient", lambda n: (bad, fibers, low, witness))
        assert cli.verify_quotient(4) == (False, [], {
            "cut_reversal_mismatch": p.keys[0]})
    monkeypatch.setattr(cli, "_reversal", lambda n: (
        rev[0][:5] + [None] + rev[0][6:], rev[1]))
    assert cli.verify_quotient(4) == (False, [], {
        "cut_reversal_mismatch": p.keys[5]})


def test_lifts_leave_the_shared_encodings_unchanged():
    # _lift rotates copies, so lifting each encoding of cli._quotient over
    # every path tubing above its cut, in either order, changes no encoding
    # and gives the same words
    p, q = cli._poset("cycle", 5), cli._poset("path", 5)
    es = cli._quotient(5)[0]
    R = [bytes(cl._right_sizes(x)) for x in q.objects]
    at = {r: i for i, r in enumerate(R)}
    jobs = [(e, list(R[y])) for e in es for y in la._bits(q.up[at[e[1]]])]
    forward = [cl._lift(e, r) for e, r in jobs]
    backward = [cl._lift(e, r) for e, r in reversed(jobs)]
    assert len(jobs) > len(es) and forward == backward[::-1]
    assert es == [cl._encode(t) for t in p.objects]


def test_verify_regular_fails_when_a_cover_is_dropped(monkeypatch):
    # element 5 loses its first upper cover from its own covers, while
    # that cover still lists 5 below it: 5 alone has n - 2 flip neighbours
    real = cli._poset("cycle", 4)
    covers = tuple(c[1:] if a == 5 else c
                   for a, c in enumerate(real.covers_up))
    p = dataclasses.replace(real, covers_up=covers)
    monkeypatch.setattr(cli, "_poset", lambda kind, n: p)
    assert cli.verify_regular(4) == (False, [], {"degree": 2,
                                                 "at": p.keys[5]})


def test_verify_regular_fails_on_a_wrong_count(monkeypatch):
    real = cli._poset
    monkeypatch.setattr(cli, "_poset", lambda kind, n: real(kind, n - 1))
    assert cli.verify_regular(5) == (False, [], {"count": 20,
                                                 "expected": 70})


def test_verify_pairs_has_no_cap_beyond_the_verify_cap(capsys):
    code, out, err = run(capsys, "verify", "--selector", "pairs", "--n", "6")
    assert code == 3 and out == "" and "pairs is n <= 5" in err
    code, out, _ = run(capsys, "verify", "--selector", "pairs", "--n", "7",
                       "--force")
    assert code == 0 and out == ("PASS pairs (n=7)\n  pairs: maximal "
                                 "orthogonal pairs rebuild the lattice, 924 "
                                 "elements (n=7)\n")


@pytest.mark.parametrize("patch, b, mu", [
    ({69: 2}, 69, 2), ({69: -2}, 69, -2), ({69: 2, 5: -3}, 5, -3)],
    ids=["above", "below", "first_in_index_order"])
def test_verify_mobius_fails_on_a_value_outside_the_range(monkeypatch, patch,
                                                          b, mu):
    # row 1 gains the values of patch, ahead of its own; the witness is the
    # first column out of range in index order, not in the row's order
    p = cli._poset("cycle", 5)
    real = la.mobius_rows

    def rows(q):
        for a, row in enumerate(real(q)):
            yield ({**patch, **{c: v for c, v in row.items()
                                if c not in patch}} if a == 1 else row)

    monkeypatch.setattr(la, "mobius_rows", rows)
    assert cli.verify_mobius(5) == (False, [], {
        "pair": [p.keys[1], p.keys[b]], "mu": mu})


def test_verify_order_fails_at_a_flipped_inversion_bit(monkeypatch):
    # element 1's inv gains the lowest pair e of its coinv, so the inversion
    # test puts it below none of the elements whose coinv holds e, itself
    # included; the first of them in its up-set is the pair named
    p = cli._poset("cycle", 4)
    real, t = gt.inversion_masks, p.objects[1]
    inv, coinv = real(t)
    e = coinv & -coinv
    monkeypatch.setattr(gt, "inversion_masks",
                        lambda x: (inv | e, coinv) if x is t else real(x))
    b = next(b for b in range(len(p)) if p.leq(1, b)
             and real(p.objects[b])[1] & e)
    witness = {"pair": [p.keys[1], p.keys[b]], "closure": True,
               "inversion_test": False}
    assert cli.verify_order(4) == (False, [], witness)
    assert order_pair_failure(p) == witness


def test_verify_selfdual_fails_when_the_order_is_not_reversed(monkeypatch):
    # the up-sets say the bottom is not below its upper cover 1 while the
    # covers and the down-sets still hold it, so the full reversal line
    # fails on that pair as the pair loop does
    real = cli._poset("cycle", 4)
    up = (real.up[0] & ~2,) + real.up[1:]
    p = dataclasses.replace(real, up=up)
    monkeypatch.setattr(cli, "_poset", lambda kind, n: p)
    witness = {"order_not_reversed": [p.keys[0], p.keys[1]]}
    assert cli.verify_selfdual(4) == (False, [], witness)
    assert selfdual_pair_failure(p) == witness


def test_verify_pairs_fails_when_a_cover_is_dropped(monkeypatch):
    # the pairs lattice loses the first upper cover of its minimum, the
    # empty pair, which is the image of the bottom
    real = la.pairs_lattice

    def dropped(n):
        pl = real(n)
        covers = (pl.covers_up[0][1:],) + pl.covers_up[1:]
        return la.FinitePoset.from_covers(pl.keys, covers, pl.objects)

    monkeypatch.setattr(la, "pairs_lattice", dropped)
    p = cli._poset("cycle", 4)
    assert cli.verify_pairs(4) == (False, [],
                                   {"cover_mismatch": p.keys[0]})
    assert pairs_order_failure(4) is not None


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_certificates_agree_with_the_pair_loops(n):
    p, N = cli._poset("cycle", n), math.comb(2 * n - 2, n - 1)
    assert cli.verify_order(n) == (True, [
        f"order: inversion test matches flip closure on all {N}^2 ordered "
        f"pairs (n={n})",
        f"order: tree encodings round-trip and moves match flips (n={n})"],
        None)
    assert order_pair_failure(p) is None
    assert cli.verify_quotient(n) == (True, [
        f"quotient: cut respects joins and meets on all pairs (n={n})",
        f"quotient: fibers shuffle-parameterized, sizes sum to {N}, cut "
        f"after sew is the identity (n={n})"], None)
    assert quotient_pair_failure(p) is None
    assert cli.verify_selfdual(n) == (True, [
        f"selfdual: reversal is an involution and reverses every cover "
        f"(n={n})",
        f"selfdual: full order reversal checked on all pairs (n={n})"], None)
    assert selfdual_pair_failure(p) is None
    if n <= 5:
        assert cli.verify_pairs(n) == (True, [
            f"pairs: maximal orthogonal pairs rebuild the lattice, {N} "
            f"elements (n={n})"], None)
        assert pairs_order_failure(n) is None


def test_verify_pairs_fails_when_two_irreducibles_are_swapped(monkeypatch):
    original = la.canonical_ji
    swap = {(1, 1): (1, 2), (1, 2): (1, 1)}
    monkeypatch.setattr(la, "canonical_ji", lambda n, i, k:
                        original(n, *swap.get((i, k), (i, k))))
    ok, lines, witness = cli.verify_pairs(4)
    assert not ok and lines == [] and list(witness) == ["downset_missing"]
    assert witness["downset_missing"] in cli._poset("cycle", 4).keys


def test_verify_ji_fails_on_a_broken_chain_or_poset(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(gc, "covers", lambda graph, a, b: False)
        assert cli.verify_ji(4) == (False, [], {"chain_not_saturated": [1, 2]})
    with monkeypatch.context() as m:
        m.setattr(la, "join_irreducibles",
                  lambda p, real=la.join_irreducibles: real(p)[:-1])
        ok, lines, witness = cli.verify_ji(4)
        assert not ok and len(lines) == 1
        assert witness == {"poset_ji_count": 8, "expected": 9}
