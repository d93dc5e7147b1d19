import hashlib
import json
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
from helpers import diamond, graph, load_fixture, search_tree_tubing


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
    (("kappa", "--n", "100000", "--i", "99999", "--k", "99999"), 2),
    (("kappa", "--n", "2", "--i", "1", "--k", "1"), 2),
], ids=["ji", "forcing-cap", "forcing-huge", "forcing-huge-forced",
        "verify-cu-huge-forced", "kappa-huge", "kappa-too-small"])
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
    code, _, err = run(capsys, "verify", "--selector", "sdl", "--n", "9")
    assert code == 3 and "cap" in err
    code, out, err = run(capsys, "verify", "--selector", "quotient",
                         "--n", "8")
    assert code == 3 and out == "" and "quotient is n <= 7" in err
    code, out, err = run(capsys, "verify", "--selector", "lattice",
                         "--n", "8")
    assert code == 3 and out == "" and "lattice is n <= 7" in err
    code, out, _ = run(capsys, "verify", "--selector", "sdl", "--n", "6")
    assert code == 0 and out == ("PASS sdl (n=6)\n  sdl: both "
                                 "semidistributive laws hold on all triples "
                                 "(n=6)\n")


def test_verify_mobius_cap(capsys):
    code, out, _ = run(capsys, "verify", "--selector", "mobius", "--n", "7")
    assert code == 0 and out == ("PASS mobius (n=7)\n  mobius: all values "
                                 "lie in -1..1 on 924 elements (n=7)\n")
    code, _, err = run(capsys, "verify", "--selector", "mobius", "--n", "8")
    assert code == 3 and "cap" in err


def test_verify_all_runs_every_suite(capsys):
    code, out, _ = run(capsys, "verify", "--selector", "all", "--n", "3")
    assert code == 0
    for selector in cli.SELECTORS:
        assert f"PASS {selector}" in out


def test_verify_all_n5_stdout_is_pinned(capsys):
    pinned = (Path(__file__).parent.parent / "perfbench" / "expected"
              / "verify_all_n5.stdout").read_text(encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--selector", "all", "--n", "5")
    assert code == 0 and out == pinned


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


def test_verify_selfdual_fails_when_reversal_keeps_the_order(monkeypatch):
    p = cli._poset("cycle", 4)
    monkeypatch.setattr(gc, "relabel_reverse", lambda t: t)
    ok, lines, witness = cli.verify_selfdual(4)
    b = p.covers_up[0][0]
    assert not ok and lines == []
    assert witness == {"cover_not_reversed": [p.keys[0], p.keys[b]]}


def test_fiber_pairs_give_every_unordered_pair_once():
    # the lattice and quotient suites check exactly the pairs this yields
    R = [bytes(cl._right_sizes(cl.cut(t)))
         for t in cli._poset("cycle", 5).objects]
    got = []
    for x, y, pairs in cli._fiber_pairs(R):
        for a, b in pairs:
            assert (R[a], R[b]) == (x, y)
            got.append((min(a, b), max(a, b)))
    assert sorted(got) == [(a, b) for a in range(70) for b in range(a, 70)]


def test_verify_lattice_fails_on_a_wrong_join(monkeypatch):
    # t's lift over its own cut reads as that of s, another element of its
    # fiber; the bottom's lift there is the fiber's least element, so the
    # join of the bottom and t reads as s
    p = cli._poset("cycle", 4)
    t = p.objects[1]
    e, real = cl._encode(t), cl._lifts
    s = next(u for u in p.objects if u != t and cl._encode(u)[1] == e[1])
    bad = real(cl._encode(s))[e[1]]
    monkeypatch.setattr(cl, "_lifts", lambda f: {**real(f), e[1]: bad}
                        if f == e else real(f))
    ok, lines, witness = cli.verify_lattice(4)
    assert not ok and lines == []
    assert witness == {"op": "join", "pair": [p.keys[0], p.keys[1]],
                       "constructive": s.key(), "oracle": p.keys[1]}


def misread_bottom_meets(monkeypatch, p):
    """Make the oracle read every meet that is the bottom, element 0, as
    the top: the dual's coordinate map sends phi(bottom) to the top. The
    poset is frozen; the cached coordinates live in the dual's __dict__."""
    real = p.dual.coords
    at = {**real.at, real.masks[0]: len(p) - 1}
    monkeypatch.setitem(p.dual.__dict__, "coords", real._replace(at=at))


def test_verify_lattice_fails_on_a_wrong_meet(monkeypatch):
    # the bottom's meet with itself, the first pair of the meet pass
    p = cli._poset("cycle", 4)
    misread_bottom_meets(monkeypatch, p)
    ok, lines, witness = cli.verify_lattice(4)
    assert not ok and lines == []
    assert witness == {"op": "meet", "pair": [p.keys[0], p.keys[0]],
                       "constructive": p.keys[0], "oracle": p.keys[-1]}


def test_verify_quotient_fails_on_a_wrong_meet(monkeypatch):
    # the top's cut is not the bottom's, so the bottom's meet with itself
    # breaks the cut's meet
    p = cli._poset("cycle", 4)
    misread_bottom_meets(monkeypatch, p)
    assert cli.verify_quotient(4) == (False, [], {
        "op": "meet", "pair": [p.keys[0], p.keys[0]]})


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
    # the join of two cuts above the bottom reads as the bottom, which lies
    # above neither, so neither has a lift there: a witness, not a KeyError
    p = cli._poset("cycle", 4)
    real = cl._join_brackets
    monkeypatch.setattr(cl, "_join_brackets", lambda r1, r2: real(r1, r2)
                        if not any(r1) or not any(r2) else [0] * len(r1))
    code, out, err = run(capsys, "verify", "--selector", "lattice", "--n", "4")
    assert code == 1 and out == "FAIL lattice (n=4)\n"
    assert json.loads(err)["counterexample"] == {
        "op": "join", "pair": [p.keys[1], p.keys[1]], "oracle": p.keys[1],
        "unlifted": [0] * 5}


def test_verify_quotient_fails_when_cut_breaks_a_join(monkeypatch):
    # the suite joins the cuts' bracket vectors; break it as a reversed
    # join_path would
    p = cli._poset("cycle", 4)
    real, path = cl._join_brackets, gc.make_graph(gc.PATH, 4)
    monkeypatch.setattr(cl, "_join_brackets", lambda r1, r2: cl._right_sizes(
        gc.relabel_reverse(cl._path_tubing(path, real(r1, r2)))))
    assert cli.verify_quotient(4) == (False, [], {
        "op": "join", "pair": [p.keys[0], p.keys[0]]})


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
