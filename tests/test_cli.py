import json
import random

import pytest

import tubelat as tl
from tubelat import cli
from tubelat import cycle_lattice as cl
from helpers import graph, load_fixture, search_tree_tubing


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
    code, _, err = run(capsys, "enumerate", "--graph", "cycle", "--n", "10")
    assert code == 3 and "cap" in err


def test_order_command(capsys, tmp_path):
    fx = load_fixture("cycle8_order_trio.json")
    from tubelat import gtree as gt
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
])
def test_malformed_tree_json_exits_two(capsys, tmp_path, obj):
    bad = write_json(tmp_path, "bad.json", obj)
    code, out, err = run(capsys, "gtree", "--input", bad, "--graph", "cycle")
    assert code == 2 and out == "" and err.startswith("error:")


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


def test_hasse_and_mobius_commands(capsys):
    code, out, _ = run(capsys, "hasse", "--graph", "path", "--n", "3")
    assert code == 0 and out.count("->") == 5
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


def test_verify_all_runs_every_suite(capsys):
    code, out, _ = run(capsys, "verify", "--selector", "all", "--n", "3")
    assert code == 0
    for selector in cli.SELECTORS:
        assert f"PASS {selector}" in out


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
