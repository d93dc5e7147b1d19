"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion; the assertions are
exact (no tolerances apply to any of these discrete checks). Heavier
artifacts (posets, constructive join tables) are cached at module level so
related criteria share them.
"""

import json
import math
from functools import lru_cache

import tubelat as tl
from tubelat import cycle_lattice as cl
from tubelat import gtree as gt
from tubelat import lattice_analysis as la
from helpers import closure_order, graph, load_fixture, poset, tubings

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def check(ok: bool, label: str):
    print(("PASS" if ok else "FAIL") + " " + label)
    assert ok, label


@lru_cache(maxsize=None)
def constructive_tables(n):
    """Unordered-pair tables of constructive joins and meets on the cycle."""
    elems = poset("cycle", n).objects
    joins = {}
    meets = {}
    for a in range(len(elems)):
        for b in range(a, len(elems)):
            joins[a, b] = cl.join_cycle(elems[a], elems[b]).tube_masks
            meets[a, b] = cl.meet_cycle(elems[a], elems[b]).tube_masks
    return joins, meets


def test_criterion_01_counting():
    ok = all(len(tubings("cycle", n)) == math.comb(2 * n - 2, n - 1)
             for n in range(3, 9))
    ok = ok and all(len(tubings("path", n)) == CATALAN[n]
                    for n in range(1, 11))
    check(ok, "criterion 1 (counting): cycle counts for n=3..8 and "
              "path Catalan counts for n=1..10")


def test_criterion_02_order_theorem():
    mismatches = 0
    for n in range(3, 7):
        elems, up = closure_order("cycle", n)
        for a, ta in enumerate(elems):
            for b, tb in enumerate(elems):
                if cl.leq_cycle(ta, tb) != bool(up[a] & (1 << b)):
                    mismatches += 1
    check(mismatches == 0, "criterion 2 (order theorem): inversion test "
                           "equals cover closure on all pairs, n=3..6")


def test_criterion_03_lattice_and_constructive_join():
    ok = True
    for n in range(3, 7):
        p = poset("cycle", n)
        ok = ok and la.is_lattice(p)
        index = {t.tube_masks: i for i, t in enumerate(p.objects)}
        joins, meets = constructive_tables(n)
        for (a, b), masks in joins.items():
            ok = ok and index[masks] == p.join_table[a][b]
        for (a, b), masks in meets.items():
            ok = ok and index[masks] == p.meet_table[a][b]
    check(ok, "criterion 3 (lattice): posets are lattices and constructive "
              "join/meet match the brute oracle on all pairs, n=3..6")


def test_criterion_04_quotient_map():
    ok = True
    for n in range(3, 7):
        cg = graph("cycle", n)
        elems = poset("cycle", n).objects
        joins, meets = constructive_tables(n)
        cuts = [cl.cut(t) for t in elems]
        for (a, b), masks in joins.items():
            projected = cl.cut(tl.Tubing(cg, masks))
            ok = ok and projected == cl.join_path(cuts[a], cuts[b])
        for (a, b), masks in meets.items():
            projected = cl.cut(tl.Tubing(cg, masks))
            ok = ok and projected == cl.meet_path(cuts[a], cuts[b])
    check(ok, "criterion 4 (quotient): cut projects joins to joins and "
              "meets to meets on all pairs, n=3..6")


def test_criterion_05_fibers():
    ok = True
    for n in range(3, 8):
        total = 0
        for x in tubings("path", n):
            left, right = tl.zippers(tl.gtree_of(x))
            size = len(cl.fiber_words(x))
            expect = (math.factorial(len(left) + len(right))
                      // math.factorial(len(left)) // math.factorial(len(right)))
            ok = ok and size == expect
            total += size
        ok = ok and total == math.comb(2 * n - 2, n - 1)
    fx = load_fixture("cycle9_cut_sew.json")
    x9 = tl.tubing_from_json(json.dumps(fx["cut_tubing"]))
    ok = ok and [w.serialize() for w in cl.fiber_words(x9)] == fx["fiber_words"]
    for n in range(3, 7):
        for x in tubings("path", n):
            for w in cl.fiber_words(x):
                ok = ok and cl.cut(cl.sew(x, w)) == x
    check(ok, "criterion 5 (fibers): sizes are zipper binomials summing to "
              "the cycle count (n=3..7), the nine-vertex fiber lists its six "
              "words, and cut undoes sew everywhere (n<=6)")


def test_criterion_06_join_irreducibles():
    ok = True
    for n in range(3, 8):
        cg = graph("cycle", n)
        p = poset("cycle", n)
        ji = la.join_irreducibles(p)
        ok = ok and len(ji) == (n - 1) ** 2
        canon = {}
        for i in range(1, n):
            for k in range(1, n):
                canon[gt.tubing_of(cg, la.canonical_ji(n, i, k)).tube_masks] \
                    = (i, k)
        ok = ok and {p.objects[z].tube_masks for z in ji} == set(canon)
        for i in range(1, n):
            for k in range(1, n - 1):
                lower = gt.tubing_of(cg, la.canonical_ji(n, i, k))
                upper = gt.tubing_of(cg, la.canonical_ji(n, i, k + 1))
                ok = ok and tl.covers(lower, upper)
        grid = {(i, k): gt.tubing_of(cg, la.canonical_ji(n, i, k))
                for i in range(1, n) for k in range(1, n)}
        for (i, k), a in grid.items():
            for (s, t), b in grid.items():
                comparable = cl.leq_cycle(a, b) or cl.leq_cycle(b, a)
                ok = ok and comparable == (i == s)
    check(ok, "criterion 6 (irreducibles): (n-1)^2 join irreducibles equal "
              "the canonical grid, chains saturated and pairwise disjoint, "
              "n=3..7")


def test_criterion_07_kappa():
    ok = True
    for n in (4, 5):
        cg = graph("cycle", n)
        p = poset("cycle", n)
        index = {t.tube_masks: i for i, t in enumerate(p.objects)}
        meet = p.meet_table
        images = set()
        for i in range(1, n):
            for k in range(1, n):
                ji = index[gt.tubing_of(cg, la.canonical_ji(n, i, k)).tube_masks]
                jstar = p.covers_down[ji][0]
                candidates = [z for z in range(len(p))
                              if meet[z][ji] == jstar]
                best = [z for z in candidates
                        if all(p.leq(o, z) for o in candidates)]
                mi = la.kappa(n, i, k)
                images.add(mi)
                target = index[gt.tubing_of(
                    cg, la.canonical_mi(n, mi.i, mi.k)).tube_masks]
                ok = ok and best == [target]
        ok = ok and len(images) == (n - 1) ** 2
    check(ok, "criterion 7 (kappa): closed form equals the brute-force "
              "maximum and is bijective onto meet irreducibles, n=4..5")


def test_criterion_08_semidistributivity():
    ok = all(la.check_semidistributive(poset("cycle", n)) for n in (3, 4, 5))
    check(ok, "criterion 8 (semidistributivity): both laws hold over all "
              "triples, n=3..5")


def test_criterion_09_congruence_uniformity():
    ok = True
    for n in range(3, 11):
        ok = ok and la.check_congruence_uniform(n)
        fs = la.forcing_system(n)
        for a, b in fs.arrows_force:
            ok = ok and (a.i + a.k, a.k) < (b.i + b.k, b.k)
    check(ok, "criterion 9 (congruence uniformity): direct forcing acyclic "
              "with lexicographically increasing arrows, n=3..10")


def test_criterion_10_mobius():
    ok = True
    for n in range(3, 7):
        matrix = la.mobius(poset("cycle", n))
        ok = ok and all(v in (-1, 0, 1) for row in matrix for v in row)
    check(ok, "criterion 10 (mobius): all values lie in {-1, 0, 1}, n=3..6")


def test_criterion_11_selfduality_and_regularity():
    from tubelat import graph_core as gc
    ok = True
    for n in range(3, 8):
        elems = tubings("cycle", n)
        ok = ok and len(elems) == math.comb(2 * n - 2, n - 1)
        keys = {t.tube_masks for t in elems}
        for t in elems:
            r = tl.relabel_reverse(t)
            ok = ok and r.tube_masks in keys and tl.relabel_reverse(r) == t
            nbrs = {t2.tube_masks
                    for t2, _, _ in gc.iter_flip_neighbors(t)}
            ok = ok and len(nbrs) == n - 1
            for t2, lo, hi in gc.iter_flip_neighbors(t):
                if lo < hi:
                    ok = ok and tl.covers(tl.relabel_reverse(t2),
                                          tl.relabel_reverse(t))
    for n in range(3, 6):
        elems = tubings("cycle", n)
        for a in elems:
            for b in elems:
                ok = ok and cl.leq_cycle(a, b) == cl.leq_cycle(
                    tl.relabel_reverse(b), tl.relabel_reverse(a))
    check(ok, "criterion 11 (duality, regularity): reversal is an order "
              "anti-automorphism and flip graphs are (n-1)-regular, n=3..7")


def test_criterion_12_pairs_reconstruction():
    ok = True
    for n in (3, 4, 5):
        pl = la.pairs_lattice(n)
        ok = ok and len(pl) == math.comb(2 * n - 2, n - 1)
        cg = graph("cycle", n)
        p = poset("cycle", n)
        grid = [(la.JiIndex(i, k), gt.tubing_of(cg, la.canonical_ji(n, i, k)))
                for i in range(1, n) for k in range(1, n)]
        by_set = {frozenset(s): z for z, s in enumerate(pl.objects)}
        image = []
        for t in p.objects:
            ds = frozenset(ji for ji, jt in grid if cl.leq_cycle(jt, t))
            ok = ok and ds in by_set
            image.append(by_set.get(ds, -1))
        ok = ok and len(set(image)) == len(p)
        for a in range(len(p)):
            for b in range(len(p)):
                ok = ok and p.leq(a, b) == pl.leq(image[a], image[b])
    check(ok, "criterion 12 (pairs): maximal orthogonal pairs rebuild the "
              "cycle lattice element for element, n=3..5")


def test_criterion_13_fixture_catalogs():
    ok = True
    compact = lambda obj: json.dumps(obj, sort_keys=True,
                                     separators=(",", ":"))

    catalog = load_fixture("path3_catalog.json")
    got = {tl.tubing_to_json(t) for t in tubings("path", 3)}
    ok = ok and got == {compact(e["tubing"]) for e in catalog["tubings"]}
    for entry in catalog["tubings"]:
        t = tl.tubing_from_json(compact(entry["tubing"]))
        ok = ok and gt.gtree_to_json(tl.gtree_of(t)) == \
            compact(entry["tree"])

    catalog = load_fixture("cycle4_catalog.json")
    c4 = graph("cycle", 4)
    ok = ok and len(catalog["trees"]) == 20
    ok = ok and {compact(e["tubing"]) for e in catalog["trees"]} == \
        {tl.tubing_to_json(t) for t in tubings("cycle", 4)}
    for entry in catalog["trees"]:
        tree = gt.gtree_from_json(compact(entry["tree"]))
        ok = ok and tl.tubing_to_json(gt.tubing_of(c4, tree)) == \
            compact(entry["tubing"])

    fx = load_fixture("cycle8_order_trio.json")
    c8 = graph("cycle", 8)
    trio = {name: gt.tubing_of(c8, gt.gtree_from_json(compact(fx[name])))
            for name in ("j", "k", "l")}
    rel = fx["relations"]
    ok = ok and cl.leq_cycle(trio["k"], trio["j"]) == rel["k_leq_j"]
    ok = ok and cl.leq_cycle(trio["j"], trio["k"]) == rel["j_leq_k"]
    ok = ok and cl.leq_cycle(trio["l"], trio["j"]) == rel["l_leq_j"]
    ok = ok and cl.leq_cycle(trio["j"], trio["l"]) == rel["j_leq_l"]
    ok = ok and cl.leq_cycle(trio["l"], trio["k"]) == rel["l_leq_k"]
    ok = ok and cl.leq_cycle(trio["k"], trio["l"]) == rel["k_leq_l"]
    st = tl.pair_statistics(gt.gtree_from_json(compact(fx["k"])))
    ok = ok and sorted(st.inv) == [tuple(p) for p in fx["inv_k"]]

    fx = load_fixture("cycle9_cut_sew.json")
    j9 = tl.tubing_from_json(compact(fx["tubing"]))
    x9 = cl.cut(j9)
    ok = ok and tl.tubing_to_json(x9) == compact(fx["cut_tubing"])
    ok = ok and gt.gtree_to_json(tl.gtree_of(j9)) == \
        compact(fx["tree"])
    ok = ok and gt.gtree_to_json(tl.gtree_of(x9)) == \
        compact(fx["cut_tree"])
    ok = ok and tl.tubing_to_json(cl.sew(x9, cl.parse_word(fx["sew_word"]))) \
        == compact(fx["tubing"])

    fx = load_fixture("cycle5_tree_moves.json")
    base = gt.gtree_from_json(compact(fx["base"]))
    c5 = graph("cycle", 5)
    t = gt.tubing_of(c5, base)
    for mv in fx["moves"]:
        moved = tl.tree_move(base, mv["vertex"], gt.CYCLE_CBT)
        ok = ok and gt.gtree_to_json(moved) == compact(mv["result"])
        t2 = gt.tubing_of(c5, moved)
        if mv["direction"] == "up":
            ok = ok and tl.covers(t, t2)
        else:
            ok = ok and tl.covers(t2, t)

    fx = load_fixture("cycle6_cut_example.json")
    j6 = tl.tubing_from_json(compact(fx["tubing"]))
    ok = ok and tl.tubing_to_json(cl.cut(j6)) == compact(fx["cut_tubing"])

    check(ok, "criterion 13 (catalogs): checked-in fixtures reproduced "
              "byte-exactly")
