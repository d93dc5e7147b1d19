import json

import pytest

import tubelat as tl
from tubelat import cycle_lattice as cl
from tubelat import gtree as gt
from tubelat import lattice_analysis as la
from helpers import graph, poset, tubings


def ji_tubing(n, i, k):
    return gt.tubing_of(graph("cycle", n), la.canonical_ji(n, i, k))


def mi_tubing(n, i, k):
    return gt.tubing_of(graph("cycle", n), la.canonical_mi(n, i, k))


# --- the poset oracle ----------------------------------------------------------

def test_build_poset_cycle4():
    p = poset("cycle", 4)
    assert len(p) == 20
    degrees = [len(p.covers_up[i]) + len(p.covers_down[i])
               for i in range(len(p))]
    assert all(d == 3 for d in degrees)
    assert la.is_lattice(p)


def test_build_poset_path3_is_a_pentagon():
    p = poset("path", 3)
    assert len(p) == 5
    assert sum(len(c) for c in p.covers_up) == 5
    assert la.is_lattice(p)
    assert p.minimum() != p.maximum()


def test_build_poset_cycle3_is_a_hexagon():
    p = poset("cycle", 3)
    assert len(p) == 6
    assert sum(len(c) for c in p.covers_up) == 6
    ranks = sorted(p.down[i].bit_count() for i in range(len(p)))
    assert ranks == [1, 2, 2, 3, 3, 6]


def test_build_poset_respects_the_cap():
    with pytest.raises(ValueError):
        la.build_poset(graph("cycle", 5), max_elements=10)


def diamond():
    # minimum, three middle atoms, maximum
    return la.FinitePoset.from_covers(
        ["0", "a", "b", "c", "1"], [(1, 2, 3), (4,), (4,), (4,), ()])


def boolean_square():
    return la.FinitePoset.from_covers(
        ["0", "a", "b", "1"], [(1, 2), (3,), (3,), ()])


def two_tops():
    # a and b have the two minimal upper bounds x and y: not a lattice
    return la.FinitePoset.from_covers(
        ["0", "a", "b", "x", "y"], [(1, 2), (3, 4), (3, 4), (), ()])


def test_brute_join_and_failure_reporting():
    p = poset("cycle", 4)
    lo = p.minimum()
    for b in range(len(p)):
        assert la.brute_join(p, lo, b) == b
        assert la.brute_meet(p, lo, b) == lo
    broken = two_tops()
    assert la.brute_join(broken, 1, 2) is None
    assert len(la.minimal_upper_bounds(broken, 1, 2)) == 2
    assert not la.is_lattice(broken)
    witness = la.lattice_failure(broken)
    assert witness is not None and "minimal_upper_bounds" in witness


def test_dual_poset_and_meet_table():
    for p in (poset("path", 4), poset("cycle", 4), two_tops()):
        dd = p.dual.dual
        assert (dd.up, dd.down) == (p.up, p.down)
        for a in range(len(p)):
            for b in range(len(p)):
                mlbs = la.maximal_lower_bounds(p, a, b)
                want = mlbs[0] if len(mlbs) == 1 else -1
                assert p.meet_table[a][b] == want
    assert two_tops().meet_table[3][4] == -1


def test_mobius_basics():
    p = poset("cycle", 4)
    matrix = la.mobius(p)
    for i in range(len(p)):
        assert matrix[i][i] == 1
        for j in p.covers_up[i]:
            assert matrix[i][j] == -1
        for j in range(len(p)):
            if not p.leq(i, j):
                assert matrix[i][j] == 0


def test_mobius_rows_sum_to_zero_on_intervals():
    p = poset("cycle", 4)
    matrix = la.mobius(p)
    for a in range(len(p)):
        for b in range(len(p)):
            if p.leq(a, b) and a != b:
                total = sum(matrix[a][z] for z in range(len(p))
                            if p.leq(a, z) and p.leq(z, b))
                assert total == 0


def test_mobius_values_small():
    for n in (3, 4, 5):
        matrix = la.mobius(poset("cycle", n))
        assert all(v in (-1, 0, 1) for row in matrix for v in row)


# --- join irreducibles -----------------------------------------------------------

def test_join_irreducible_counts():
    for n in (3, 4, 5, 6):
        p = poset("cycle", n)
        assert len(la.join_irreducibles(p)) == (n - 1) ** 2
        assert len(la.meet_irreducibles(p)) == (n - 1) ** 2


def test_join_irreducibles_equal_the_canonical_grid():
    for n in (4, 5, 6):
        p = poset("cycle", n)
        canon = {ji_tubing(n, i, k).tube_masks
                 for i in range(1, n) for k in range(1, n)}
        got = {p.objects[i].tube_masks for i in la.join_irreducibles(p)}
        assert got == canon


def test_atoms_are_the_height_one_irreducibles():
    for n in (4, 5):
        p = poset("cycle", n)
        lo = p.minimum()
        atoms = {p.objects[i].tube_masks for i in p.covers_up[lo]}
        assert atoms == {ji_tubing(n, i, 1).tube_masks for i in range(1, n)}


def test_meet_irreducibles_are_reversed_join_irreducibles():
    for n in (4, 5):
        p = poset("cycle", n)
        mi = {p.objects[i].tube_masks for i in la.meet_irreducibles(p)}
        reversed_ji = {tl.relabel_reverse(p.objects[i]).tube_masks
                       for i in la.join_irreducibles(p)}
        assert mi == reversed_ji
        for i in range(1, n):
            for k in range(1, n):
                assert mi_tubing(n, i, k) == tl.relabel_reverse(
                    ji_tubing(n, i, n - k))


def test_irreducible_chains_are_saturated_and_disjoint():
    for n in (4, 5, 6):
        g = graph("cycle", n)
        for i in range(1, n):
            for k in range(1, n - 1):
                assert tl.covers(g, ji_tubing(n, i, k), ji_tubing(n, i, k + 1))
        for i in range(1, n):
            for s in range(1, n):
                for k in range(1, n):
                    for t in range(1, n):
                        a, b = ji_tubing(n, i, k), ji_tubing(n, s, t)
                        comparable = cl.leq_cycle(a, b) or cl.leq_cycle(b, a)
                        assert comparable == (i == s)


def test_canonical_ji_explicit_trees():
    g = la.canonical_ji(7, 3, 1)
    assert g.root == 7
    assert {v: g.parent[v] for v in range(1, 7)} == {
        6: 7, 5: 6, 3: 5, 4: 3, 2: 3, 1: 2}
    g = la.canonical_ji(7, 3, 4)
    assert g.root == 3
    assert {v: g.parent[v] for v in (7, 6, 5, 4, 2, 1)} == {
        7: 3, 6: 7, 5: 6, 4: 5, 2: 7, 1: 2}
    with pytest.raises(ValueError):
        la.canonical_ji(7, 0, 1)
    with pytest.raises(ValueError):
        la.canonical_ji(7, 3, 7)


def test_canonical_ji_inversion_closed_form():
    for n in range(3, 9):
        for i in range(1, n):
            for k in range(1, n):
                tree = la.canonical_ji(n, i, k)
                assert tl.validate(tree, gt.CYCLE_CBT)
                st = tl.pair_statistics(tree)
                assert len(st.desc) == 1
                if i <= n - k:
                    want = {(i, j) for j in range(i + 1, i + k + 1)}
                else:
                    want = {(a, b) for a in range(n - k, i + 1)
                            for b in range(i + 1, n + 1)}
                assert st.inv == want


def test_canonical_mi_coinversion_closed_form():
    for n in range(3, 9):
        for i in range(1, n):
            for k in range(1, n):
                st = tl.pair_statistics(la.canonical_mi(n, i, k))
                if i <= k:
                    want = {(a, n - i + 1) for a in range(k - i + 1, n - i + 1)}
                else:
                    want = {(a, b) for a in range(1, n - i + 1)
                            for b in range(n - i + 1, n - k + 2)}
                assert st.coinv == want


# --- kappa -----------------------------------------------------------------------

def test_kappa_formula_values():
    assert la.kappa(5, 1, 1) == la.MiIndex(4, 4)
    assert la.kappa(5, 4, 4) == la.MiIndex(4, 1)
    with pytest.raises(ValueError):
        la.kappa(5, 5, 1)


def test_kappa_is_bijective():
    for n in range(3, 9):
        images = {la.kappa(n, i, k)
                  for i in range(1, n) for k in range(1, n)}
        assert len(images) == (n - 1) ** 2
        assert all(1 <= m.i <= n - 1 and 1 <= m.k <= n - 1 for m in images)


def test_kappa_matches_brute_force_maximum():
    for n in (4, 5):
        p = poset("cycle", n)
        index = {t.tube_masks: i for i, t in enumerate(p.objects)}
        meet = p.meet_table
        for i in range(1, n):
            for k in range(1, n):
                ji = index[ji_tubing(n, i, k).tube_masks]
                below = p.covers_down[ji]
                assert len(below) == 1
                jstar = below[0]
                candidates = [z for z in range(len(p))
                              if meet[z][ji] == jstar]
                best = [z for z in candidates
                        if all(p.leq(o, z) for o in candidates)]
                mi = la.kappa(n, i, k)
                assert best == [index[mi_tubing(n, mi.i, mi.k).tube_masks]]


def test_chain_order_cutoffs():
    # elements of the meet chains compare against a join irreducible
    # exactly above a height cutoff determined by the chain matching
    for n in (4, 5, 6):
        for i in range(1, n):
            for k in range(1, n):
                jt = ji_tubing(n, i, k)
                for level in range(1, n):
                    ci = la.c_perm(n, i, level)
                    if level > k:
                        cutoff = 0
                    elif level <= n - i:
                        cutoff = n - level
                    else:
                        cutoff = n - i
                    for h in range(1, n):
                        above = cl.leq_cycle(jt, mi_tubing(n, ci, h))
                        assert above == (h > cutoff)


# --- semidistributivity -----------------------------------------------------------

def test_semidistributive_counterexamples():
    assert not la.check_semidistributive(diamond())
    assert la.check_semidistributive(boolean_square())
    with pytest.raises(ValueError):
        la.check_semidistributive(la.FinitePoset.from_covers(
            ["0", "a", "b", "x", "y"], [(1, 2), (3, 4), (3, 4), (), ()]))


def test_cycle_lattices_are_semidistributive():
    for n in (3, 4):
        assert la.check_semidistributive(poset("cycle", n))


def test_semidistributivity_matches_kappa_existence():
    # the meet law holds exactly when every join irreducible admits kappa
    for p in (poset("cycle", 3), poset("cycle", 4), diamond(),
              boolean_square()):
        meet = p.meet_table
        kappa_exists = True
        for ji in la.join_irreducibles(p):
            jstar = p.covers_down[ji][0]
            candidates = [z for z in range(len(p)) if meet[z][ji] == jstar]
            if not any(all(p.leq(o, z) for o in candidates)
                       for z in candidates):
                kappa_exists = False
        assert kappa_exists == la.check_semidistributive(p)


# --- the forcing apparatus ---------------------------------------------------------

def test_c_perm_example():
    assert [la.c_perm(5, 2, k) for k in (1, 2, 3, 4)] == [3, 2, 1, 4]


def test_forcing_system_three_vertices():
    fs = la.forcing_system(3)
    pairs = lambda rel: {((a.i, a.k), (b.i, b.k)) for a, b in rel}
    assert pairs(fs.arrows_into) == {((2, 1), (1, 2)), ((1, 1), (2, 2))}
    assert pairs(fs.arrows_onto) == {((1, 2), (1, 1)), ((2, 2), (2, 1))}
    assert pairs(fs.arrows_to) == {
        ((1, 2), (1, 1)), ((1, 2), (2, 2)), ((2, 1), (1, 2)),
        ((2, 2), (2, 1)), ((1, 1), (2, 2)), ((2, 2), (1, 2))}


def test_forcing_system_five_vertex_chain():
    fs = la.forcing_system(5)
    chain = [((4, 1), (3, 2)), ((3, 2), (2, 3)), ((2, 3), (1, 4))]
    for a, b in chain:
        assert (la.JiIndex(*a), la.JiIndex(*b)) in fs.arrows_into


def test_forcing_arrows_match_the_order_on_irreducibles():
    # onto is the strict order of the lattice restricted to join
    # irreducibles; to(x, y) says x is not below kappa(y)
    for n in (4, 5):
        fs = la.forcing_system(n)
        jt = {x: ji_tubing(n, *x) for x in fs.universe}
        for x in fs.universe:
            for y in fs.universe:
                if x == y:
                    continue
                strictly_above = cl.leq_cycle(jt[y], jt[x])
                assert ((x, y) in fs.arrows_onto) == strictly_above
                mi = la.kappa(n, *y)
                arrow = not cl.leq_cycle(jt[x], mi_tubing(n, mi.i, mi.k))
                assert ((x, y) in fs.arrows_to) == arrow


def test_forcing_two_acyclicity_and_partial_orders():
    for n in range(3, 13):
        fs = la.forcing_system(n)
        for rel in (fs.arrows_onto, fs.arrows_into):
            assert all(a != b for a, b in rel)
            assert la.relation_acyclic(fs.universe, rel)
            after = {}
            for a, b in rel:
                after.setdefault(a, set()).add(b)
            for a, b in rel:  # transitive
                assert after.get(b, set()) <= after[a]
        for a, b in fs.arrows_onto:
            assert (b, a) not in fs.arrows_into
        # forcing_system returns the closed form; the definition must agree
        assert la._forces_from_definition(
            fs.universe, fs.arrows_onto, fs.arrows_into) == fs.arrows_force


def test_congruence_uniformity():
    for n in range(3, 11):
        assert la.check_congruence_uniform(n)
        fs = la.forcing_system(n)
        for a, b in fs.arrows_force:
            assert (a.i + a.k, a.k) < (b.i + b.k, b.k)


def test_cycle_detector_sanity():
    u = (la.JiIndex(1, 1), la.JiIndex(1, 2), la.JiIndex(2, 1))
    assert la.relation_acyclic(u, {(u[0], u[1]), (u[1], u[2])})
    assert not la.relation_acyclic(u, {(u[0], u[1]), (u[1], u[2]),
                                       (u[2], u[0])})
    assert not la.relation_acyclic(u, {(u[0], u[0])})


# --- maximal orthogonal pairs -------------------------------------------------------

def subset_filter_pairs(n):
    """Oracle: scan every subset of the grid for the closure condition."""
    fs = la.forcing_system(n)
    universe = fs.universe
    closed = set()
    for code in range(1 << len(universe)):
        members = frozenset(x for b, x in enumerate(universe)
                            if code & (1 << b))
        left, _ = la.orthogonal_pair(fs, members)
        if left == members:
            closed.add(members)
    return closed


def test_pairs_lattice_matches_subset_filter():
    for n in (3, 4):
        pl = la.pairs_lattice(n)
        assert {frozenset(s) for s in pl.objects} == subset_filter_pairs(n)


def test_pairs_lattice_minimum_is_the_empty_pair():
    for n in (3, 4, 5):
        pl = la.pairs_lattice(n)
        assert pl.objects[pl.minimum()] == frozenset()
        assert pl.objects[pl.maximum()] == frozenset(
            la.forcing_system(n).universe)


def test_pairs_lattice_reconstructs_the_tubing_lattice():
    import math
    for n in (3, 4):
        pl = la.pairs_lattice(n)
        assert len(pl) == math.comb(2 * n - 2, n - 1)
        p = poset("cycle", n)
        ji = {(i, k): ji_tubing(n, i, k)
              for i in range(1, n) for k in range(1, n)}
        by_set = {frozenset(s): i for i, s in enumerate(pl.objects)}
        image = []
        for t in p.objects:
            ds = frozenset(la.JiIndex(i, k) for (i, k), jt in ji.items()
                           if cl.leq_cycle(jt, t))
            image.append(by_set[ds])
        assert len(set(image)) == len(p)
        for a in range(len(p)):
            for b in range(len(p)):
                assert p.leq(a, b) == pl.leq(image[a], image[b])


def test_pairs_lattice_rejects_large_grids():
    with pytest.raises(ValueError):
        la.pairs_lattice(7)


# --- exports -------------------------------------------------------------------------

def test_hasse_dot_export():
    dot = la.hasse_dot(poset("path", 3))
    assert dot.startswith("digraph hasse {")
    assert dot.count("->") == 5
    labelled = la.hasse_dot(poset("path", 3), labels="key")
    assert "[[1],[1,2],[1,2,3]]" in labelled.replace('\\"', '"')


def test_mobius_csv_export():
    p = poset("cycle", 3)
    rows = la.mobius_csv(p).strip().split("\n")
    assert len(rows) == 6 and all(len(r.split(",")) == 6 for r in rows)


def test_forcing_json_export():
    obj = json.loads(la.forcing_to_json(la.forcing_system(3)))
    assert obj["n"] == 3
    assert [[2, 1], [1, 2]] in obj["into"]
    assert len(obj["to"]) == 6
