import json
import random
import time
import tracemalloc

import pytest

import tubelat as tl
from tubelat import cli
from tubelat import cycle_lattice as cl
from tubelat import gtree as gt
from tubelat import lattice_analysis as la
from helpers import (diamond, graph, oracle_mobius, orthogonal_pair, poset,
                     poset_from_leq, tubings)


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


def test_build_poset_refuses_before_enumerating_past_the_cap():
    # cycle 12 has 705,432 tubings; the pass stops near the first 1,000
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="over the cap"):
            la.build_poset(graph("cycle", 12), max_elements=1000)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2 and peak < 4 * 2 ** 20


def boolean_square():
    return la.FinitePoset.from_covers(
        ["0", "a", "b", "1"], [(1, 2), (3,), (3,), ()])


def two_tops():
    # a and b have the two minimal upper bounds x and y: not a lattice
    return la.FinitePoset.from_covers(
        ["0", "a", "b", "x", "y"], [(1, 2), (3, 4), (3, 4), (), ()])


def vee():
    # a and b are both maximal: no common upper bound at all
    return la.FinitePoset.from_covers(["0", "a", "b"], [(1, 2), (), ()])


def pentagon():
    # N5: 0 < a < c < 1 and 0 < b < 1; semidistributive, not modular
    return la.FinitePoset.from_covers(
        ["0", "a", "b", "c", "1"], [(1, 2), (3,), (4,), (4,), ()])


def meet_sd_only():
    # the meet law holds; the join law fails: c v d = c v e = 1, c v b = c
    return la.FinitePoset.from_covers(
        ["0", "a", "b", "c", "d", "e", "1"],
        [(1, 2), (3, 5), (3, 4), (6,), (6,), (6,), ()])


def two_minima():
    # a join-semilattice that is not a lattice: the minima a and b have no meet
    return la.FinitePoset.from_covers(
        ["a", "b", "x", "y", "1"], [(2, 3), (2,), (4,), (4,), ()])


def bowtie():
    # a, b below both x and y: no element is the meet of its upper covers
    return la.FinitePoset.from_covers(
        ["a", "b", "x", "y"], [(2, 3), (2, 3), (), ()])


def antichain():
    return la.FinitePoset.from_covers(["a", "b", "c"], [(), (), ()])


def named_posets():
    return [diamond(), boolean_square(), two_tops(), vee(), pentagon(),
            meet_sd_only(), two_minima(), bowtie(), antichain()]


def bound_scan_failure(p):
    """The first pair a < b without a unique minimal upper or maximal lower
    bound, by scanning the bounds of every pair."""
    for a in range(len(p)):
        for b in range(a + 1, len(p)):
            for name, bounds in (("minimal_upper_bounds",
                                  la.minimal_upper_bounds(p, a, b)),
                                 ("maximal_lower_bounds",
                                  la.maximal_lower_bounds(p, a, b))):
                if len(bounds) != 1:
                    return {"pair": [p.keys[a], p.keys[b]],
                            name: [p.keys[z] for z in bounds]}
    return None


def test_tables_match_the_bound_definitions():
    posets = [poset(kind, n) for kind in ("path", "cycle") for n in (3, 4, 5)]
    for p in posets + [diamond(), two_tops(), vee()]:
        for a in range(len(p)):
            for b in range(len(p)):
                mubs = la.minimal_upper_bounds(p, a, b)
                want = mubs[0] if len(mubs) == 1 else -1
                assert p.join_table[a][b] == want
                mlbs = la.maximal_lower_bounds(p, a, b)
                want = mlbs[0] if len(mlbs) == 1 else -1
                assert p.meet_table[a][b] == want


def test_lattice_failure_matches_the_bound_scan():
    for p in (two_tops(), two_tops().dual, vee(), vee().dual):
        want = bound_scan_failure(p)
        assert want is not None and la.lattice_failure(p) == want
    assert "maximal_lower_bounds" in la.lattice_failure(two_tops().dual)
    assert la.lattice_failure(vee())["minimal_upper_bounds"] == []


def test_lattice_failure_builds_no_table():
    # nor do the SD witness, passing or failing on either law, and the
    # lattice and quotient suites
    checked = [two_tops(), vee().dual, la.build_poset(graph("cycle", 4))]
    for p in checked:
        la.lattice_failure(p)
    lattices = [la.build_poset(graph("cycle", 5)), diamond(), meet_sd_only()]
    for p in lattices:
        la.semidistributivity_witness(p)
    cli._poset.cache_clear()
    assert cli.verify_lattice(5)[0] and cli.verify_quotient(5)[0]
    for p in checked + lattices + [cli._poset("cycle", 5)]:
        assert not {"join_table", "meet_table"} & p.__dict__.keys()
        assert not {"join_table", "meet_table"} & p.dual.__dict__.keys()


def test_coordinates_embed_the_order():
    # x <= y exactly when phi(y) is a subset of phi(x), on p and its dual
    posets = [poset("cycle", n) for n in range(3, 7)] + named_posets()
    for p in posets + [q.dual for q in posets]:
        masks = p.coords.masks
        assert p.coords.at == {m: i for i, m in enumerate(masks)}
        for x in range(len(p)):
            for y in range(len(p)):
                assert p.leq(x, y) == (masks[y] & ~masks[x] == 0)
    for p in (bowtie(), antichain()):
        assert p.coords.irreducibles == tuple(range(len(p)))
    # in a lattice Q is the set of meet irreducibles
    for p in [poset("cycle", n) for n in range(3, 7)] + [diamond(), pentagon()]:
        assert p.coords.irreducibles == la.meet_irreducibles(p)


def random_dag_poset(rng):
    """The transitive closure of a random DAG, relabeled at random."""
    n = rng.randint(1, 9)
    density = rng.choice((0.15, 0.3, 0.5))
    up = [0] * n
    for i in reversed(range(n)):
        up[i] = 1 << i
        for j in range(i + 1, n):
            if rng.random() < density:
                up[i] |= up[j]
    return relabeled(rng, up)


def random_closure_system(rng):
    """A random family of subsets closed under intersection, with the full
    set: a lattice under inclusion, not always semidistributive."""
    ground = rng.randint(3, 5)
    full = (1 << ground) - 1
    family = {full} | {rng.randint(0, full) for _ in range(rng.randint(2, 7))}
    grown = True
    while grown:
        more = {a & b for a in family for b in family} - family
        family |= more
        grown = bool(more)
    sets = sorted(family)
    up = [sum(1 << j for j, t in enumerate(sets) if s & ~t == 0) for s in sets]
    return relabeled(rng, up)


def relabeled(rng, up):
    """The poset with up-set masks up, its elements in a random order."""
    n = len(up)
    perm = list(range(n))
    rng.shuffle(perm)
    masks = [0] * n
    for i in range(n):
        masks[perm[i]] = sum(1 << perm[j] for j in la._bits(up[i]))
    return poset_from_leq([str(i) for i in range(n)], masks)


def test_oracle_matches_the_references_on_random_posets():
    rng = random.Random(20251010)
    counts = {"non_lattice": 0, "sd": 0, "not_sd": 0}
    for trial in range(1000):
        make = random_dag_poset if trial % 2 else random_closure_system
        p = make(rng)
        masks = p.coords.masks
        joins_exist = True
        for a in range(len(p)):
            for b in range(len(p)):
                assert p.leq(a, b) == (masks[b] & ~masks[a] == 0)
                mubs = la.minimal_upper_bounds(p, a, b)
                assert p.join_table[a][b] == (mubs[0] if len(mubs) == 1
                                              else -1)
                mlbs = la.maximal_lower_bounds(p, a, b)
                assert p.meet_table[a][b] == (mlbs[0] if len(mlbs) == 1
                                              else -1)
                joins_exist = joins_exist and len(mubs) == 1
        failure = bound_scan_failure(p)
        assert la.lattice_failure(p) == failure
        if failure is None:
            witness = check_sd_witness(p)
            counts["sd" if witness is None else "not_sd"] += 1
        else:
            counts["non_lattice"] += 1
            with pytest.raises(ValueError):
                la.semidistributivity_witness(p)
        if joins_exist:
            assert la.mobius(p) == oracle_mobius(p)
        else:
            with pytest.raises(ValueError):
                la.mobius(p)
    assert min(counts.values()) >= 50, counts


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


def test_mobius_matches_the_zeta_recursion():
    posets = ([poset("cycle", n) for n in range(3, 7)]
              + [poset("path", n) for n in range(1, 7)]
              + [poset("complete", n) for n in range(1, 6)]
              + [diamond(), pentagon(), meet_sd_only(), boolean_square(),
                 two_minima()])
    for p in posets:
        assert la.mobius(p) == oracle_mobius(p)
    # M3: the three pairs of atoms and all three atoms each join to 1
    assert la.mobius(diamond())[0][4] == 2


def test_mobius_needs_every_join():
    for p in (two_tops(), vee()):
        with pytest.raises(ValueError):
            la.mobius(p)


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


@pytest.mark.parametrize("build", [
    lambda: la.canonical_ji(10 ** 6, 1, 1),
    lambda: la.canonical_mi(10 ** 6, 1, 1),
    lambda: la.forcing_system(10 ** 5),
    lambda: la.forcing_system(64),
], ids=["ji-1e6", "mi-1e6", "forcing-1e5", "forcing-64"])
def test_huge_vertex_counts_are_refused_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"vertex count must be in 1\.\.63"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    for n in (3, 4, 5, 6):
        assert la.check_semidistributive(poset("cycle", n))


def triple_scan_witness(p, laws=("meet", "join")):
    """The first (x, y, z) violating one of the semidistributive laws
    named in laws, the meet law first on each triple, by brute force."""
    join, meet, n = p.join_table, p.meet_table, len(p)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                triple = [p.keys[x], p.keys[y], p.keys[z]]
                if ("meet" in laws and meet[x][z] == meet[x][y]
                        and meet[x][join[y][z]] != meet[x][y]):
                    return {"law": "meet", "triple": triple}
                if ("join" in laws and join[x][z] == join[x][y]
                        and join[x][meet[y][z]] != join[x][y]):
                    return {"law": "join", "triple": triple}
    return None


def check_sd_witness(p):
    """semidistributivity_witness(p), held to the triple scan: None exactly
    when the scan finds no triple; otherwise a triple that breaks its named
    law under the tables, and the meet law whenever that law fails."""
    got = la.semidistributivity_witness(p)
    assert (got is None) == (triple_scan_witness(p) is None)
    if got is not None:
        index = {key: i for i, key in enumerate(p.keys)}
        x, y, z = (index[key] for key in got["triple"])
        op, co = ((p.meet_table, p.join_table) if got["law"] == "meet"
                  else (p.join_table, p.meet_table))
        assert op[x][z] == op[x][y] and op[x][co[y][z]] != op[x][y]
        assert (got["law"] == "meet"
                or triple_scan_witness(p, ("meet",)) is None)
    return got


def test_semidistributivity_matches_the_triple_scan():
    lattices = [poset(kind, n) for kind in ("path", "cycle")
                for n in (3, 4, 5)]
    for p in lattices + [diamond(), boolean_square(), pentagon(),
                         meet_sd_only(), meet_sd_only().dual]:
        got = check_sd_witness(p)
        assert la.check_semidistributive(p) == (got is None)
    assert triple_scan_witness(pentagon()) is None
    assert triple_scan_witness(diamond()) is not None
    assert triple_scan_witness(meet_sd_only())["law"] == "join"
    assert triple_scan_witness(meet_sd_only().dual)["law"] == "meet"
    # a meets b and c in 0, and b v c = 1
    assert la.semidistributivity_witness(diamond()) == {
        "law": "meet", "triple": ["a", "b", "c"]}
    assert la.semidistributivity_witness(meet_sd_only())["law"] == "join"
    assert la.semidistributivity_witness(meet_sd_only().dual)["law"] == "meet"


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
        left, _ = orthogonal_pair(fs, members)
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


def test_pairs_lattice_covers_match_the_containment_order():
    for n in (3, 4, 5):
        pl = la.pairs_lattice(n)
        sets = pl.objects
        up = [sum(1 << j for j, y in enumerate(sets) if x <= y) for x in sets]
        want = poset_from_leq(pl.keys, up, sets)
        assert pl == want


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
