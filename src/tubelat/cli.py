"""Command line surface for enumeration, order queries, and verification.

Exit codes: 0 success, 1 property violation (counterexample on stderr as
JSON), 2 usage or parse error, 3 feasibility cap exceeded. Output is
deterministic: identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from itertools import combinations_with_replacement, product

from . import graph_core as gc
from . import cycle_lattice as cl
from . import gtree as gt
from . import lattice_analysis as la

ENUM_CAPS = {"path": 12, "cycle": 11, "complete": 8}
VERIFY_CAPS = {"lattice": 7, "order": 6, "quotient": 7, "sdl": 8, "cu": 12,
               "mobius": 7, "ji": 12, "selfdual": 8, "regular": 8, "pairs": 5}
FIBER_CAP = math.comb(16, 8)  # words; every fiber of a path with n <= 17 fits
FORCING_CAP = 16  # the relations take O(n^4) pair tests: 0.4 s at n = 16
SELECTORS = ("lattice", "order", "quotient", "sdl", "cu", "mobius", "ji",
             "selfdual", "regular", "pairs")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _fail(msg: str, code: int) -> int:
    print(msg, file=sys.stderr)
    return code


def _load_tubing(path: str) -> gc.Tubing:
    with open(path, "r", encoding="utf-8") as fh:
        return gc.tubing_from_json(fh.read())


@lru_cache(maxsize=None)
def _poset(kind: str, n: int) -> la.FinitePoset:
    return la.build_poset(gc.make_graph(kind, n))


# --- verification suites ------------------------------------------------------

def verify_order(n: int):
    graph = gc.make_graph(gc.CYCLE, n)
    p = _poset(gc.CYCLE, n)
    elems = p.objects
    # leq_cycle(ta, tb) is inv(ta) & coinv(tb) == 0; read the masks once
    masks = [gt.inversion_masks(t) for t in elems]
    for a, (inv, _) in enumerate(masks):
        row = format(p.up[a], f"0{len(p)}b")[::-1]  # row[b] is 1 when a <= b
        for b, (_, coinv) in enumerate(masks):
            want = row[b] == "1"
            got = inv & coinv == 0
            if want != got:
                return False, [], {"pair": [p.keys[a], p.keys[b]],
                                   "closure": want, "inversion_test": got}
    # tree encodings round-trip and tree moves realize exactly the covers;
    # a rebuilt tubing is checked by equality with one the program trusts
    pairs = {(i, j) for j in range(2, n + 1) for i in range(1, j)}
    for a, t in enumerate(elems):
        g = gt.gtree_of(graph, t)
        if not gt.validate(g, gt.CYCLE_CBT):
            return False, [], {"invalid_tree_for": p.keys[a]}
        if gc.Tubing._make(graph, g.down_masks[1:]) != t:
            return False, [], {"roundtrip_failed_for": p.keys[a]}
        stats = gt.pair_statistics(g)
        if (stats.inv | stats.coinv | stats.inc != pairs
                or stats.inv & stats.coinv
                or not stats.asc <= stats.coinv or not stats.desc <= stats.inv
                or len(stats.asc) + len(stats.desc) != n - 1):
            return False, [], {"bad_pair_statistics_for": p.keys[a]}
        flips = {top: (x, rep) for x, rep, top, _ in gc._flips(t)}
        for v in range(1, n + 1):
            if v == g.root:
                continue
            moved = gt.tree_move(g, v, gt.CYCLE_CBT)
            if (gc.Tubing._make(graph, moved.down_masks[1:])
                    != gc._swap(t, *flips[v])):
                return False, [], {"tree_move_mismatch": [p.keys[a], v]}
    lines = [f"order: inversion test matches flip closure on all "
             f"{len(elems)}^2 ordered pairs (n={n})",
             f"order: tree encodings round-trip and moves match flips (n={n})"]
    return True, lines, None


def _fiber_pairs(R):
    """Group the elements by their cut's bracket vector R[a], so into the
    fibers of cut, and yield (x, y, pairs) for every unordered pair of
    fibers: their cuts' vectors and their element pairs, X x Y or, within one
    fiber, a <= b. Every unordered pair of elements comes once."""
    fibers = {}
    for a, r in enumerate(R):
        fibers.setdefault(r, []).append(a)
    groups = list(fibers.items())
    for i, (x, X) in enumerate(groups):
        yield x, x, combinations_with_replacement(X, 2)
        for y, Y in groups[i + 1:]:
            yield x, y, product(X, Y)


def _join_failure(es, coords):
    """The first pair (a, b, z, r, pos) of the encodings es whose join by
    lifts differs from z, the oracle's join, found by phi(a) & phi(b) in
    coords: r joins the cuts, pos is the max of the two lifts' positions
    over r, or None when r fails to lie above both cuts and so a lift is
    missing. A pair compares (bracket vector, positions), which determine a
    cycle tubing, with those of z."""
    lifts = [cl._lifts(e) for e in es]
    key = [(e[1], cl._positions(e[3], cl._root(e[1]))) for e in es]
    at, masks = coords.at, coords.masks
    for x, y, pairs in _fiber_pairs([e[1] for e in es]):
        r = bytes(cl._join_brackets(x, y))
        for a, b in pairs:
            pa, pb = lifts[a].get(r), lifts[b].get(r)
            pos = None if pa is None or pb is None else bytes(map(max, pa, pb))
            z = at[masks[a] & masks[b]]
            if (r, pos) != key[z]:
                return a, b, z, r, pos
    return None


def verify_lattice(n: int):
    p = _poset(gc.CYCLE, n)
    witness = la.lattice_failure(p)
    if witness is not None:
        return False, [], witness
    elems = p.objects
    # a meet is the reversed join of the reversals, whose cuts an unlifted
    # meet witness's vector joins; the oracle's meets are the dual's joins
    for op, es, coords in (
            ("join", [cl._encode(t) for t in elems], p.coords),
            ("meet", [cl._encode(gc.relabel_reverse(t)) for t in elems],
             p.dual.coords)):
        bad = _join_failure(es, coords)
        if bad is None:
            continue
        a, b, z, r, pos = bad
        witness = {"op": op, "pair": [p.keys[a], p.keys[b]],
                   "oracle": p.keys[z]}
        if pos is None:
            witness["unlifted"] = list(r)
        else:
            c = cl._decode(r, pos)
            witness["constructive"] = (
                c if op == "join" else gc.relabel_reverse(c)).key()
        return False, [], witness
    return True, [f"lattice: joins and meets exist and the constructive "
                  f"operations match the oracle on all pairs (n={n})"], None


def verify_quotient(n: int):
    p = _poset(gc.CYCLE, n)
    witness = la.lattice_failure(p)
    if witness is not None:
        return False, [], witness
    elems = p.objects
    at, up = p.coords.at, p.coords.masks
    dat, down = p.dual.coords.at, p.dual.coords.masks
    cuts = [cl.cut(t) for t in elems]
    # the oracle's joins and meets, read from the coordinates of p and of
    # its dual, stand for join_cycle/meet_cycle (verify_lattice checks
    # that); a cut is determined by, and compared as, its bracket vector
    R = [bytes(cl._right_sizes(x)) for x in cuts]
    for x, y, pairs in _fiber_pairs(R):
        rj, rm = bytes(cl._join_brackets(x, y)), bytes(map(min, x, y))
        for a, b in pairs:
            if R[at[up[a] & up[b]]] != rj:
                return False, [], {"op": "join",
                                   "pair": [p.keys[a], p.keys[b]]}
            if R[dat[down[a] & down[b]]] != rm:
                return False, [], {"op": "meet",
                                   "pair": [p.keys[a], p.keys[b]]}
    graph_p = gc.make_graph(gc.PATH, n)
    total = 0
    for x in gc.enumerate_maximal_tubings(graph_p):
        words = cl.fiber_words(x)
        if len(words) != cl.fiber_size(x):
            return False, [], {"fiber_size_mismatch": x.key()}
        for w in words:
            back = cl.cut(cl.sew(x, w))
            if back != x:
                return False, [], {"cut_sew_not_identity": [x.key(),
                                                            w.serialize()]}
        lo = cl.sew(x, cl.shuffle_meet(x, words[0], words[-1]))
        hi = cl.sew(x, cl.shuffle_join(x, words[0], words[-1]))
        for w in (words[0], words[-1]):
            t = cl.sew(x, w)
            if not (cl.leq_cycle(lo, t) and cl.leq_cycle(t, hi)):
                return False, [], {"fiber_bounds_wrong": x.key()}
        total += len(words)
    if total != len(elems):
        return False, [], {"fiber_sizes_sum": total, "expected": len(elems)}
    for t, x in zip(elems, cuts):
        if cl.cut(gc.relabel_reverse(t)) != gc.relabel_reverse(x):
            return False, [], {"cut_reversal_mismatch": t.key()}
    return True, [f"quotient: cut respects joins and meets on all pairs (n={n})",
                  f"quotient: fibers shuffle-parameterized, sizes sum to "
                  f"{total}, cut after sew is the identity (n={n})"], None


def verify_sdl(n: int):
    p = _poset(gc.CYCLE, n)
    witness = la.semidistributivity_witness(p)
    if witness is not None:
        return False, [], witness
    return True, [f"sdl: both semidistributive laws hold on all triples "
                  f"(n={n})"], None


def verify_cu(n: int):
    fs = la.forcing_system(n)
    onto, into = fs.arrows_onto, fs.arrows_into
    for rel in (onto, into):
        bad = next(((a, b, d) for a, b in rel for c, d in rel
                    if b == c and a != d and (a, d) not in rel), None)
        if bad is not None:
            return False, [], {"not_transitive": bad}
    bad = next(((a, b) for a, b in onto if (b, a) in into), None)
    if bad is not None:
        return False, [], {"onto_into_two_cycle": bad}
    forces = la._forces_from_definition(fs.universe, onto, into)
    if forces != fs.arrows_force:
        return False, [], {"forcing_closed_form_differs":
                           sorted(forces ^ fs.arrows_force)[0]}
    if not la.relation_acyclic(fs.universe, fs.arrows_force):
        return False, [], {"forcing_cycle": True, "n": n}
    for a, b in fs.arrows_force:
        if not (a.i + a.k, a.k) < (b.i + b.k, b.k):
            return False, [], {"non_increasing_edge": [[a.i, a.k], [b.i, b.k]]}
    return True, [f"cu: direct forcing is acyclic and lexicographically "
                  f"increasing ({len(fs.arrows_force)} arrows, n={n})"], None


def verify_mobius(n: int):
    p = _poset(gc.CYCLE, n)
    for a, row in enumerate(la.mobius_rows(p)):
        if min(row) < -1 or max(row) > 1:
            b = next(b for b, v in enumerate(row) if v not in (-1, 0, 1))
            return False, [], {"pair": [p.keys[a], p.keys[b]], "mu": row[b]}
    return True, [f"mobius: all values lie in -1..1 on {len(p)} elements "
                  f"(n={n})"], None


def verify_ji(n: int):
    graph = gc.make_graph(gc.CYCLE, n)
    seen = {}
    for i in range(1, n):
        prev = None  # the tubing of (i, k - 1)
        for k in range(1, n):
            g = la.canonical_ji(n, i, k)
            if not gt.validate(g, gt.CYCLE_CBT):
                return False, [], {"invalid_canonical_tree": [i, k]}
            stats = gt.pair_statistics(g)
            if len(stats.desc) != 1:
                return False, [], {"descent_count": [i, k, sorted(stats.desc)]}
            if i <= n - k:
                want = {(i, j) for j in range(i + 1, i + k + 1)}
            else:
                want = {(a, b) for a in range(n - k, i + 1)
                        for b in range(i + 1, n + 1)}
            if stats.inv != want:
                return False, [], {"inversion_formula": [i, k]}
            t = gt.tubing_of(graph, g)
            if t.tube_masks in seen:
                return False, [], {"duplicate": [[i, k], seen[t.tube_masks]]}
            seen[t.tube_masks] = [i, k]
            if prev is not None and not gc.covers(graph, prev, t):
                return False, [], {"chain_not_saturated": [i, k]}
            prev = t
    pairs = [(i, k) for i in range(1, n) for k in range(1, n)]
    images = {la.kappa(n, i, k) for i, k in pairs}
    if len(images) != len(pairs):
        return False, [], {"kappa_not_bijective": n}
    lines = [f"ji: {(n - 1) ** 2} canonical trees distinct, single-descent, "
             f"inversions match the closed form, chains saturated (n={n})"]
    if n <= 7:
        p = _poset(gc.CYCLE, n)
        ji_idx = la.join_irreducibles(p)
        got = {p.objects[i].tube_masks for i in ji_idx}
        if got != seen.keys() or len(ji_idx) != (n - 1) ** 2:
            return False, lines, {"poset_ji_count": len(ji_idx),
                                  "expected": (n - 1) ** 2}
        mi_idx = la.meet_irreducibles(p)
        mi_canon = {gc.relabel_reverse(p.objects[i]).tube_masks
                    for i in ji_idx}
        if {p.objects[i].tube_masks for i in mi_idx} != mi_canon:
            return False, lines, {"meet_irreducibles_mismatch": n}
        lines.append(f"ji: poset join irreducibles equal the canonical grid, "
                     f"meet irreducibles are their reversals (n={n})")
    return True, lines, None


def verify_selfdual(n: int):
    p = _poset(gc.CYCLE, n)
    index = {t.tube_masks: i for i, t in enumerate(p.objects)}
    rev = [index.get(gc.relabel_reverse(t).tube_masks) for t in p.objects]
    for a in range(len(p)):  # rev[a] indexes the reversal of element a
        if rev[a] is None or rev[rev[a]] != a:
            return False, [], {"not_involution": p.keys[a]}
    for a, ups in enumerate(p.covers_up):
        for b in ups:
            if rev[a] not in p.covers_up[rev[b]]:
                return False, [], {"cover_not_reversed": [p.keys[a],
                                                          p.keys[b]]}
    lines = [f"selfdual: reversal is an involution and reverses every cover "
             f"(n={n})"]
    if n <= 6:
        for a in range(len(p)):
            for b in range(len(p)):
                if p.leq(a, b) != p.leq(rev[b], rev[a]):
                    return False, [], {"order_not_reversed": [p.keys[a],
                                                              p.keys[b]]}
        lines.append(f"selfdual: full order reversal checked on all pairs "
                     f"(n={n})")
    return True, lines, None


def verify_regular(n: int):
    graph = gc.make_graph(gc.CYCLE, n)
    elems = gc.enumerate_maximal_tubings(graph)
    expect = math.comb(2 * n - 2, n - 1)
    if len(elems) != expect:
        return False, [], {"count": len(elems), "expected": expect}
    for t in elems:
        nbrs = {t2.tube_masks for t2, _, _ in gc.iter_flip_neighbors(graph, t)}
        if len(nbrs) != n - 1:
            return False, [], {"degree": len(nbrs), "at": t.key()}
    return True, [f"regular: {expect} tubings, flip graph is "
                  f"{n - 1}-regular (n={n})"], None


def verify_pairs(n: int):
    pl = la.pairs_lattice(n)
    expect = math.comb(2 * n - 2, n - 1)
    if len(pl) != expect:
        return False, [], {"pairs_count": len(pl), "expected": expect}
    graph = gc.make_graph(gc.CYCLE, n)
    p = _poset(gc.CYCLE, n)
    index = {t.tube_masks: i for i, t in enumerate(p.objects)}
    ji_list = [(la.JiIndex(i, k),
                index[gt.tubing_of(graph, la.canonical_ji(n, i, k)).tube_masks])
               for i in range(1, n) for k in range(1, n)]
    downsets = {idx: frozenset(ji for ji, j in ji_list if p.leq(j, idx))
                for idx in range(len(p))}
    by_set = {frozenset(s): i for i, s in enumerate(pl.objects)}
    if len(by_set) != len(pl):
        return False, [], {"pairs_objects_not_distinct": n}
    image = {}
    for idx, ds in downsets.items():
        if ds not in by_set:
            return False, [], {"downset_missing": p.keys[idx]}
        image[idx] = by_set[ds]
    if len(set(image.values())) != len(p):
        return False, [], {"not_bijective": n}
    for a in range(len(p)):
        for b in range(len(p)):
            if p.leq(a, b) != pl.leq(image[a], image[b]):
                return False, [], {"order_mismatch": [p.keys[a], p.keys[b]]}
    return True, [f"pairs: maximal orthogonal pairs rebuild the lattice, "
                  f"{expect} elements (n={n})"], None


VERIFIERS = {"lattice": verify_lattice, "order": verify_order,
             "quotient": verify_quotient, "sdl": verify_sdl,
             "cu": verify_cu, "mobius": verify_mobius, "ji": verify_ji,
             "selfdual": verify_selfdual, "regular": verify_regular,
             "pairs": verify_pairs}


# --- commands -----------------------------------------------------------------

def cmd_enumerate(args) -> int:
    cap = ENUM_CAPS.get(args.graph, 8)
    if args.n > cap and not args.force:
        return _fail(f"enumerate cap for {args.graph} is n <= {cap} "
                     f"(use --force to override)", 3)
    graph = gc.make_graph(args.graph, args.n)
    elems = gc.enumerate_maximal_tubings(graph)
    if args.format == "count":
        print(len(elems))
    else:
        for t in elems:
            print(gc.tubing_to_json(t))
    return 0


def cmd_order(args) -> int:
    a = _load_tubing(args.a)
    b = _load_tubing(args.b)
    print(_dump({"leq": cl.leq_cycle(a, b), "geq": cl.leq_cycle(b, a)}))
    return 0


def cmd_join(args) -> int:
    a = _load_tubing(args.a)
    b = _load_tubing(args.b)
    if a.graph.kind == gc.CYCLE:
        result = cl.meet_cycle(a, b) if args.op == "meet" else cl.join_cycle(a, b)
    else:
        result = cl.meet_path(a, b) if args.op == "meet" else cl.join_path(a, b)
    print(gc.tubing_to_json(result))
    return 0


def cmd_cut(args) -> int:
    print(gc.tubing_to_json(cl.cut(_load_tubing(args.input))))
    return 0


def cmd_sew(args) -> int:
    base = _load_tubing(args.base)
    word = cl.parse_word(args.word)
    print(gc.tubing_to_json(cl.sew(base, word)))
    return 0


def cmd_fiber(args) -> int:
    base = _load_tubing(args.base)
    size = cl.fiber_size(base)
    if args.format == "count":
        print(size)
        return 0
    if size > FIBER_CAP and not args.force:
        return _fail(f"fiber cap is {FIBER_CAP} words, this one has {size} "
                     f"(use --force to override)", 3)
    for w in cl.fiber_words(base):
        print(_dump({"word": w.serialize(),
                     "tubing": json.loads(gc.tubing_to_json(cl.sew(base, w)))}))
    return 0


def cmd_lift(args) -> int:
    j = _load_tubing(args.input)
    x = _load_tubing(args.target)
    print(gc.tubing_to_json(cl.lift(j, x)))
    return 0


def cmd_gtree(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        obj = gc.parse_json(fh.read())
    if isinstance(obj, dict) and "tubes" in obj:
        t = gc.tubing_from_obj(obj)
        g = gt.gtree_of(t.graph, t)
        print(gt.gtree_to_dot(g) if args.format == "dot"
              else gt.gtree_to_json(g))
        return 0
    g = gt.gtree_from_obj(obj)
    if args.graph is None:
        return _fail("tree to tubing conversion needs --graph", 2)
    graph = gc.make_graph(args.graph, g.n)
    print(gc.tubing_to_json(gt.tubing_of(graph, g)))
    return 0


def cmd_ji(args) -> int:
    g = la.canonical_ji(args.n, args.i, args.k)
    print(gt.gtree_to_dot(g) if args.format == "dot" else gt.gtree_to_json(g))
    return 0


def cmd_kappa(args) -> int:
    m = la.kappa(args.n, args.i, args.k)
    print(_dump({"i": m.i, "k": m.k}))
    return 0


def cmd_forcing(args) -> int:
    if args.n > FORCING_CAP and not args.force:
        return _fail(f"forcing cap is n <= {FORCING_CAP} (use --force to override)", 3)
    print(la.forcing_to_json(la.forcing_system(args.n)))
    return 0


def cmd_hasse(args) -> int:
    cap = {"path": 10, "cycle": 8, "complete": 7}[args.graph]
    if args.n > cap and not args.force:
        return _fail(f"hasse cap for {args.graph} is n <= {cap} "
                     f"(use --force to override)", 3)
    p = _poset(args.graph, args.n)
    labels = "key" if args.labels == "tubing" else "index"
    sys.stdout.write(la.hasse_dot(p, labels=labels))
    return 0


def cmd_mobius(args) -> int:
    if args.n > 6 and not args.force:
        return _fail("mobius cap is n <= 6 (use --force to override)", 3)
    p = _poset(args.graph, args.n)
    sys.stdout.write(la.mobius_csv(p))
    return 0


def cmd_verify(args) -> int:
    if args.selector == "all":
        plan = [(s, min(args.n, VERIFY_CAPS[s])) for s in SELECTORS]
    else:
        if args.selector not in VERIFIERS:
            return _fail(f"unknown selector {args.selector!r}", 2)
        cap = VERIFY_CAPS[args.selector]
        if args.n > cap and not args.force:
            return _fail(f"verify cap for {args.selector} is n <= {cap} "
                         f"(use --force to override)", 3)
        plan = [(args.selector, args.n)]

    exit_code = 0
    for selector, n in plan:
        ok, lines, witness = VERIFIERS[selector](n)
        status = "PASS" if ok else "FAIL"
        print(f"{status} {selector} (n={n})")
        for line in lines:
            print(f"  {line}")
        if not ok:
            exit_code = 1
            print(_dump({"selector": selector, "n": n, "counterexample":
                         witness}), file=sys.stderr)
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubelat",
        description="Maximal tubings of path and cycle graphs: enumeration, "
                    "order tests, lattice operations, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list or count all maximal tubings")
    p.add_argument("--graph", choices=["path", "cycle", "complete"],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["count", "json"], default="count")
    p.add_argument("--force", action="store_true",
                   help="override the feasibility cap")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("order", help="compare two cycle tubings both ways")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_order)

    for name in ("join", "meet"):
        p = sub.add_parser(name, help=f"{name} of two tubings (path or cycle)")
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.set_defaults(func=cmd_join, op=name)

    p = sub.add_parser("cut", help="project a cycle tubing to the path")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("sew", help="sew a path tubing along a shuffle word")
    p.add_argument("--base", required=True)
    p.add_argument("--word", required=True,
                   help="comma separated, or digit shorthand for n <= 9")
    p.set_defaults(func=cmd_sew)

    p = sub.add_parser("fiber", help="all cycle tubings cutting to a base")
    p.add_argument("--base", required=True)
    p.add_argument("--format", choices=["json", "count"], default="json")
    p.add_argument("--force", action="store_true",
                   help="override the feasibility cap on listed words")
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("lift", help="least fiber element above a cycle tubing")
    p.add_argument("--input", required=True, help="cycle tubing file")
    p.add_argument("--target", required=True, help="path tubing file")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("gtree", help="convert between tubings and trees")
    p.add_argument("--input", required=True)
    p.add_argument("--graph", choices=["path", "cycle", "complete"],
                   help="graph kind when converting a tree to a tubing")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_gtree)

    p = sub.add_parser("ji", help="emit a canonical join irreducible tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_ji)

    p = sub.add_parser("kappa", help="meet irreducible paired with j(i,k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("forcing", help="emit the forcing relations as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_forcing)

    p = sub.add_parser("hasse", help="DOT export of the tubing poset")
    p.add_argument("--graph", choices=["path", "cycle", "complete"],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--labels", choices=["index", "tubing"], default="index")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("mobius", help="CSV export of the Moebius matrix")
    p.add_argument("--graph", choices=["path", "cycle", "complete"],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_mobius)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--selector", choices=("all",) + SELECTORS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail(f"error: {exc}", 2)


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
