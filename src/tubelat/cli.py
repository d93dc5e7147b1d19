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
from functools import lru_cache, reduce
from itertools import product
from operator import and_, getitem

from . import graph_core as gc
from . import cycle_lattice as cl
from . import gtree as gt
from . import lattice_analysis as la

ENUM_CAPS = {"path": 12, "cycle": 11, "complete": 8}
VERIFY_CAPS = {"lattice": 9, "order": 9, "quotient": 9, "sdl": 9, "cu": 12,
               "mobius": 9, "ji": 12, "selfdual": 9, "regular": 9, "pairs": 5}
FIBER_CAP = math.comb(16, 8)  # words; every fiber of a path with n <= 17 fits
FORCING_CAP = 16  # to alone holds about n^4/4 arrows: 16,555 at n = 16


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


@lru_cache(maxsize=None)
def _reversal(n: int):
    """(rev, witness) on the cycle poset at n: rev[a] indexes the reversal
    of element a, None when it is not an element, and witness is None when
    rev is an involution that makes rev a an upper cover of rev b for each
    upper cover b of a. An involution that reverses the covers reverses the
    order, so it is an order anti-automorphism of the poset."""
    p = _poset(gc.CYCLE, n)
    index = {t.tube_masks: i for i, t in enumerate(p.objects)}
    rev = [index.get(gc.relabel_reverse(t).tube_masks) for t in p.objects]
    for a in range(len(p)):
        if rev[a] is None or rev[rev[a]] != a:
            return rev, {"not_involution": p.keys[a]}
    for a, ups in enumerate(p.covers_up):
        for b in ups:
            if rev[a] not in p.covers_up[rev[b]]:
                return rev, {"cover_not_reversed": [p.keys[a], p.keys[b]]}
    return rev, None


@lru_cache(maxsize=None)
def _quotient(n: int):
    """(es, fibers, low, witness) on the cycle poset at n: es[a] is
    cl._encode of element a, fibers maps each cut's bracket vector to its
    elements and low to the least of them; witness is None when cut is a
    lattice quotient map onto the path lattice, if the poset is a lattice,
    and each element is the decode of its encoding."""
    p = _poset(gc.CYCLE, n)
    es = [cl._encode(t) for t in p.objects]
    fibers = {}
    for a, e in enumerate(es):
        fibers.setdefault(e[1], []).append(a)
    low = {r: max(F, key=lambda a: p.up[a].bit_count())
           for r, F in fibers.items()}
    path = gc.make_graph(gc.PATH, n)
    xs = {r: cl._path_tubing(path, r) for r in fibers}
    # each element is the decode that join_cycle and lift make: its word
    # sewn over the path tubing of its bracket vector, which is its cut
    bad = (a for a, (x, r, _, w) in enumerate(es) if x != xs[r]
           or cl.sew(x, cl.ShuffleWord(x, tuple(w))) != p.objects[a])
    return es, fibers, low, (
        _congruence_failure(p, n, fibers, low)
        or next(({"not_decoded": p.keys[a]} for a in bad), None))


@lru_cache(maxsize=None)
def _brackets(n: int):
    """(R, index) on the path poset at n: R[x] is the bracket vector of
    element x as bytes, and index maps each vector to its element."""
    R = [bytes(cl._right_sizes(x)) for x in _poset(gc.PATH, n).objects]
    return R, {r: x for x, r in enumerate(R)}


def _congruence_failure(p, n: int, fibers, low):
    """None when cut, of the given fibers and least elements, is a lattice
    quotient map from p onto the path poset q at n: its fibers are
    intervals [low, high] with x -> low and x -> high order-preserving (a
    congruence, by Chajda and Snasel), and it maps them one to one onto q,
    order-preserving with an order-preserving inverse x -> low. Maps are
    checked on covers."""
    q, index = _poset(gc.PATH, n), _brackets(n)[1]
    up, down, keys = p.up, p.down, p.keys
    lo, hi, at = [0] * len(p), [0] * len(p), [0] * len(p)
    for r, F in fibers.items():
        bot, top = low[r], max(F, key=lambda a: down[a].bit_count())
        stray = sum(1 << a for a in F) ^ (up[bot] & down[top])
        if stray:
            z = (stray & -stray).bit_length() - 1
            return {"fiber_not_interval": [keys[bot], keys[top]],
                    "element": keys[z]}
        for a in F:
            lo[a], hi[a], at[a] = bot, top, index.get(r)
    if fibers.keys() != index.keys():
        return {"cut_off_the_path": [keys[F[0]] for r, F in fibers.items()
                                     if r not in index],
                "empty_fibers": [q.keys[i] for r, i in index.items()
                                 if r not in fibers]}
    for a, ups in enumerate(p.covers_up):
        for c in ups:
            for name, ok in (("low", p.leq(lo[a], lo[c])),
                             ("high", p.leq(hi[a], hi[c])),
                             ("cut", q.leq(at[a], at[c]))):
                if not ok:
                    return {"not_monotone": name, "cover": [keys[a], keys[c]]}
    bottom = [low[r] for r in index]
    for x, ups in enumerate(q.covers_up):
        for y in ups:
            if not p.leq(bottom[x], bottom[y]):
                return {"path_cover_not_lifted": [q.keys[x], q.keys[y]]}
    return None


# --- verification suites ------------------------------------------------------

def verify_order(n: int):
    graph = gc.make_graph(gc.CYCLE, n)
    p = _poset(gc.CYCLE, n)
    elems = p.objects
    # a <= b exactly when inv(a) misses coinv(b): with B[e] the elements
    # whose coinv holds pair e, the row of a is the complement of the OR of
    # B[e] over e in inv(a), which must equal up[a]
    masks = [gt.inversion_masks(t) for t in elems]
    B = [0] * (n * (n - 1) // 2)
    for b, (_, coinv) in enumerate(masks):
        for e in la._bits(coinv):
            B[e] |= 1 << b
    full = (1 << len(p)) - 1
    for a, (inv, _) in enumerate(masks):
        m = 0
        for e in la._bits(inv):
            m |= B[e]
        diff = p.up[a] ^ (full & ~m)
        if diff:
            b = (diff & -diff).bit_length() - 1  # the first pair that differs
            return False, [], {"pair": [p.keys[a], p.keys[b]],
                               "closure": p.leq(a, b),
                               "inversion_test": not m >> b & 1}
    # tree encodings round-trip, and tree moves realize exactly the covers:
    # a rebuilt tubing is checked by equality with one the program trusts
    at = {}  # each tree's parent table, as bytes, to its element
    for a, t in enumerate(elems):
        g = gt.gtree_of(graph, t)
        if not gt.validate(g, gt.CYCLE_CBT):
            return False, [], {"invalid_tree_for": p.keys[a]}
        if gc.Tubing._make(graph, g.down_masks[1:]) != t:
            return False, [], {"roundtrip_failed_for": p.keys[a]}
        # each tree edge from v up to its parent u is an ascent (v < u) in
        # coinv or a descent in inv; that no pair is in both the order
        # theorem has shown, at a <= a
        inv, coinv = masks[a]
        if not all((coinv if v < u else inv)
                   >> gt._pair_index(min(v, u), max(v, u)) & 1
                   for v, u in enumerate(g.parent) if u):
            return False, [], {"bad_pair_statistics_for": p.keys[a]}
        at[bytes(g.parent)] = a
    # the trees round-trip, so their tables name the elements; the n - 1
    # moves of a's tree must land one each on a's upper and lower covers,
    # with none left over
    for table, a in at.items():
        root = table.index(0, 1)  # the vertex whose parent is 0
        g = gt.GTree(n, root, tuple(table))
        left = set(p.covers_up[a]).union(p.covers_down[a])
        for v in range(1, n + 1):
            if v != root:
                b = at.get(bytes(gt.tree_move(g, v, gt.CYCLE_CBT).parent))
                if b not in left:
                    return False, [], {"tree_move_mismatch": [p.keys[a], v]}
                left.remove(b)
        if left:
            return False, [], {"cover_not_a_move": [p.keys[a],
                                                     p.keys[min(left)]]}
    lines = [f"order: inversion test matches flip closure on all "
             f"{len(elems)}^2 ordered pairs (n={n})",
             f"order: tree encodings round-trip and moves match flips (n={n})"]
    return True, lines, None


def _path_join_failure(n: int):
    """None when _join_brackets gives the join of every pair of the path
    lattice q at n, else a witness. q's order must be componentwise on
    bracket vectors: up[x] is the AND over v of G[v][r[v]], the elements y
    with r_y[v] >= r[v]. _join_brackets reads only m = max(x, y), so for
    each m in the box 0 <= m[v] <= n - v, c = _join_brackets(m, m) must be
    a bracket vector >= m with no lower cover >= m, the least of the up-set
    above m, which for the max of x and y is x v y."""
    q, (R, index) = _poset(gc.PATH, n), _brackets(n)
    # the elements whose vector is >= m are the AND of G[v][m[v]] over v
    G = [[sum(1 << y for y, r in enumerate(R) if r[v] >= k)
          for k in range(n - v + 1)] for v in range(n + 1)]
    for x, r in enumerate(R):
        diff = q.up[x] ^ reduce(and_, map(getitem, G, r))
        if diff:
            y = (diff & -diff).bit_length() - 1
            return {"path_order_not_componentwise": [q.keys[x], q.keys[y]]}
    lower = [sum(1 << d for d in ds) for ds in q.covers_down]
    for m in product((0,), *(range(n - v + 1) for v in range(1, n + 1))):
        c, s = cl._join_brackets(m, m), reduce(and_, map(getitem, G, m))
        i = index.get(bytes(c))
        if i is None or not s >> i & 1 or s & lower[i]:
            least = next((list(R[x]) for x in la._bits(s) if q.up[x] == s),
                         None)
            return {"op": "path_join", "max": list(m), "oracle": least,
                    "constructive": c}
    return None


def _join_witness(p, a: int, b: int, z: int) -> dict:
    try:
        got = cl.join_cycle(p.objects[a], p.objects[b]).key()
    except (ValueError, StopIteration) as exc:  # a broken step may raise
        got = repr(exc)
    return {"op": "join", "pair": [p.keys[a], p.keys[b]], "oracle": p.keys[z],
            "constructive": got}


def _lift_failure(p, es, low):
    """None when _rotate_up takes each encoding es[a], on each left edge, to
    the encoding of a v low(r), r the rotated bracket vector. Then a chain of
    rotations from cut(a) keeps the encoding of a v low(r), as (a v low r)
    v low r' = a v low r' for low monotone, so every _lift is right."""
    at, masks = p.coords.at, p.coords.masks
    for a, e in enumerate(es):
        for u in [u for u, v in enumerate(e[2]) if u < v]:  # left edges
            parent, r, word = list(e[2]), list(e[1]), list(e[3])
            cl._rotate_up(parent, r, word, u)
            b = low.get(bytes(r))
            if b is None:
                return {"op": "join", "rotated_off_the_path": [p.keys[a], u]}
            z = at[masks[a] & masks[b]]
            if (bytes(r), bytes(parent), bytes(word)) != es[z][1:]:
                return _join_witness(p, a, b, z)
    return None


def _fiber_join_failure(p, es, fibers):
    """None when _merge by the max takes every ordered pair of words of one
    fiber to the word of the oracle's join."""
    at, masks = p.coords.at, p.coords.masks
    for r, F in fibers.items():
        m = cl._root(r)
        for a, b in product(F, F):
            z = at[masks[a] & masks[b]]
            if bytes(cl._merge(es[a][3], es[b][3], m, max)) != es[z][3]:
                return _join_witness(p, a, b, z)
    return None


def verify_lattice(n: int):
    p = _poset(gc.CYCLE, n)
    es, fibers, low, quotient = _quotient(n)
    # cut is a lattice quotient map, so a v b = (a v low r) v (b v low r),
    # r = cut(a) v cut(b), a join in the fiber over r; join_cycle's steps
    # _join_brackets, _lift and _merge give r, a v low r and that join, and
    # meet_cycle reverses the join of the reversals
    witness = (la.lattice_failure(p) or _reversal(n)[1] or quotient
               or _path_join_failure(n)
               or _lift_failure(p, es, low)
               or _fiber_join_failure(p, es, fibers))
    if witness is not None:
        return False, [], witness
    return True, [f"lattice: joins and meets exist and the constructive "
                  f"operations match the oracle on all pairs (n={n})"], None


def verify_quotient(n: int):
    p = _poset(gc.CYCLE, n)
    witness = la.lattice_failure(p) or _quotient(n)[-1]
    if witness is not None:
        return False, [], witness
    # cut commutes with reversal: the cut of rev a is the reversed cut of a
    (es, fibers, _, _), rev = _quotient(n), _reversal(n)[0]
    for a, e in enumerate(es):
        if rev[a] is None or es[rev[a]][0] != gc.relabel_reverse(e[0]):
            return False, [], {"cut_reversal_mismatch": p.keys[a]}
    # _quotient proved each element of the fiber F over x the sew of its
    # word and x its cut; F's words being the fiber_size(x) distinct fiber
    # words of x, sew is a bijection from them onto F, the whole cut^-1(x)
    for F in fibers.values():
        x = es[F[0]][0]
        at = {es[a][3]: a for a in F}
        words = cl.fiber_words(x)
        if (not len(F) == len(at) == len(words) == cl.fiber_size(x)
                or at.keys() != {bytes(w.word) for w in words}):
            return False, [], {"fiber_words_mismatch": x.key()}
        # the shuffle meet and join of the first and last words are words
        # of the fiber and bound both in the poset
        ends = (cl.shuffle_meet(x, words[0], words[-1]), words[0], words[-1],
                cl.shuffle_join(x, words[0], words[-1]))
        ix = [at.get(bytes(w.word)) for w in ends]
        if None in ix:
            w = ends[ix.index(None)]
            return False, [], {"bound_off_the_fiber": [x.key(), w.serialize()]}
        lo, first, last, hi = ix
        if not all(p.leq(lo, a) and p.leq(a, hi) for a in (first, last)):
            return False, [], {"fiber_bounds_wrong": x.key()}
    return True, [f"quotient: cut respects joins and meets on all pairs (n={n})",
                  f"quotient: fibers shuffle-parameterized, sizes sum to "
                  f"{len(p)}, cut after sew is the identity (n={n})"], None


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
        bad = _transitivity_witness(rel)
        if bad is not None:
            return False, [], {"not_transitive": bad}
    bad = next(((a, b) for a, b in onto if (b, a) in into), None)
    if bad is not None:
        return False, [], {"onto_into_two_cycle": bad}
    forces = la._forces_from_definition(fs.universe, onto, into)
    if forces != fs.arrows_force:
        return False, [], {"forcing_closed_form_differs":
                           sorted(forces ^ fs.arrows_force)[0]}
    for a, b in fs.arrows_force:  # raising one key rules out a cycle
        if not la._rank(a) < la._rank(b):
            return False, [], {"non_increasing_edge": [[a.i, a.k], [b.i, b.k]]}
    return True, [f"cu: direct forcing is acyclic and lexicographically "
                  f"increasing ({len(fs.arrows_force)} arrows, n={n})"], None


def _transitivity_witness(rel):
    """The first (a, b, d) with (a, b) and (b, d) in rel, a != d and (a, d)
    not in rel, or None. The successors of each b are listed in rel's own
    iteration order, so the witness is the one a scan of all pairs of
    arrows would find first."""
    after = {}
    for b, d in rel:
        after.setdefault(b, []).append(d)
    return next(((a, b, d) for a, b in rel for d in after.get(b, ())
                 if a != d and (a, d) not in rel), None)


def verify_mobius(n: int):
    p = _poset(gc.CYCLE, n)
    for a, row in enumerate(la.mobius_rows(p)):
        if min(row.values()) < -1 or max(row.values()) > 1:
            b = min(b for b, v in row.items() if v not in (-1, 0, 1))
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
    if n <= 9:
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
    rev, witness = _reversal(n)
    if witness is not None:
        return False, [], witness
    lines = [f"selfdual: reversal is an involution and reverses every cover "
             f"(n={n})"]
    if n <= 6:
        for a in range(len(p)):
            # b is above a exactly when rev[b] is below rev[a]
            diff = (sum(1 << rev[c] for c in la._bits(p.up[a]))
                    ^ p.down[rev[a]])
            if diff:
                b = min(rev[c] for c in la._bits(diff))
                return False, [], {"order_not_reversed": [p.keys[a],
                                                          p.keys[b]]}
        lines.append(f"selfdual: full order reversal checked on all pairs "
                     f"(n={n})")
    return True, lines, None


def verify_regular(n: int):
    p = _poset(gc.CYCLE, n)
    expect = math.comb(2 * n - 2, n - 1)
    if len(p) != expect:
        return False, [], {"count": len(p), "expected": expect}
    # a flip is an up-flip of one of its ends: neighbours are covers
    for a, (ups, downs) in enumerate(zip(p.covers_up, p.covers_down)):
        degree = len(set(ups) | set(downs))
        if degree != n - 1:
            return False, [], {"degree": degree, "at": p.keys[a]}
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
    by_set = {frozenset(s): i for i, s in enumerate(pl.objects)}
    if len(by_set) != len(pl):
        return False, [], {"pairs_objects_not_distinct": n}
    image = [by_set.get(frozenset(ji for ji, j in ji_list if p.leq(j, a)))
             for a in range(len(p))]
    if None in image:
        return False, [], {"downset_missing": p.keys[image.index(None)]}
    if len(set(image)) != len(p):
        return False, [], {"not_bijective": n}
    # a bijection that maps the covers onto the covers is an isomorphism
    for a, ups in enumerate(p.covers_up):
        if {image[c] for c in ups} != set(pl.covers_up[image[a]]):
            return False, [], {"cover_mismatch": p.keys[a]}
    return True, [f"pairs: maximal orthogonal pairs rebuild the lattice, "
                  f"{expect} elements (n={n})"], None


VERIFIERS = {"lattice": verify_lattice, "order": verify_order,
             "quotient": verify_quotient, "sdl": verify_sdl,
             "cu": verify_cu, "mobius": verify_mobius, "ji": verify_ji,
             "selfdual": verify_selfdual, "regular": verify_regular,
             "pairs": verify_pairs}


# --- commands -----------------------------------------------------------------

def cmd_enumerate(args) -> int:
    cap = ENUM_CAPS[args.graph]
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
        plan = [(s, min(args.n, cap)) for s, cap in VERIFY_CAPS.items()]
    else:
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
    p.add_argument("--selector", choices=("all", *VERIFY_CAPS), required=True)
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
    except (ValueError, OSError) as exc:
        return _fail(f"error: {exc}", 2)


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
