"""The four benchmark workloads.

Each workload runs one pass per fresh interpreter (see worker.py): setup
builds the inputs, run is the timed phase, check verifies the outputs
after the clock has stopped. Every function takes the imported tubelat
package and looks its functions up at call time, so a span recorder
installed between setup and run sees every call.

Why these four (the layer doing most and least of the work is named in
each class docstring): ops-cycle8 is the constructive join path on a
large working set, each pass starting with empty caches; oracle-cycle7 is
the brute poset oracle; enumerate-catalog writes many new tubings;
verify-cli-n5 is the end-user command with a small, hot working set.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path
from time import perf_counter

from gen import catalan, tubing_stream

EXPECTED = Path(__file__).resolve().parent / "expected"


def _stream(workload: str, n: int, seed: int, index: int, count: int):
    return tubing_stream(n, f"{workload}:{seed}:{index}", count)


class OpsCycle8:
    """Closed loop of (join, meet, leq both ways) queries on random pairs.

    Most work: cycle_lattice (lift) and gtree. Least: lattice_analysis,
    which the timed phase never calls. The parent process checks every
    query against the brute oracle poset at n = 8.
    """

    name = "ops-cycle8"
    n = 8
    queries = 300  # per pass; each fresh interpreter starts with empty caches

    def inputs(self, T, seed: int, index: int):
        texts = _stream(self.name, self.n, seed, index, 2 * self.queries + 2)
        parse = T.graph_core.tubing_from_json
        tubings = [parse(s) for s in texts]
        return list(zip(tubings[0::2], tubings[1::2]))

    def setup(self, T, seed: int, index: int):
        pairs = self.inputs(T, seed, index)
        warm_j, warm_k = pairs[0]
        T.cycle_lattice.join_cycle(warm_j, warm_k)  # fills _path_universe(8)
        return pairs[1:]

    def run(self, T, pairs):
        cl = T.cycle_lattice
        join, meet, leq = cl.join_cycle, cl.meet_cycle, cl.leq_cycle
        results, latencies_ms = [], []
        for j, k in pairs:
            start = perf_counter()
            try:
                row = [list(join(j, k).tube_masks), list(meet(j, k).tube_masks),
                       leq(j, k), leq(k, j)]
            except Exception as exc:  # a raising query counts as failed
                row = repr(exc)
            latencies_ms.append((perf_counter() - start) * 1e3)
            results.append(row)
        return {"results": results, "latencies_ms": latencies_ms}

    def check(self, T, pairs, output) -> list[str]:
        return []  # needs the n = 8 oracle; done once per run by check_pooled

    def check_pooled(self, T, seed: int, reports: list[dict]):
        """(queries attempted, queries failed) per pass, by the brute oracle."""
        la = T.lattice_analysis
        poset = la.build_poset(T.graph_core.make_graph("cycle", self.n))
        index = {t.tube_masks: i for i, t in enumerate(poset.objects)}
        counts = []
        for rep in reports:
            if "output" not in rep:  # the pass raised before answering
                counts.append((self.queries, self.queries))
                continue
            pairs = self.inputs(T, seed, rep["index"])[1:]
            bad = 0
            for (j, k), row in zip(pairs, rep["output"]["results"],
                                   strict=True):
                a, b = index[j.tube_masks], index[k.tube_masks]
                want = [poset.objects[la.brute_join(poset, a, b)].tube_masks,
                        poset.objects[la.brute_meet(poset, a, b)].tube_masks,
                        poset.leq(a, b), poset.leq(b, a)]
                if not isinstance(row, list) or [
                        tuple(row[0]), tuple(row[1]), row[2], row[3]] != want:
                    bad += 1
            counts.append((len(pairs), bad))
        return counts


class OracleCycle7:
    """Lattice certificate of the cycle poset at n = 7 (924 elements).

    Most work: lattice_analysis (bound scans, tables, Moebius). Least:
    cycle_lattice, which only the untimed check calls.
    """

    name = "oracle-cycle7"
    sample_pairs = 24

    def setup(self, T, seed: int, index: int):
        parse = T.graph_core.tubing_from_json
        texts = _stream(self.name, 7, seed, index, 2 * self.sample_pairs)
        tubings = [parse(s) for s in texts]
        return {"graph7": T.graph_core.make_graph("cycle", 7),
                "graph6": T.graph_core.make_graph("cycle", 6),
                "sample": list(zip(tubings[0::2], tubings[1::2]))}

    def run(self, T, state):
        la = T.lattice_analysis
        p = la.build_poset(state["graph7"])
        out = {"poset": p, "failure": la.lattice_failure(p),
               "join": p.join_table, "meet": p.meet_table,
               "mobius": la.mobius(p), "ji": la.join_irreducibles(p),
               "mi": la.meet_irreducibles(p)}
        out["sd6"] = la.semidistributivity_witness(la.build_poset(state["graph6"]))
        return out

    def check(self, T, state, out) -> list[str]:
        errors = []
        p = out["poset"]
        if len(p) != math.comb(12, 6):
            errors.append(f"poset has {len(p)} elements, expected 924")
        if out["failure"] is not None:
            errors.append(f"lattice failure {out['failure']}")
        if (len(out["ji"]), len(out["mi"])) != (36, 36):
            errors.append(f"irreducible counts {len(out['ji'])}, {len(out['mi'])}")
        if any(v not in (-1, 0, 1) for row in out["mobius"] for v in row):
            errors.append("Moebius value outside -1..1")
        if out["sd6"] is not None:
            errors.append(f"semidistributivity witness at n=6: {out['sd6']}")
        index = {t.tube_masks: i for i, t in enumerate(p.objects)}
        cl = T.cycle_lattice
        for j, k in state["sample"]:
            a, b = index[j.tube_masks], index[k.tube_masks]
            if index[cl.join_cycle(j, k).tube_masks] != out["join"][a][b]:
                errors.append(f"join_table disagrees with join_cycle at {a},{b}")
            if index[cl.meet_cycle(j, k).tube_masks] != out["meet"][a][b]:
                errors.append(f"meet_table disagrees with meet_cycle at {a},{b}")
        return errors


class EnumerateCatalog:
    """The JSON catalogs of `tubelat enumerate --format json` for path
    n = 10 and cycle n = 9.

    Most work: graph_core (flip, Tubing construction, layer key sort).
    Least: cycle_lattice and lattice_analysis, which it never calls.
    """

    name = "enumerate-catalog"
    # sha256 of the catalog text, recorded from the commit that added them
    CATALOGS = {
        ("path", 10): (catalan(10), "0c657fd30a0aec036eaeba334a6b1d68"
                                    "1342598803b65eec1bf9b6fda4c60ba3"),
        ("cycle", 9): (math.comb(16, 8), "76339b3658b6c0e9682a5f3baecda357"
                                         "d9a39c572b0707464116b5c3b4301314"),
    }

    def setup(self, T, seed: int, index: int):
        return [T.graph_core.make_graph(kind, n) for kind, n in self.CATALOGS]

    def run(self, T, graphs):
        gc = T.graph_core
        out = []
        for g in graphs:
            elems = gc.enumerate_maximal_tubings(g)
            out.append((len(elems),
                        "".join(gc.tubing_to_json(t) + "\n" for t in elems)))
        return out

    def check(self, T, graphs, out) -> list[str]:
        errors = []
        for (key, (count, digest)), (got, text) in zip(self.CATALOGS.items(), out):
            if got != count:
                errors.append(f"{key}: {got} tubings, expected {count}")
            if hashlib.sha256(text.encode()).hexdigest() != digest:
                errors.append(f"{key}: catalog digest differs from the pinned one")
        return errors


class VerifyCliN5:
    """`tubelat verify --selector all --n 5` through cli.main.

    Most work: cli's verify_lattice and verify_quotient, via cycle_lattice
    and gtree on 70 tubings reused hundreds of times (hot caches). Every
    layer takes part; graph_core does the least.
    """

    name = "verify-cli-n5"
    argv = ["verify", "--selector", "all", "--n", "5"]

    def setup(self, T, seed: int, index: int):
        return (EXPECTED / "verify_all_n5.stdout").read_text(encoding="utf-8")

    def run(self, T, expected):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = T.cli.main(self.argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, T, expected, out) -> list[str]:
        code, stdout, stderr = out
        errors = []
        if code != 0:
            errors.append(f"exit code {code}")
        if stdout != expected:
            errors.append("stdout differs from the pinned bytes")
        if stderr:
            errors.append(f"stderr not empty: {stderr[:200]!r}")
        return errors


WORKLOADS = {w.name: w for w in (OpsCycle8(), OracleCycle7(),
                                 EnumerateCatalog(), VerifyCliN5())}
