"""Time enumeration, the oracle and single operations on two source trees.

    python3 tools/bench_enumerate.py --parent OLD/src --change src \
        --repeats 5 --out BENCH_enumerate.json
    python3 tools/bench_enumerate.py --suite oracle --parent OLD/src \
        --change src --repeats 5 --out BENCH_oracle.json
    python3 tools/bench_enumerate.py --suite ops --parent OLD/src \
        --change src --repeats 5 --out BENCH_ops.json
    python3 tools/bench_enumerate.py --suite verify --parent OLD/src \
        --change src --repeats 5 --out BENCH_verify.json

Each measurement runs in a fresh interpreter with PYTHONPATH set to one
tree. The enumerate suite times one call of enumerate_maximal_tubings or
build_poset, and its catalog cases time enumerate_maximal_tubings plus
tubing_to_json on path 10 and on cycle 9, the pipeline of perfbench's
enumerate-catalog workload.
The oracle suite times lattice_failure, join_table plus
meet_table, semidistributivity_witness or mobius alone, each after an
untimed build_poset, and `tubelat verify --selector sdl --force` whole,
poset build included. The ops suite times OPS_PAIRS calls of join_cycle,
meet_cycle, leq_cycle, cut, lift or gtree_of on cycle tubings drawn with
a seeded random.Random(n) from the untimed enumeration; each call gets
Tubing objects built afresh, so no per-tubing cache is warm, and lift's
targets are the untimed path joins of the two cuts. The verify suite
times `tubelat verify --selector S --n N --force` whole through cli.main,
poset build included, for the suites that read the cached poset or the
flip kernel, `cu` at n = 12, which reads the forcing relations alone, and
`--selector all` at n = 9; it then times the same call
again in the same process as warm_s, the posets cached, which leaves the
suite's own work. Every measurement reads the interpreter's own peak
resident set (VmHWM, which starts afresh at exec), a verify case before
its warm call, and the process CPU time (time.process_time) over the
same span as the wall time. The two trees alternate which runs first on
each repeat. The JSON written holds, per case, the median wall time, warm
time, CPU time and peak RSS of each tree over the repeats, the quartiles
of the wall and warm times, every raw wall time, and the command line. On
a loaded host the CPU time and the quartiles tell a change from noise
better than a ratio of two medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ENUMERATE_CASES = [("enumerate_maximal_tubings", "path", 10),
                   ("enumerate_maximal_tubings", "path", 12),
                   ("enumerate_maximal_tubings", "cycle", 9),
                   ("enumerate_maximal_tubings", "cycle", 10),
                   ("enumerate_maximal_tubings", "cycle", 11),
                   ("enumerate_maximal_tubings", "complete", 8),
                   ("build_poset", "cycle", 7),
                   ("build_poset", "cycle", 8),
                   ("build_poset", "cycle", 9),
                   ("catalog", "path", 10), ("catalog", "cycle", 9)]
ORACLE_CASES = [(op, "cycle", n) for n in (7, 8)
                for op in ("lattice_failure", "join_table+meet_table",
                           "semidistributivity_witness", "mobius")]
ORACLE_CASES.append(("verify_sdl", "cycle", 8))
VERIFY_CASES = [("verify_lattice", "cycle", 5), ("verify_lattice", "cycle", 6),
                ("verify_lattice", "cycle", 7), ("verify_lattice", "cycle", 8),
                ("verify_lattice", "cycle", 9),
                ("verify_quotient", "cycle", 5),
                ("verify_quotient", "cycle", 6),
                ("verify_quotient", "cycle", 7),
                ("verify_quotient", "cycle", 8),
                ("verify_quotient", "cycle", 9),
                ("verify_order", "cycle", 6), ("verify_order", "cycle", 7),
                ("verify_order", "cycle", 8), ("verify_order", "cycle", 9),
                ("verify_selfdual", "cycle", 8),
                ("verify_selfdual", "cycle", 9),
                ("verify_mobius", "cycle", 8), ("verify_mobius", "cycle", 9),
                ("verify_regular", "cycle", 8),
                ("verify_regular", "cycle", 9),
                ("verify_ji", "cycle", 7), ("verify_pairs", "cycle", 5),
                ("verify_pairs", "cycle", 7), ("verify_cu", "cycle", 12),
                ("verify_all", "cycle", 9)]
OPS_CASES = [(op, "cycle", n) for n in range(5, 10)
             for op in ("join_cycle", "meet_cycle", "leq_cycle", "cut", "lift",
                        "gtree_of")]
SUITES = {"enumerate": ENUMERATE_CASES, "oracle": ORACLE_CASES,
          "ops": OPS_CASES, "verify": VERIFY_CASES}

CHILD = r"""
import contextlib, io, json, math, random, sys, time
from tubelat import cli, graph_core, gtree, lattice_analysis as la
from tubelat import cycle_lattice as cl
OPS_PAIRS = 200
ORACLE = {"lattice_failure": la.lattice_failure,
          "join_table+meet_table": lambda p: (p.join_table, p.meet_table),
          "semidistributivity_witness": la.semidistributivity_witness,
          "mobius": la.mobius}
OPS = {"join_cycle": lambda j, k, x: cl.join_cycle(j, k),
       "meet_cycle": lambda j, k, x: cl.meet_cycle(j, k),
       "leq_cycle": lambda j, k, x: cl.leq_cycle(j, k),
       "cut": lambda j, k, x: cl.cut(j),
       "lift": lambda j, k, x: cl.lift(j, x),
       "gtree_of": lambda j, k, x: gtree.gtree_of(j.graph, j)}


def vmhwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))


op, kind, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
graph = graph_core.make_graph(kind, n)
if op in OPS:
    elems = graph_core.enumerate_maximal_tubings(graph)
    rng = random.Random(n)
    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(OPS_PAIRS)]
    targets = [cl.join_path(cl.cut(j), cl.cut(k)) for j, k in pairs]
    fresh = [(graph_core.Tubing(graph, j.tube_masks),
              graph_core.Tubing(graph, k.tube_masks)) for j, k in pairs]
    call = OPS[op]
    start, cpu = time.perf_counter(), time.process_time()
    for (j, k), x in zip(fresh, targets):
        call(j, k, x)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    size = len(pairs)
elif op.startswith("verify_"):
    argv = ["verify", "--selector", op[len("verify_"):], "--n", str(n),
            "--force"]

    def verify():
        start, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"verify exited {code}")
        return time.perf_counter() - start, time.process_time() - cpu

    wall, cpu = verify()
    kb = vmhwm()  # before the warm call, which reuses the cached posets
    warm = verify()[0]
    # the cycle's tubing count: an untimed poset build would raise VmHWM
    size = math.comb(2 * n - 2, n - 1)
elif op == "catalog":
    start, cpu = time.perf_counter(), time.process_time()
    elems = graph_core.enumerate_maximal_tubings(graph)
    text = "".join(graph_core.tubing_to_json(t) + "\n" for t in elems)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    size = len(elems)
elif op in ORACLE:
    p = la.build_poset(graph)
    start, cpu = time.perf_counter(), time.process_time()
    ORACLE[op](p)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    size = len(p)
else:
    fn = getattr(graph_core, op, None) or getattr(la, op)
    start, cpu = time.perf_counter(), time.process_time()
    size = len(fn(graph))
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
if not op.startswith("verify_"):
    kb, warm = vmhwm(), None
print(json.dumps({"wall_s": wall, "warm_s": warm, "cpu_s": cpu,
                  "peak_rss_mb": kb / 1024, "size": size}))
"""


def measure(src: str, op: str, kind: str, n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, "-c", CHILD, op, kind, str(n)],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=600)
    return json.loads(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--suite", choices=sorted(SUITES), default="enumerate")
    ap.add_argument("--parent", required=True, help="src/ of the old tree")
    ap.add_argument("--change", required=True, help="src/ of the new tree")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    cases = SUITES[args.suite]
    samples = {case: {side: [] for side in sides} for case in cases}
    for r in range(args.repeats):
        order = list(sides) if r % 2 == 0 else list(reversed(sides))
        for case in cases:
            for side in order:
                got = measure(sides[side], *case)
                samples[case][side].append(got)
                print(r, side, *case, got, file=sys.stderr, flush=True)
    rows = []
    for (op, kind, n), by_side in samples.items():
        row = {"op": op, "graph": kind, "n": n,
               "elements": by_side["change"][0]["size"]}
        for side, runs in by_side.items():
            if {s["size"] for s in runs} != {row["elements"]}:
                raise SystemExit(f"{op} {kind} {n}: sizes differ between runs")
            # microseconds resolve the ops suite's millisecond loops
            times = ["wall_s"] + (["warm_s"] if runs[0]["warm_s"] is not None
                                  else [])
            row[side] = {metric: round(statistics.median(s[metric] for s in runs), 6)
                         for metric in times + ["cpu_s", "peak_rss_mb"]}
            # inclusive quartiles: of 5 runs, the 2nd and 4th when sorted
            for metric in times if len(runs) > 1 else ():
                row[side][metric + "_quartiles"] = [
                    round(q, 6) for q in statistics.quantiles(
                        [s[metric] for s in runs], n=4,
                        method="inclusive")[::2]]
            row[side]["wall_s_runs"] = [round(s["wall_s"], 6) for s in runs]
        row["wall_ratio"] = round(row["parent"]["wall_s"]
                                  / row["change"]["wall_s"], 2)
        rows.append(row)
    report = {"command": " ".join(["python3", "tools/bench_enumerate.py"]
                                  + (argv if argv is not None else sys.argv[1:])),
              "python": platform.python_version(), "cpus": os.cpu_count(),
              "repeats": args.repeats, "cases": rows}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
