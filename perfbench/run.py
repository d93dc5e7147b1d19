"""Layered benchmark for tubelat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src. Every pass of a workload runs in a fresh interpreter (worker.py),
one caller at a time, closed loop, no threads. Passes are started until
their timed phases add up to --seconds, and at least MIN_PASSES of them.

--trace 0 reports the end-to-end metrics: setup_s (median time from
spawning an interpreter to its first timed operation, over at least
SETUP_SAMPLES interpreters), wall_s (median timed phase of one pass) and
peak_rss_mb (median peak resident memory of a pass). setup_s and wall_s
are in seconds at the reference speed of refclock.py, which takes the
host's changing speed out; the raw wall-clock medians are printed as
raw_setup_s and raw_wall_s, with the median speed factor. ops-cycle8 also
prints queries_per_s and the query latency median and p99 with their
sample count. --trace 1 alternates untraced and traced passes, at least
one of each, and reports the per-layer metrics of spans.py,
trace_overhead_ratio and traced_wall_s.

Outputs are checked after each timed phase. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the exit code is 1 when a
check failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 2  # the oracle pass takes 7 to 15 s; 22 runs of each must fit
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170  # every worker must finish within this of our start


class WorkerFailed(RuntimeError):
    pass


def spawn(args, index: int, trace: bool, deadline: float,
          setup_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("TUBELAT_THREADS", None)  # the thread pool doubles verify time
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--index", str(index),
           "--spawned", repr(spawned)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"pass {index} exceeded the run limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"pass {index} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "tubelat").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        rev = out.stdout.strip() or None
    return {"seed": seed, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "git_rev": rev,
            "src_sha256": src.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "tubelat" / "__init__.py").is_file():
        print(f"no tubelat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S

    plain, traced = [], []
    try:
        while True:
            timed = sum(r["wall_raw_s"] for r in plain + traced)
            enough = (min(len(plain), len(traced)) >= 1 if args.trace
                      else len(plain) >= MIN_PASSES)
            failing = any(r["errors"] for r in plain + traced)
            if enough and (timed >= args.seconds or failing):
                break
            index = len(plain) + len(traced)
            trace = bool(args.trace and index % 2)
            (traced if trace else plain).append(spawn(args, index, trace, deadline))
        setups = list(plain)
        while not args.trace and len(setups) < SETUP_SAMPLES:
            index = len(plain) + len(setups)
            setups.append(spawn(args, index, False, deadline, setup_only=True))
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    passes = plain + traced
    errors = [e for r in passes for e in r["errors"]]
    if hasattr(wl, "check_pooled"):
        sys.path.insert(0, str(SRC))
        import tubelat
        per_pass = wl.check_pooled(tubelat, args.seed, passes)
        attempted = sum(tried for tried, _ in per_pass)
        failed = sum(bad for _, bad in per_pass)
        errors += [f"pass {r['index']}: {bad} of {tried} queries failed"
                   for r, (tried, bad) in zip(passes, per_pass) if bad]
    else:
        attempted = len(passes)
        failed = sum(1 for r in passes if r["errors"])

    rows = []  # (name, value, unit, note)
    if args.trace:
        from spans import layer_metrics, metric_names
        for r in traced:
            self_sum = sum(s["self_s"] for s in r["layers"].values())
            if self_sum > r["wall_raw_s"]:
                errors.append(f"pass {r['index']}: self times {self_sum:.6f} s "
                              f"exceed wall {r['wall_raw_s']:.6f} s")
        # means, like the per-pass layer figures, so their self times add up
        values = layer_metrics([r["layers"] for r in traced])
        plain_wall = statistics.mean(r["wall_raw_s"] for r in plain)
        traced_wall = statistics.mean(r["wall_raw_s"] for r in traced)
        note = f"per traced pass, over {len(traced)}"
        rows += [(name, values[name], unit, note) for name, unit in metric_names()]
        rows.append(("traced_wall_s", traced_wall, "s", note))
        rows.append(("trace_overhead_ratio", traced_wall / plain_wall, "ratio",
                     f"against the mean of {len(plain)} untraced passes"))
    extras = []  # printed for reading, not part of the metrics object
    if not args.trace:
        def median(key, reports):
            return statistics.median(r[key] for r in reports)
        rows.append(("setup_s", median("setup_s", setups), "s",
                     f"median of {len(setups)} fresh interpreters, reference speed"))
        rows.append(("wall_s", median("wall_s", plain), "s",
                     f"median timed phase of {len(plain)} passes, reference speed"))
        rows.append(("peak_rss_mb", median("peak_rss_mb", plain), "MB",
                     f"median of {len(plain)} passes"))
        extras.append(("raw_setup_s", median("setup_raw_s", setups), "s",
                       "wall clock, same interpreters"))
        extras.append(("raw_wall_s", median("wall_raw_s", plain), "s",
                       "wall clock, same passes"))
        extras.append(("speed_factor", median("speed", plain), "ratio",
                       "reference chunk time over its quiet-core time, timed phases"))
    if hasattr(wl, "check_pooled"):
        done = [r for r in plain if "output" in r]
        latencies = [x for r in done for x in r["output"]["latencies_ms"]]
        count = len(latencies)
        extras.append(("queries_per_s", count / sum(r["wall_raw_s"] for r in done),
                       "1/s", f"{count} queries"))
        extras.append(("query_p50_ms", statistics.median(latencies), "ms",
                       f"of {count} samples"))
        if count >= 1000:  # p99 needs ten samples beyond it
            p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
            extras.append(("query_p99_ms", p99, "ms",
                           f"of {count} samples"))
    extras.append(("failed_ratio", failed / attempted, "ratio",
                   f"{failed} of {attempted} operations"))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    for name, value, unit, note in rows + extras:
        print(f"  {name:48s} {value:14.6f} {unit:6s} {note}")
    for e in errors:
        print(f"  FAIL {e}")
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, value, unit, _ in rows}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
