"""One pass of one workload in a fresh interpreter; run.py starts these.

A fresh interpreter per pass keeps the program's unbounded module-level
caches (lru_cache on gtree_of, inversion_masks, zippers, _path_universe
and cli._poset) from carrying over, and makes the peak resident memory a
per-pass figure. Untraced passes run a refclock.RefSampler from the first
line after argument parsing, so set-up and the timed phase are each
reported both as raw wall time and as time at the reference speed. The
last line of stdout is a JSON report.

    python3 perfbench/worker.py --workload NAME --seed N --index I \
        --spawned MONOTONIC [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sampler = None
    if not args.trace:  # a traced pass would charge the chunks to its spans
        from refclock import RefSampler
        sampler = RefSampler()
        sampler.start()

    sys.path.insert(0, str(SRC))
    import tubelat as T
    import tubelat.cli  # noqa: F401  (not imported by the package itself)
    if not Path(T.__file__).resolve().is_relative_to(SRC):
        print(f"tubelat imported from {T.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]

    state = wl.setup(T, args.seed, args.index)
    recorder = None
    if args.trace:
        from spans import SpanRecorder
        recorder = SpanRecorder()
        recorder.install(T)
        recorder.reset()
    # CLOCK_MONOTONIC is system-wide, so this spans the parent's spawn too.
    setup_raw_s = time.monotonic() - args.spawned
    report = {"index": args.index}
    if sampler is not None:
        setup = sampler.reference_time((0, 0.0), setup_raw_s)
        report.update(setup_raw_s=setup["work_s"], setup_s=setup["ref_s"],
                      setup_speed=setup["speed"])
    if not args.setup_only:
        errors = []
        mark = sampler.mark() if sampler is not None else None
        start = time.perf_counter()
        try:
            output = wl.run(T, state)
        except Exception as exc:  # the pass failed; report it, do not crash
            output = None
            errors.append(f"run raised {exc!r}")
        wall_raw_s = time.perf_counter() - start
        if sampler is not None:
            run = sampler.reference_time(mark, wall_raw_s)
            sampler.stop()
            report.update(wall_raw_s=run["work_s"], wall_s=run["ref_s"],
                          speed=run["speed"])
        else:
            report["wall_raw_s"] = wall_raw_s
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if recorder is not None:
            report["layers"] = recorder.snapshot()
        if output is not None:
            try:
                errors += wl.check(T, state, output)
            except Exception as exc:  # a check that cannot even run has failed
                errors.append(f"check raised {exc!r}")
            if hasattr(wl, "check_pooled"):
                report["output"] = output
        report["errors"] = errors
    elif sampler is not None:
        sampler.stop()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
