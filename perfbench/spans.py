"""Span recorder that wraps the public functions of each tubelat module.

Each traced function is replaced by a wrapper in its home module and under
every name another module bound to it (module globals and module-level
dicts such as cli.VERIFIERS), so calls are caught whichever binding the
caller used. cached_property functions are patched through their .func,
static methods through the class attribute. Generator functions get one
span per resume, so time spent in the consumer between items is not
charged to the generator.

Spans are aggregated in memory at span exit (calls, inclusive time, self
time) and read out once the timed phase ends; nothing is written while it
runs. Self time is a span's duration minus the time its child spans cover,
so the self times of one pass add up to the time spent inside traced
functions, which is at most the pass's wall time.
"""

from __future__ import annotations

import functools
import inspect
import time

# (module, qualified name, metrics): "ctx" gives calls, total_s and self_s;
# "cache" adds hit_ratio from cache_info(); "time" gives total_s and self_s.
TRACED = [
    ("cycle_lattice", "join_cycle", "ctx"),
    ("cycle_lattice", "meet_cycle", "ctx"),
    ("cycle_lattice", "leq_cycle", "ctx"),
    ("cycle_lattice", "join_path", "ctx"),
    ("cycle_lattice", "meet_path", "ctx"),
    ("cycle_lattice", "cut", "ctx"),
    ("cycle_lattice", "sew", "ctx"),
    ("cycle_lattice", "ShuffleWord.of", "ctx"),
    ("cycle_lattice", "shuffle_join", "ctx"),
    ("cycle_lattice", "fiber_words", "ctx"),
    ("gtree", "gtree_of", "cache"),
    ("gtree", "inversion_masks", "cache"),
    ("gtree", "zippers", "cache"),
    ("gtree", "tree_move", "ctx"),
    ("gtree", "tubing_of", "ctx"),
    ("gtree", "validate", "ctx"),
    ("graph_core", "enumerate_maximal_tubings", "ctx"),
    ("graph_core", "flip", "ctx"),
    ("graph_core", "iter_flip_neighbors", "ctx"),
    ("graph_core", "is_maximal_tubing", "ctx"),
    ("graph_core", "relabel_reverse", "ctx"),
    ("graph_core", "tubing_to_json", "ctx"),
    ("lattice_analysis", "build_poset", "ctx"),
    ("lattice_analysis", "lattice_failure", "ctx"),
    ("lattice_analysis", "FinitePoset.join_table", "ctx"),
    ("lattice_analysis", "FinitePoset.meet_table", "ctx"),
    ("lattice_analysis", "minimal_upper_bounds", "ctx"),
    ("lattice_analysis", "mobius", "ctx"),
    ("lattice_analysis", "semidistributivity_witness", "ctx"),
    ("lattice_analysis", "forcing_system", "ctx"),
    ("lattice_analysis", "pairs_lattice", "ctx"),
] + [("cli", f"verify_{s}", "time")
     for s in ("lattice", "order", "quotient", "sdl", "cu", "mobius", "ji",
               "selfdual", "regular", "pairs")] + [
    ("cli", "main", "ctx"),
]

FIELDS = {"ctx": ("calls", "total_s", "self_s"),
          "cache": ("calls", "total_s", "self_s", "hit_ratio"),
          "time": ("total_s", "self_s")}
UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "hit_ratio": "ratio"}

# Derived from two counts: cover moves tried per lift chain step kept.
MOVES_PER_STEP = "cycle_lattice.lift.moves_per_step"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced pass yields, with its unit."""
    out = []
    for module, name, kind in TRACED:
        out += [(f"{module}.{name}.{f}", UNITS[f]) for f in FIELDS[kind]]
    return out + [(MOVES_PER_STEP, "ratio")]


class SpanRecorder:
    """Per-name span aggregates: [calls, inclusive seconds, self seconds]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._open: list[float] = []  # child time covered, per open span
        self._caches: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        def close(start: float):
            duration = clock() - start
            covered = open_spans.pop()
            if open_spans:
                open_spans[-1] += duration
            stats[1] += duration
            stats[2] += duration - covered

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                stats[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    open_spans.append(0.0)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(start)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats[0] += 1
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(start)
        return traced

    def install(self, package):
        """Wrap every TRACED function of the imported tubelat package."""
        modules = [package] + [getattr(package, m) for m in
                               ("graph_core", "gtree", "cycle_lattice",
                                "lattice_analysis", "cli")]
        for module_name, qualname, kind in TRACED:
            name = f"{module_name}.{qualname}"
            self.stats.setdefault(name, [0, 0.0, 0.0])  # reads 0 if never found
            home = getattr(package, module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                raw = vars(getattr(home, cls_name, object)).get(attr)
                if isinstance(raw, staticmethod):
                    setattr(getattr(home, cls_name), attr,
                            staticmethod(self._wrap(name, raw.__func__)))
                elif raw is not None:  # cached_property
                    raw.func = self._wrap(name, raw.func)
                continue
            original = getattr(home, qualname, None)
            if original is None:
                continue
            if hasattr(original, "cache_info"):
                self._caches[name] = original
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                value[k] = wrapper

    def reset(self):
        """Start counting afresh, e.g. at the start of the timed phase."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self._cache_base = {name: (c.cache_info().hits, c.cache_info().misses)
                            for name, c in self._caches.items()}

    def snapshot(self) -> dict:
        """Raw counts for one pass; summing snapshots pools passes."""
        out = {name: {"calls": c, "total_s": t, "self_s": s}
               for name, (c, t, s) in self.stats.items()}
        for name, cache in self._caches.items():
            hits0, misses0 = self._cache_base.get(name, (0, 0))
            info = cache.cache_info()
            out[name]["hits"] = info.hits - hits0
            out[name]["misses"] = info.misses - misses0
        return out


def layer_metrics(passes: list[dict]) -> dict[str, float]:
    """Per-pass means of the traced counts and times, pooled hit ratios."""
    count = len(passes)
    metrics = {}
    for module, qualname, kind in TRACED:
        name = f"{module}.{qualname}"
        rows = [p[name] for p in passes]
        for field in FIELDS[kind]:
            if field == "hit_ratio":
                hits = sum(r.get("hits", 0) for r in rows)
                looked = hits + sum(r.get("misses", 0) for r in rows)
                metrics[f"{name}.{field}"] = hits / looked if looked else 0.0
            else:
                metrics[f"{name}.{field}"] = sum(r[field] for r in rows) / count
    steps = sum(p["gtree.tubing_of"]["calls"] for p in passes)
    moves = sum(p["gtree.tree_move"]["calls"] for p in passes)
    metrics[MOVES_PER_STEP] = moves / steps if steps else 0.0
    return metrics
