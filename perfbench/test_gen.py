"""Tests of the benchmark's own parts: python3 -m pytest perfbench -q"""

import collections
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gen import random_cycle_tubing_json, tubing_stream  # noqa: E402
from refclock import MIN_SAMPLES, REF_CHUNK_S, RefSampler  # noqa: E402
from spans import metric_names  # noqa: E402
from tubelat import graph_core as gc  # noqa: E402


def test_generator_covers_all_twenty_cycle4_tubings_and_each_parses():
    draws = tubing_stream(4, "test", 2000)
    counts = collections.Counter(draws)
    for text in counts:
        assert gc.tubing_to_json(gc.tubing_from_json(text)) == text
    catalog = {gc.tubing_to_json(t)
               for t in gc.enumerate_maximal_tubings(gc.make_graph("cycle", 4))}
    assert len(catalog) == 20
    assert set(counts) == catalog
    # uniform: 100 expected per tubing, far inside these limits
    assert min(counts.values()) > 50 and max(counts.values()) < 150


def test_generator_is_seeded():
    assert tubing_stream(8, "a:1:0", 50) == tubing_stream(8, "a:1:0", 50)
    assert tubing_stream(8, "a:1:0", 50) != tubing_stream(8, "a:2:0", 50)
    rng = random.Random(7)
    for n in range(3, 12):
        gc.tubing_from_json(random_cycle_tubing_json(n, rng))


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = dict(metric_names())
    expected.update(traced_wall_s="s", trace_overhead_ratio="ratio")
    assert per_layer == expected
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s",
                                                       "peak_rss_mb"]


def test_reference_time_tops_up_samples_and_divides_by_speed():
    sampler = RefSampler()  # not started, so every sample is a top-up
    phase = sampler.reference_time(sampler.mark(), 2.0)
    assert phase["samples"] == MIN_SAMPLES and phase["work_s"] == 2.0
    mean = sum(sampler.samples) / MIN_SAMPLES
    assert phase["speed"] == pytest.approx(mean / REF_CHUNK_S)
    assert phase["ref_s"] == pytest.approx(2.0 / phase["speed"])
    # time spent in the handler during a phase is not the program's
    mark = sampler.mark()
    sampler._sample()
    assert sampler.reference_time(mark, 1.0)["work_s"] < 1.0
