"""Seeded generator of uniformly random maximal tubings of the cycle graph.

A maximal tubing of the n-cycle is encoded by a rooted tree whose root m
has a single child, below which hangs a binary search tree on the rotated
order m+1 < ... < n < 1 < ... < m-1; the tubes are the principal down-sets.
Drawing m uniformly and then the search tree uniformly (each root split
weighted by a product of Catalan numbers) gives each of the
n * Cat(n-1) = C(2n-2, n-1) tubings the same probability.

The output is tubing JSON in the program's interchange format. It is built
here without calling the program, so the program under test receives only
generated inputs.
"""

from __future__ import annotations

import json
import math
import random


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _hang_bst(keys: list[int], above: int, parent: dict[int, int],
              rng: random.Random):
    """Attach a uniform random search tree on keys below the vertex above."""
    if not keys:
        return
    size = len(keys)
    draw = rng.randrange(catalan(size))
    r = 0
    while draw >= catalan(r) * catalan(size - 1 - r):
        draw -= catalan(r) * catalan(size - 1 - r)
        r += 1
    parent[keys[r]] = above
    _hang_bst(keys[:r], keys[r], parent, rng)
    _hang_bst(keys[r + 1:], keys[r], parent, rng)


def random_cycle_tubing_json(n: int, rng: random.Random) -> str:
    """One uniform random maximal tubing of the n-cycle, as tubing JSON."""
    m = rng.randrange(1, n + 1)
    rotated = [(m + i - 1) % n + 1 for i in range(1, n)]
    parent: dict[int, int] = {}
    _hang_bst(rotated, m, parent, rng)
    down = {v: {v} for v in range(1, n + 1)}
    for v in rotated:
        u = v
        while u != m:
            u = parent[u]
            down[u].add(v)
    tubes = sorted((sorted(s) for s in down.values()),
                   key=lambda t: (len(t), t))
    return json.dumps({"graph": {"kind": "cycle", "n": n}, "tubes": tubes},
                      sort_keys=True, separators=(",", ":"))


def tubing_stream(n: int, seed: str, count: int) -> list[str]:
    """count independent draws from the stream named by seed."""
    rng = random.Random(seed)
    return [random_cycle_tubing_json(n, rng) for _ in range(count)]
