"""Seeded input generation, independent of `tightcycle.generators`.

Every host is a sorted list of sorted vertex triples over [1, n].  Each
generator takes a `random.Random` (or nothing, for the seed-free families),
so a workload seed fixes every input of a run.
"""

from __future__ import annotations

import itertools
import random
from math import comb


def op_rng(seed: int, workload: str, index: int) -> random.Random:
    """Generator for the index-th operation of a workload under a run seed."""
    return random.Random(f"perfbench:{workload}:{seed}:{index}")


def random_host(n: int, p: float, rng: random.Random) -> list[tuple[int, int, int]]:
    """Each triple of [1, n] independently with probability p."""
    return [t for t in itertools.combinations(range(1, n + 1), 3) if rng.random() < p]


def complete_host(n: int) -> list[tuple[int, int, int]]:
    return list(itertools.combinations(range(1, n + 1), 3))


def extremal_host(n: int, a: int) -> list[tuple[int, int, int]]:
    """Every triple meeting A = {1..a}.  For 3a <= n its fractional matching
    number is a and its longest tight cycle has 3a vertices (a = 1: none)."""
    return [t for t in itertools.combinations(range(1, n + 1), 3) if t[0] <= a]


def planted_block_host(
    n: int, p_in: float, p_out: float, rng: random.Random
) -> list[tuple[int, int, int]]:
    """Two random halves; triples inside one half with p_in, mixed ones with p_out."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    half = set(order[: n // 2])
    out = []
    for t in itertools.combinations(range(1, n + 1), 3):
        inside = sum(v in half for v in t)
        if rng.random() < (p_in if inside in (0, 3) else p_out):
            out.append(t)
    return out


def hamiltonian_host(n: int, p: float, rng: random.Random) -> list[tuple[int, int, int]]:
    """random_host plus every window of a random cyclic order of [1, n], so
    the longest tight cycle has exactly n vertices."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set(random_host(n, p, rng))
    for i in range(n):
        edges.add(tuple(sorted((order[i], order[(i + 1) % n], order[(i + 2) % n]))))
    return sorted(edges)


def vertex_degrees(n: int, edges) -> list[int]:
    deg = [0] * (n + 1)
    for e in edges:
        for v in e:
            deg[v] += 1
    return deg


def dense_host(n: int, p: float, rng: random.Random) -> list[tuple[int, int, int]]:
    """random_host redrawn until its minimum vertex degree exceeds (5/9)C(n,2)."""
    while True:
        edges = random_host(n, p, rng)
        if 9 * min(vertex_degrees(n, edges)[1:]) > 5 * comb(n, 2):
            return edges


def write_3g(path, n: int, edges) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"3 {n}\n")
        fh.writelines(f"{a} {b} {c}\n" for a, b, c in edges)
