"""Plans longer than Python's recursion limit.

The guided cycle search walks its plans with explicit stacks, so a plan of
1,200 positions is searched like one of 12: these cases each end in a
RecursionError under a search that recurses once per position.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter

from tightcycle import cli, cycles
from tightcycle.hypergraph import Hypergraph3, write_hypergraph


def test_planner_returns_a_1200_position_plan():
    rd = frozenset(itertools.combinations(range(6), 3))
    plan = cycles._plan_cluster_walk(rd, {c: 200 for c in range(6)})
    assert plan is not None and len(plan) == 1200
    assert Counter(plan) == {c: 200 for c in range(6)}
    # index -2 and -1 wrap round, so this reads every cyclic window
    assert all(tuple(sorted((plan[i - 2], plan[i - 1], plan[i]))) in rd for i in range(1200))


def test_instantiation_closes_a_1200_vertex_cycle():
    n = 1200
    H = Hypergraph3(n, [(v, v % n + 1, (v + 1) % n + 1) for v in range(1, n + 1)])
    clusters = tuple(tuple(range(c + 1, n + 1, 12)) for c in range(12))
    order, prefix = cycles._instantiate_plan(H, clusters, tuple(range(12)) * 100, random.Random(0))
    assert order is not None and prefix == order
    assert cycles.validate_cycle(H, order).valid


def test_pipeline_reports_a_failed_cycle_stage_on_a_1020_vertex_host(capsys, tmp_path, monkeypatch):
    # 60,000 random triples on 1,020 vertices: the slice has 6 clusters of
    # 170, and the first plan has 1,020 positions
    rng = random.Random(1)
    edges = set()
    while len(edges) < 60_000:
        edges.add(tuple(sorted(rng.sample(range(1, 1021), 3))))
    path = tmp_path / "h.3g"
    path.write_text(write_hypergraph(Hypergraph3(1020, edges)))
    monkeypatch.setattr(cycles, "VERTEX_BUDGET", 1000)
    code = cli.main(["pipeline", str(path), "--d", "0", "--samples", "1", "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    stages = {s["name"]: s for s in json.loads(out)["stages"]}
    assert stages["cycle"]["status"] == "failed"
