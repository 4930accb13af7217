"""Each output checker accepts the program's real output and rejects a
deliberately corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py
"""

import copy
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, HostFacts  # noqa: E402
from tightcycle import cycles, fractional, hypergraph  # noqa: E402


def rejects(fn, *args):
    with pytest.raises(CheckFailed):
        fn(*args)


def test_cycle_checker():
    n, edges = 8, inputs.hamiltonian_host(8, 0.2, random.Random(1))
    facts = HostFacts(n, edges)
    order = list(cycles.longest_tight_cycle(hypergraph.Hypergraph3(n, edges)).order)
    checks.check_cycle(facts, order, n)
    rejects(checks.check_cycle, facts, order, n - 1)
    rejects(checks.check_cycle, facts, order[:-1] + [order[0]], n)
    missing = HostFacts(n, [e for e in edges if e != tuple(sorted(order[:3]))])
    rejects(checks.check_cycle, missing, order, n)


def test_perfect_checker():
    n, edges = 12, inputs.dense_host(12, 0.85, random.Random(2))
    facts = HostFacts(n, edges)
    m = fractional.tight_perfect_fractional_matching(hypergraph.Hypergraph3(n, edges)).matching
    checks.check_perfect(facts, m.weights, m.total_weight)
    e, w = next(iter(m.weights.items()))
    rejects(checks.check_perfect, facts, {**m.weights, e: w / 2}, m.total_weight)
    rejects(checks.check_perfect, facts, m.weights, m.total_weight + 1)
    rejects(checks.check_perfect, facts, {k: float(v) for k, v in m.weights.items()},
            m.total_weight)
    # loads all 1 and total n/3, but the support spans two tight components
    two = HostFacts(6, [(1, 2, 3), (4, 5, 6)])
    rejects(checks.check_perfect, two, {(1, 2, 3): Fraction(1), (4, 5, 6): Fraction(1)},
            Fraction(2))


def test_certificate_checker():
    n, a = 15, 2
    edges = inputs.extremal_host(n, a)
    cert = fractional.perfect_or_certificate(hypergraph.Hypergraph3(n, edges), 0)
    assert isinstance(cert, fractional.FarkasCertificate)
    checks.check_certificate(cert.a, edges, n - 3 * a)
    rejects(checks.check_certificate, cert.a, edges, n - 3 * a - 1)
    rejects(checks.check_certificate, tuple(-x for x in cert.a), edges, None)
    bumped = (cert.a[0] + 1,) + cert.a[1:]
    rejects(checks.check_certificate, bumped, edges, None)


@pytest.fixture(scope="module")
def dense_file(tmp_path_factory):
    n, edges = 24, inputs.dense_host(24, 0.8, random.Random(3))
    path = tmp_path_factory.mktemp("host") / "h.3g"
    inputs.write_3g(path, n, edges)
    return HostFacts(n, edges), str(path)


def test_info_and_components_checkers(dense_file):
    facts, path = dense_file
    info = workloads.tcl(["info", path])
    checks.check_info(facts, info)
    bad = json.loads(info)
    bad["min_degree_2"] += 1
    rejects(checks.check_info, facts, json.dumps(bad))
    comps = workloads.tcl(["components", path])
    checks.check_components(facts, comps)
    bad = json.loads(comps)
    bad["labels"][5]["c"] = 1
    rejects(checks.check_components, facts, json.dumps(bad))


def test_link_and_match_checkers(dense_file):
    facts, path = dense_file
    link = workloads.tcl(["link", path, "7"])
    pairs = checks.check_link(facts, 7, link)
    rejects(checks.check_link, facts, 7, "\n".join(link.splitlines()[:-1]))
    rejects(checks.check_link, facts, 8, link)
    match = workloads.tcl(["match", "-"], stdin_text=link)
    checks.check_match(facts, pairs, match)
    out = json.loads(match)
    reused = copy.deepcopy(out)
    reused["pairs"][1][0] = out["pairs"][0][0]
    rejects(checks.check_match, facts, pairs, json.dumps(reused))
    short = {"size": facts.n // 3 - 1, "pairs": out["pairs"][: facts.n // 3 - 1]}
    rejects(checks.check_match, facts, pairs, json.dumps(short))


def test_pipeline_checker_and_determinism():
    ops = workloads.pipeline_ops(5)
    op = next(o for o in ops if o.name.startswith("random-24-t6"))
    report = op.run()
    op.check(report)
    op.check(op.run())  # a second call on the same host and seed
    cyc = next(s for s in report.stages if s.name == "cycle")
    order = cyc.detail["order"]
    swapped = copy.deepcopy(report)
    stage = next(s for s in swapped.stages if s.name == "cycle")
    stage.detail["order"] = [order[1], order[0]] + order[2:]
    rejects(op.check, swapped)
    failed = copy.deepcopy(report)
    failed.stages[-1] = replace(failed.stages[-1], status="failed")
    rejects(op.check, failed)
    moved = copy.deepcopy(report)
    moved.parameters["seed"] += 1
    rejects(op.check, moved)


def test_declared_metrics_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    measured = {k: unit for k, (unit, _) in spans.PER_LAYER.items()}
    measured.update({"machine.ref_kernel_s": "s", "trace.overhead_pct": "%"})
    assert declared == measured
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_every_patch_target_exists():
    for owner, attr, _, _ in spans.PATCHES:
        assert callable(owner.__dict__[attr]), (owner, attr)
