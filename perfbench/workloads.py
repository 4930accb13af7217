"""The four workloads: a fixed list of operations each, built from a seed.

An operation's `run` is what gets timed.  It builds its own Hypergraph3
(or reads its own file), so no lazily built index carries over from one
pass to the next, and it calls the program through module attributes, so
the traced run's wrappers see every call.  `check` raises CheckFailed on a
wrong output.
"""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
import inputs
from checks import HostFacts, require
from tightcycle import cli, cycles, fractional, hypergraph, pipeline

# run_pipeline parameters shared by every pipeline operation.
D_THRESHOLD = Fraction(1, 20)
EPS = 0.25


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    output_bytes: Callable[[object], int] | None = None


def _pipeline_op(name, n, t, samples, edges, rng) -> Op:
    facts = HostFacts(n, edges)
    seed = rng.randrange(2**31)
    first: dict = {}

    def run():
        H = hypergraph.Hypergraph3(n, edges)
        return pipeline.run_pipeline(H, t, D_THRESHOLD, EPS, samples, seed)

    def check(report):
        checks.check_pipeline(facts, report, t)
        # Same host and seed in every pass: the canonical report must not move.
        canonical = first.setdefault("canonical_json", report.canonical_json())
        require(report.canonical_json() == canonical, "canonical_json differs between passes")

    return Op(name, run, check)


def pipeline_ops(seed: int) -> list[Op]:
    # Sorted by cost the list is two cheap seeded hosts (under 0.3 s), three
    # copies of the complete host at about 0.6 s, and three dear ones (over
    # 0.7 s).  The complete host takes its run_pipeline seed from no workload
    # seed, so it is seed-free, and the median operation is always one of its
    # copies.
    plan = [
        # kind, n, t, p, samples
        ("random", 24, 6, 0.8, 12),
        ("random", 30, 6, 0.8, 12),
        ("complete", 24, 9, None, 6),
        ("complete", 24, 9, None, 6),
        ("complete", 24, 9, None, 6),
        ("random", 24, 12, 0.9, 3),
        ("random", 48, 6, 0.75, 20),
        ("planted", 36, 9, None, 24),
    ]
    ops = []
    for i, (kind, n, t, p, samples) in enumerate(plan):
        rng = inputs.op_rng(seed, "pipeline", i)
        if kind == "complete":
            rng = inputs.op_rng(0, "pipeline-complete", 0)
        if kind == "random":
            edges = inputs.random_host(n, p, rng)
        elif kind == "complete":
            edges = inputs.complete_host(n)
        else:
            edges = inputs.planted_block_host(n, 0.98, 0.6, rng)
        ops.append(_pipeline_op(f"{kind}-{n}-t{t}", n, t, samples, edges, rng))
    return ops


def fractional_ops(seed: int) -> list[Op]:
    ops = []
    # Sorted by cost the list is five cheap operations (the seeded ones under
    # 0.08 s), five copies of the seed-free extremal(21, 4) at about 0.11 s,
    # and seven dearer ones (the seeded ones over 0.15 s).  So the median
    # operation is always a copy of extremal(21, 4), whatever the seed, and
    # two thirds of the time goes to seed-free hosts or to dense ones, whose
    # LP cost moves by under 10 % from seed to seed.
    plan = [
        ("extremal", 15, 2), ("extremal", 18, 3), ("dense", 12, 0.9),
        ("sparse", 15, 0.1), ("sparse", 15, 0.1),
        ("extremal", 21, 4), ("extremal", 21, 4), ("extremal", 21, 4),
        ("extremal", 21, 4), ("extremal", 21, 4),
        ("dense", 15, 0.9), ("dense", 15, 0.9), ("dense", 18, 0.9), ("dense", 18, 0.9),
        ("extremal", 27, 5), ("extremal", 24, 6), ("extremal", 30, 6),
    ]
    for i, (kind, n, x) in enumerate(plan):
        rng = inputs.op_rng(seed, "fractional", i)
        if kind == "dense":
            edges = inputs.dense_host(n, x, rng)
            ops.append(_tight_perfect_op(f"dense-{n}", n, edges))
        elif kind == "extremal":
            edges = inputs.extremal_host(n, x)
            # optimum a, so the dual gives a.1 = n - 3a
            ops.append(_certificate_op(f"extremal-{n}-{x}", n, edges, n - 3 * x))
        else:
            ops.append(_certificate_op(f"sparse-{n}", n, inputs.random_host(n, x, rng), None))
    return ops


def _tight_perfect_op(name, n, edges) -> Op:
    facts = HostFacts(n, edges)

    def run():
        return fractional.tight_perfect_fractional_matching(hypergraph.Hypergraph3(n, edges))

    def check(result):
        m = result.matching
        checks.check_perfect(facts, m.weights, m.total_weight)
        comp = facts.component_edges(facts.label_of()[min(m.weights)])
        require(result.subgraph_edges == frozenset(comp), "selected component differs")

    return Op(name, run, check)


def _certificate_op(name, n, edges, expected_sum) -> Op:
    """perfect_or_certificate restricted to the largest tight component."""
    facts = HostFacts(n, edges)
    cid = facts.largest_component()
    comp = facts.component_edges(cid)

    def run():
        return fractional.perfect_or_certificate(hypergraph.Hypergraph3(n, edges), cid)

    def check(result):
        if isinstance(result, fractional.FarkasCertificate):
            checks.check_certificate(result.a, comp, expected_sum)
        else:
            require(expected_sum is None, "perfect matching where none exists")
            checks.check_perfect(facts, result.weights, result.total_weight)
            require(all(facts.label_of()[e] == cid for e in result.weights),
                    "support outside the restricted component")

    return Op(name, run, check)


def cycle_ops(seed: int) -> list[Op]:
    # Sorted by cost the list is five cheap operations (the sparse seeded
    # hosts, where the DP stops early, under 0.12 s), four copies of the
    # seed-free extremal(15, 3) at about 0.2 s, and six dearer ones (the dense
    # seeded hosts over 0.3 s).  So the median operation is always a copy of
    # extremal(15, 3), and about four fifths of the time goes to seed-free
    # hosts.
    plan = [
        ("extremal", 14, 1), ("extremal", 16, 1), ("hamiltonian", 13, 0.3),
        ("hamiltonian", 14, 0.3), ("hamiltonian", 14, 0.3),
        ("extremal", 15, 3), ("extremal", 15, 3), ("extremal", 15, 3), ("extremal", 15, 3),
        ("hamiltonian", 13, 0.8), ("hamiltonian", 13, 0.8), ("extremal", 16, 3),
        ("extremal", 14, 4), ("extremal", 15, 4), ("extremal", 16, 4),
    ]
    ops = []
    for i, (kind, n, x) in enumerate(plan):
        if kind == "hamiltonian":
            edges = inputs.hamiltonian_host(n, x, inputs.op_rng(seed, "cycle-dp", i))
            ops.append(_cycle_op(f"hamiltonian-{n}", n, edges, n))
        else:
            ops.append(_cycle_op(f"extremal-{n}-{x}", n, inputs.extremal_host(n, x),
                                 3 * x if x > 1 else None))
    return ops


def _cycle_op(name, n, edges, length) -> Op:
    facts = HostFacts(n, edges)

    def run():
        return cycles.longest_tight_cycle(hypergraph.Hypergraph3(n, edges))

    def check(cycle):
        if length is None:
            require(cycle is None, "cycle found where none exists")
        else:
            require(cycle is not None, "no cycle found")
            checks.check_cycle(facts, cycle.order, length)

    return Op(name, run, check)


def tcl(argv, stdin_text=None) -> str:
    """Run `tcl argv` in this process; returns its standard output."""
    out = io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    require(code == 0, f"tcl {argv[0]} exited with {code}")
    return out.getvalue()


def structure_ops(seed: int, workdir) -> list[Op]:
    # Six cheap operations on the sparse hosts, then the three link-match
    # operations of the 60-vertex dense host (the median), then dearer ones.
    plan = [
        # n, p, dense, link vertices
        (60, 0.018, False, 1),
        (90, 0.006, False, 1),
        (60, 0.8, True, 3),
        (90, 0.85, True, 2),
    ]
    ops = []
    for i, (n, p, dense, links) in enumerate(plan):
        rng = inputs.op_rng(seed, "structure", i)
        edges = inputs.dense_host(n, p, rng) if dense else inputs.random_host(n, p, rng)
        facts = HostFacts(n, edges)
        path = str(workdir / f"host{i}.3g")
        inputs.write_3g(path, n, edges)
        tag = f"{n}-{len(edges)}"
        ops.append(Op(f"info-{tag}", lambda path=path: tcl(["info", path]),
                      lambda out, f=facts: checks.check_info(f, out), len))
        ops.append(Op(f"components-{tag}", lambda path=path: tcl(["components", path]),
                      lambda out, f=facts: checks.check_components(f, out), len))
        for v in rng.sample(range(1, n + 1), links):
            ops.append(_link_match_op(f"link-match-{tag}-{v}", facts, path, v))
    return ops


def _link_match_op(name, facts, path, v) -> Op:
    def run():
        link = tcl(["link", path, str(v)])
        return link, tcl(["match", "-"], stdin_text=link)

    def check(result):
        link, match = result
        checks.check_match(facts, checks.check_link(facts, v, link), match)

    return Op(name, run, check, lambda result: len(result[0]) + len(result[1]))


WORKLOADS = {
    "pipeline": lambda seed, workdir: pipeline_ops(seed),
    "fractional": lambda seed, workdir: fractional_ops(seed),
    "cycle-dp": lambda seed, workdir: cycle_ops(seed),
    "structure": structure_ops,
}
