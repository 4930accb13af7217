"""Seeded verification campaigns.

Each campaign hammers one verified fact with randomized (or exhaustive)
instances and returns a CampaignResult listing any failures.  These back
both the `tcl verify` subcommands and the acceptance suite; trial seeds
are derived arithmetically from the master seed, so campaigns reproduce
exactly and can be distributed over a process pool without changing their
outcome.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import comb

from .cycles import brute_force_longest_cycle, longest_tight_cycle
from .errors import GenerationError, InvalidArgumentError, InvariantViolation, TclError
from .fractional import (
    FarkasCertificate,
    FractionalMatching,
    tight_perfect_fractional_matching,
    max_fractional_matching,
    perfect_or_certificate,
)
from .generators import derive_seed, extremal, min_degree_bound, random_3graph, random_min_degree_3graph
from .hypergraph import Graph, complete_3graph, write_graph, write_hypergraph
from .matching import (
    erdos_gallai_thresholds,
    graphmeet_verify,
    max_matching,
    reverify_graphmeet,
)
from .pipeline import DEFAULT_D, DEFAULT_EPS, DEFAULT_SAMPLES, run_pipeline
from .slices import ReducedGraph, reduced_degree_check
from .tight import tight_components

MAX_RECORDED_FAILURES = 25
FARKAS_SIZES = (6, 9, 12)
REDUCED_DEGREE_T_VALUES = tuple(range(4, 11))
CYCLE_ORACLE_MIN_N = 4
CYCLE_ORACLE_MAX_N = 9  # the brute-force oracle enumerates tight paths; intended for n <= 9
EXHAUSTIVE_MAX_N = 7  # 2^C(N,2) graphs on N vertices: 2^21 at 7, 2^28 at 8

# What one trial returns: its failure records (empty when it passed), the
# name of a stats counter to increment or None, and the SHA-256 of the
# canonical text of the instance it drew.
TrialOutcome = tuple[list[dict], str | None, str]


@dataclass
class CampaignResult:
    name: str
    trials: int
    failures: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, failure: dict) -> None:
        if len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append(failure)
        else:
            self.stats["failures_truncated"] = True

    def to_json_dict(self) -> dict:
        return {
            "campaign": self.name,
            "trials": self.trials,
            "passed": self.passed,
            "failures": self.failures,
            "stats": self.stats,
        }


def _digest(*texts: str) -> str:
    # imported here, not at the top: hashlib loads OpenSSL, about 3.5 MiB of
    # resident memory, and every tcl command imports this module
    import hashlib

    return hashlib.sha256("".join(texts).encode()).hexdigest()


def _map_trials(worker, trials: int, jobs: int) -> list:
    workers = min(jobs, trials, os.cpu_count() or 1)
    if workers <= 1:
        return [worker(i) for i in range(trials)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, trials // (workers * 8))
        return list(pool.map(worker, range(trials), chunksize=chunk))


def _run_trials(name: str, trials: int, jobs: int, trial, stats: dict) -> CampaignResult:
    """Run trial(i) -> TrialOutcome for every i < trials on at most `jobs`
    processes and collect the outcomes into one result; each trial derives
    its randomness from i, so the result does not depend on `jobs`.  The
    SHA-256 over the trials' instance digests, in trial order, goes into
    stats as instances_sha256."""
    if trials < 0:
        raise InvalidArgumentError(f"need trials >= 0, got {trials}")
    if jobs < 1:
        raise InvalidArgumentError(f"need jobs >= 1, got {jobs}")
    result = CampaignResult(name=name, trials=trials, stats=stats)
    digests = []
    for failures, tally, digest in _map_trials(trial, trials, jobs):
        for failure in failures:
            result.record(failure)
        if tally:
            result.stats[tally] += 1
        digests.append(digest)
    result.stats["instances_sha256"] = _digest(*digests)
    return result


# ---------------------------------------------------------------------------
# dense-pair component facts
# ---------------------------------------------------------------------------


def _random_dense_graph(n: int, rng: random.Random) -> Graph:
    e = rng.randint(min_degree_bound(n), comb(n, 2))
    pairs = rng.sample(list(itertools.combinations(range(1, n + 1), 2)), e)
    return Graph(n, pairs)


def _graphmeet_trial(i: int, n: int, seed: int) -> TrialOutcome:
    rng = random.Random(derive_seed(seed, i))
    G1 = _random_dense_graph(n, rng)
    G2 = _random_dense_graph(n, rng)
    digest = _digest(write_graph(G1), write_graph(G2))
    report = graphmeet_verify(G1, G2)
    if not report.all_verdicts():
        return [{"trial": i, "n": n, "problem": "verdict false", "report": report.to_json_dict()}], None, digest
    problems = reverify_graphmeet(G1, G2, report)
    if problems:
        return [{"trial": i, "n": n, "problem": "; ".join(problems)}], None, digest
    return [], None, digest


def run_graphmeet_campaign(n: int, trials: int, seed: int, jobs: int = 1) -> CampaignResult:
    """Random dense pairs at fixed n: all four verdicts must hold and the
    evidence must survive independent re-verification."""
    if n % 3 != 0:
        raise TclError(f"campaign needs 3 | n, got n={n}")
    return _run_trials("graphmeet", trials, jobs, partial(_graphmeet_trial, n=n, seed=seed), {"n": n})


# ---------------------------------------------------------------------------
# degree-conditioned perfect fractional matchings
# ---------------------------------------------------------------------------


def _fracmatch_trial(i: int, n: int, seed: int, p: float) -> TrialOutcome:
    target = min_degree_bound(n)
    try:
        H = random_min_degree_3graph(n, target, derive_seed(seed, i), max_attempts=400, p=p)
    except GenerationError as exc:
        return [{"trial": i, "n": n, "problem": f"generation failed: {exc}"}], None, _digest()
    digest = _digest(write_hypergraph(H))
    try:
        res = tight_perfect_fractional_matching(H)
    except TclError as exc:
        return [{"trial": i, "n": n, "problem": f"{type(exc).__name__}: {exc}"}], None, digest
    problem = None
    if 3 * res.matching.total_weight != n:
        problem = f"total weight {res.matching.total_weight} != n/3"
    elif 9 * res.subgraph_min_degree < 4 * comb(n, 2):
        problem = f"subgraph min degree {res.subgraph_min_degree} too small"
    else:
        try:
            res.matching.validate(H)  # includes support-in-one-component check
        except InvariantViolation as exc:
            problem = str(exc)
    return ([{"trial": i, "n": n, "problem": problem}] if problem else []), None, digest


def fracmatch_edge_probability(n: int) -> float:
    return min(0.97, min_degree_bound(n) / comb(n - 1, 2) + 0.15)


def run_fracmatch_campaign(n: int, trials: int, seed: int, jobs: int = 1) -> CampaignResult:
    """Random degree-conditioned 3-graphs at fixed n: the returned matching
    must be perfect (exact rational), supported in one tight component, and
    the component must keep min degree >= (4/9)C(n,2)."""
    if n % 3 != 0:
        raise TclError(f"campaign needs 3 | n, got n={n}")
    p = fracmatch_edge_probability(n)
    trial = partial(_fracmatch_trial, n=n, seed=seed, p=p)
    return _run_trials("fracmatch", trials, jobs, trial, {"n": n, "p": round(p, 4)})


# ---------------------------------------------------------------------------
# perfect-or-certificate disjunction
# ---------------------------------------------------------------------------


def _largest_tight_component(lab) -> int:
    return max(range(lab.component_count), key=lambda c: (lab.component_sizes[c], -c))


def _farkas_trial(i: int, seed: int) -> TrialOutcome:
    rng = random.Random(derive_seed(seed, i, 77))
    n = rng.choice(FARKAS_SIZES)
    if i % 3 == 0:
        a = rng.randint(1, max(1, n // 3))
        H = extremal(n, a).hypergraph
        expect = "certificate" if 3 * a < n else None
    else:
        p = rng.uniform(0.15, 0.95)
        H = random_3graph(n, p, derive_seed(seed, i, 78))
        expect = None
    digest = _digest(write_hypergraph(H))
    if not H.edges:
        return [], "skipped", digest  # nothing to decide
    lab = tight_components(H)
    cid = _largest_tight_component(lab)
    outcome = perfect_or_certificate(H, cid)
    if isinstance(outcome, FractionalMatching):
        kind = "perfect"
        try:
            outcome.validate(H)
            if 3 * outcome.total_weight != n:
                raise InvariantViolation(f"claimed perfect but weight {outcome.total_weight}")
        except InvariantViolation as exc:
            return [{"trial": i, "n": n, "problem": str(exc)}], kind, digest
    else:
        kind = "certificate"
        restricted = [e for e in H.edges if lab.labels[e] == cid]
        try:
            outcome.validate(restricted)
        except InvariantViolation as exc:
            return [{"trial": i, "n": n, "problem": str(exc)}], kind, digest
    if expect and kind != expect:
        return [{"trial": i, "n": n, "problem": f"expected {expect}, got {kind}"}], kind, digest
    return [], kind, digest


def run_farkas_campaign(trials: int, seed: int, jobs: int = 1) -> CampaignResult:
    """Mixed instances (extremal family plus random): exactly one of a
    perfect matching or an exactly-verified certificate comes back, and the
    pinned extremal case must certify with maximum weight 2."""
    stats = {"sizes": list(FARKAS_SIZES), "perfect": 0, "certificate": 0, "skipped": 0}
    result = _run_trials("farkas", trials, jobs, partial(_farkas_trial, seed=seed), stats)
    counts = {k: result.stats[k] for k in ("perfect", "certificate", "skipped")}
    if counts["perfect"] == 0 or counts["certificate"] == 0:
        result.record({"problem": f"campaign did not exercise both outcomes: {counts}"})

    # pinned extremal reference point
    inst = extremal(9, 2)
    opt = max_fractional_matching(inst.hypergraph, 0)
    if opt.total_weight != 2:
        result.record({"problem": f"extremal(9,2) optimum {opt.total_weight} != 2"})
    outcome = perfect_or_certificate(inst.hypergraph, 0)
    if not isinstance(outcome, FarkasCertificate):
        result.record({"problem": "extremal(9,2) did not produce a certificate"})
    return result


# ---------------------------------------------------------------------------
# reduced-graph degree inequality
# ---------------------------------------------------------------------------


def _random_reduced_graph(rng: random.Random, t: int) -> ReducedGraph:
    style = rng.randrange(4)
    densities = {}
    regular = {}
    p_irregular = rng.choice((0.0, 0.1, 0.3, 0.5, 0.9, 1.0))
    for X in itertools.combinations(range(t), 3):
        if style == 0:
            densities[X] = Fraction(rng.randint(0, 64), 64)
        elif style == 1:
            densities[X] = rng.choice((Fraction(0), Fraction(1)))
        elif style == 2:
            densities[X] = Fraction(rng.randint(0, 4), 4)
        else:
            densities[X] = Fraction(rng.randint(48, 64), 64)
        regular[X] = rng.random() >= p_irregular
    d = rng.choice((Fraction(0), Fraction(1, 64), Fraction(1, 8), Fraction(1, 2), Fraction(1)))
    return ReducedGraph(t=t, m=1, densities=densities, regular=regular, d_threshold=d)


def _reduced_degree_trial(i: int, seed: int) -> TrialOutcome:
    rng = random.Random(derive_seed(seed, i))
    t = rng.choice(REDUCED_DEGREE_T_VALUES)
    R = _random_reduced_graph(rng, t)
    failures = [
        {"trial": i, "t": t, "cluster": rep.cluster, "lhs": str(rep.lhs), "rhs": str(rep.rhs)}
        for rep in reduced_degree_check(R)
        if not rep.ok
    ]
    return failures, None, _digest(json.dumps(R.to_json_dict(), sort_keys=True))


def run_reduced_degree_campaign(trials: int, seed: int, jobs: int = 1) -> CampaignResult:
    """Adversarial and random density/label configurations: the thresholded
    degree inequality must hold for every cluster, exactly."""
    stats = {"t_values": list(REDUCED_DEGREE_T_VALUES)}
    return _run_trials("reduced-degree", trials, jobs, partial(_reduced_degree_trial, seed=seed), stats)


# ---------------------------------------------------------------------------
# matching threshold soundness
# ---------------------------------------------------------------------------


def _matching_number_table(N: int) -> bytearray:
    """nu[mask] for every graph on N labeled vertices, mask over C(N,2) pairs."""
    pairs = list(itertools.combinations(range(N), 2))
    P = len(pairs)
    incident = []
    for u, v in pairs:
        mask = 0
        for j, (x, y) in enumerate(pairs):
            if x in (u, v) or y in (u, v):
                mask |= 1 << j
        incident.append(mask)
    nu = bytearray(1 << P)
    for mask in range(1, 1 << P):
        low = (mask & -mask).bit_length() - 1
        skip = nu[mask & (mask - 1)]  # drop the lowest edge
        take = 1 + nu[mask & ~incident[low]]
        nu[mask] = take if take > skip else skip
    return nu


def run_erdos_gallai_exhaustive(max_n: int) -> CampaignResult:
    """Every graph on at most max_n labeled vertices: edge counts above the
    threshold must force a matching of the corresponding size."""
    if max_n > EXHAUSTIVE_MAX_N:
        raise InvalidArgumentError(f"exhaustive check needs max_n <= {EXHAUSTIVE_MAX_N}, got {max_n}")
    result = CampaignResult(name="erdos-gallai-exhaustive", trials=0, stats={})
    graphs = 0
    for N in range(1, max_n + 1):
        nu = _matching_number_table(N)
        P = comb(N, 2)
        thresholds = erdos_gallai_thresholds(N)
        for mask in range(1 << P):
            graphs += 1
            e = mask.bit_count()
            v = nu[mask]
            for k, thr in thresholds.items():
                if e > thr and v < k:
                    result.record({"N": N, "mask": mask, "e": e, "k": k, "nu": v})
    result.trials = graphs
    result.stats["graphs_checked"] = graphs
    return result


def _eg_random_trial(i: int, seed: int, max_n: int) -> TrialOutcome:
    rng = random.Random(derive_seed(seed, i))
    N = rng.randint(2, max_n)
    p = rng.uniform(0.1, 0.95)
    edges = [e for e in itertools.combinations(range(1, N + 1), 2) if rng.random() < p]
    G = Graph(N, edges)
    digest = _digest(write_graph(G))
    nu = max_matching(G).size
    e = len(edges)
    for k, thr in erdos_gallai_thresholds(N).items():
        if e > thr and nu < k:
            return [{"trial": i, "N": N, "e": e, "k": k, "nu": nu}], None, digest
    return [], None, digest


def run_erdos_gallai_random(trials: int, seed: int, max_n: int, jobs: int = 1) -> CampaignResult:
    if max_n < 2:
        raise InvalidArgumentError(f"random graphs need max_n >= 2, got {max_n}")
    trial = partial(_eg_random_trial, seed=seed, max_n=max_n)
    return _run_trials("erdos-gallai-random", trials, jobs, trial, {"max_n": max_n})


# ---------------------------------------------------------------------------
# extremal family bounds
# ---------------------------------------------------------------------------


def run_extremal_bound_campaign(max_n: int) -> CampaignResult:
    """Exact reproduction of the extremal family facts for all n <= max_n:
    the min-degree formula for every a and, for n >= 4, the longest tight
    cycle: none when a = 1, length 3a when 3a <= n, Hamilton length n when
    3a > n."""
    result = CampaignResult(name="extremal-bound", trials=0, stats={})
    checked = 0
    cycles_checked = 0
    for n in range(3, max_n + 1):
        for a in range(1, n + 1):
            checked += 1
            inst = extremal(n, a)  # raises InvariantViolation unless the degree formula holds
            if n < 4:
                continue
            expected = 0 if a == 1 else min(3 * a, n)  # 0: no cycle at all
            cyc = longest_tight_cycle(inst.hypergraph)
            cycles_checked += 1
            got = cyc.length if cyc else 0
            if got != expected:
                result.record({"n": n, "a": a, "problem": f"cycle length {got} != {expected}"})
    result.trials = checked
    result.stats.update({"pairs_checked": checked, "cycles_checked": cycles_checked})
    return result


# ---------------------------------------------------------------------------
# exact cycle solver vs permutation oracle
# ---------------------------------------------------------------------------


def _cycle_oracle_trial(i: int, seed: int, max_n: int) -> TrialOutcome:
    rng = random.Random(derive_seed(seed, i))
    n = rng.randint(CYCLE_ORACLE_MIN_N, max_n)
    p = rng.uniform(0.15, 0.85)
    H = random_3graph(n, p, derive_seed(seed, i, 5))
    digest = _digest(write_hypergraph(H))
    dp = longest_tight_cycle(H)
    bf = brute_force_longest_cycle(H)
    dp_len = dp.length if dp else 0
    bf_len = bf.length if bf else 0
    if dp_len != bf_len:
        return [{"trial": i, "n": n, "p": round(p, 3), "dp": dp_len, "oracle": bf_len}], None, digest
    return [], None, digest


def run_cycle_oracle_campaign(trials: int, seed: int, max_n: int, jobs: int = 1) -> CampaignResult:
    if not CYCLE_ORACLE_MIN_N <= max_n <= CYCLE_ORACLE_MAX_N:
        raise InvalidArgumentError(
            f"cycle oracle needs {CYCLE_ORACLE_MIN_N} <= max_n <= {CYCLE_ORACLE_MAX_N}, got {max_n}")
    trial = partial(_cycle_oracle_trial, seed=seed, max_n=max_n)
    stats = {"min_n": CYCLE_ORACLE_MIN_N, "max_n": max_n}
    return _run_trials("cycle-oracle", trials, jobs, trial, stats)


# ---------------------------------------------------------------------------
# pipeline smoke and determinism
# ---------------------------------------------------------------------------


def run_pipeline_determinism(n: int, t: int, seed: int) -> CampaignResult:
    """Complete 3-graph through the whole pipeline at the default threshold,
    eps and sample count (pipeline.DEFAULT_*), twice: the run must end in a
    valid cycle covering all undeleted vertices and the canonical
    (timing-free) reports must be byte-identical."""
    result = CampaignResult(name="pipeline-determinism", trials=2, stats={"n": n, "t": t})
    H = complete_3graph(n)
    r1 = run_pipeline(H, t, DEFAULT_D, DEFAULT_EPS, DEFAULT_SAMPLES, seed)
    r2 = run_pipeline(H, t, DEFAULT_D, DEFAULT_EPS, DEFAULT_SAMPLES, seed)
    if not r1.ok:
        result.record({"problem": f"pipeline failed at stage {r1.failed_stage()}"})
    else:
        cycle_detail = r1.stages[-1].detail
        expected = n - n % t
        if cycle_detail.get("length") != expected:
            result.record(
                {"problem": f"cycle length {cycle_detail.get('length')} != undeleted count {expected}"}
            )
    c1, c2 = r1.canonical_json(), r2.canonical_json()
    if c1 != c2:
        result.record({"problem": "canonical reports differ between identical runs"})
    result.stats["canonical_bytes"] = len(c1)
    return result
