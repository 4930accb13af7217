"""Acceptance suite: one test per criterion, at full stated scale.

Each test prints a single pass/fail line (emitted outside pytest's
capture, so it shows in any run).  Budgets are wall-clock seconds; the verdicts themselves are
zero-tolerance counts of failures reported by the campaign engines.
"""

import time

from tightcycle import campaigns
from tightcycle.fractional import FarkasCertificate, max_fractional_matching, perfect_or_certificate
from tightcycle.generators import extremal

SEED = 20240913


def _report(capsys, num: int, name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"[criterion {num}] {verdict} {name} ({elapsed:.1f}s of {budget:.0f}s budget){suffix}")


def test_criterion_1_graphmeet_suite(capsys):
    start = time.time()
    failures = []
    total = 0
    for n in (9, 12, 15, 18, 21, 24):
        result = campaigns.run_graphmeet_campaign(n, trials=1000, seed=SEED + n)
        total += result.trials
        failures.extend(result.failures)
    elapsed = time.time() - start
    ok = not failures and elapsed < 300
    _report(capsys, 1, "dense-pair component facts", ok, elapsed, 300,
            f"{total} pairs, {len(failures)} failures")
    assert not failures, failures[:3]
    assert elapsed < 300


def test_criterion_2_fracmatch_suite(capsys):
    start = time.time()
    failures = []
    total = 0
    for n in (9, 12, 15):
        result = campaigns.run_fracmatch_campaign(n, trials=200, seed=SEED + n)
        total += result.trials
        failures.extend(result.failures)
    elapsed = time.time() - start
    ok = not failures and elapsed < 600
    _report(capsys, 2, "tightly-connected perfect fractional matchings", ok, elapsed, 600,
            f"{total} hosts, {len(failures)} failures")
    assert not failures, failures[:3]
    assert elapsed < 600


def test_criterion_3_farkas_disjunction(capsys):
    start = time.time()
    result = campaigns.run_farkas_campaign(trials=1000, seed=SEED)
    # pinned reference point, checked again here explicitly
    H = extremal(9, 2).hypergraph
    opt = max_fractional_matching(H, 0)
    cert = perfect_or_certificate(H, 0)
    pinned_ok = opt.total_weight == 2 and isinstance(cert, FarkasCertificate)
    if pinned_ok:
        cert.validate(H.edges)
    elapsed = time.time() - start
    ok = result.passed and pinned_ok and elapsed < 600
    _report(capsys, 3, "perfect-or-certificate disjunction", ok, elapsed, 600,
            f"outcomes {result.stats.get('perfect')}p/{result.stats.get('certificate')}c")
    assert result.passed, result.failures[:3]
    assert pinned_ok
    assert elapsed < 600


def test_criterion_4_erdos_gallai(capsys):
    start = time.time()
    result = campaigns.run_erdos_gallai_campaign(7, trials=100_000, seed=SEED, max_n=12)
    elapsed = time.time() - start
    ok = result.passed and elapsed < 600
    _report(capsys, 4, "matching threshold soundness", ok, elapsed, 600,
            f"{result.stats['graphs_checked']} exhaustive + {result.stats.get('random_trials')} random")
    assert result.passed, result.failures[:3]
    assert result.stats["random_trials"] == 100_000
    assert elapsed < 600


def test_criterion_5_reduced_degree_inequality(capsys):
    start = time.time()
    result = campaigns.run_reduced_degree_campaign(trials=10_000, seed=SEED)
    elapsed = time.time() - start
    ok = result.passed and elapsed < 60
    _report(capsys, 5, "reduced-graph degree inequality", ok, elapsed, 60,
            f"{result.trials} configurations")
    assert result.passed, result.failures[:3]
    assert elapsed < 60


def test_criterion_6_extremal_bound(capsys):
    start = time.time()
    result = campaigns.run_extremal_bound_campaign(max_n=12)
    elapsed = time.time() - start
    ok = result.passed and elapsed < 300
    _report(capsys, 6, "extremal family degree and cycle bounds", ok, elapsed, 300,
            f"{result.stats['pairs_checked']} (n,a) pairs, "
            f"{result.stats['cycles_checked']} DP runs")
    assert result.passed, result.failures[:3]
    assert elapsed < 300


def test_criterion_7_cycle_oracle_equivalence(capsys):
    start = time.time()
    result = campaigns.run_cycle_oracle_campaign(trials=1000, seed=SEED, max_n=9)
    elapsed = time.time() - start
    ok = result.passed and elapsed < 600
    _report(capsys, 7, "exact cycle solver vs permutation oracle", ok, elapsed, 600,
            f"{result.trials} instances")
    assert result.passed, result.failures[:3]
    assert elapsed < 600


def test_criterion_8_pipeline_smoke_and_determinism(capsys):
    start = time.time()
    result = campaigns.run_pipeline_determinism(n=30, t=6, seed=7)
    elapsed = time.time() - start
    ok = result.passed and elapsed < 120
    _report(capsys, 8, "pipeline smoke and determinism", ok, elapsed, 120,
            f"canonical report {result.stats.get('canonical_bytes')} bytes")
    assert result.passed, result.failures[:3]
    assert elapsed < 120
