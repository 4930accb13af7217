from fractions import Fraction

import pytest

from tightcycle import pipeline
from tightcycle.errors import InvalidArgumentError, InvariantViolation
from tightcycle.generators import extremal, random_3graph
from tightcycle.hypergraph import complete_3graph
from tightcycle.pipeline import run_pipeline


def test_pipeline_complete_k30():
    H = complete_3graph(30)
    report = run_pipeline(H, 6, Fraction(1, 20), 0.25, 40, seed=7)
    assert report.ok
    by_name = {s.name: s for s in report.stages}
    assert by_name["reduce"].detail["regular_fraction"] == "1"
    assert by_name["good-clusters"].detail["count"] == 6
    assert by_name["reduced-matching"].detail["total_weight"] == "2"
    cycle = by_name["cycle"].detail
    assert cycle["length"] == 30 and cycle["valid"]
    assert all(v == 5 for v in cycle["coverage"].values())


def test_pipeline_reduces_to_more_than_thirty_clusters():
    # the reduced-matching stage decides exactly on a 33-vertex reduced graph
    report = run_pipeline(complete_3graph(66), 33, Fraction(1, 20), 0.25, 6, seed=7)
    assert report.ok
    by_name = {s.name: s for s in report.stages}
    assert by_name["good-clusters"].detail["count"] == 33
    assert by_name["reduced-matching"].detail["total_weight"] == "11"
    cycle = by_name["cycle"].detail
    assert cycle["length"] == 66 and cycle["valid"]


def test_pipeline_deterministic_canonical_reports():
    H = complete_3graph(30)
    r1 = run_pipeline(H, 6, Fraction(1, 20), 0.25, 40, seed=7)
    r2 = run_pipeline(H, 6, Fraction(1, 20), 0.25, 40, seed=7)
    assert r1.canonical_json() == r2.canonical_json()
    # timings are excluded from the canonical form but present otherwise
    assert "timings" in r1.to_json_dict()
    assert "timings" not in r1.to_json_dict(include_timings=False)


def test_pipeline_extremal_fails_at_stable_stage():
    H = extremal(30, 6).hypergraph
    r1 = run_pipeline(H, 6, Fraction(1, 20), 0.25, 40, seed=11)
    r2 = run_pipeline(H, 6, Fraction(1, 20), 0.25, 40, seed=11)
    assert not r1.ok
    assert r1.failed_stage() == r2.failed_stage() == "reduced-matching"
    statuses = {s.name: s.status for s in r1.stages}
    assert statuses["cycle"] == "skipped"
    assert r1.canonical_json() == r2.canonical_json()


def test_pipeline_random_dense_instance():
    H = random_3graph(60, 0.8, 42)
    report = run_pipeline(H, 6, Fraction(1, 20), 0.25, 40, seed=11)
    assert report.ok
    cycle = {s.name: s for s in report.stages}["cycle"].detail
    assert cycle["valid"] and cycle["length"] >= 4


def test_pipeline_records_failure_and_skips():
    H = complete_3graph(12)
    report = run_pipeline(H, 13, Fraction(1, 20), 0.25, 10, seed=0)  # t > n
    assert not report.ok
    assert report.failed_stage() == "slice"
    tail = [s.status for s in report.stages[2:]]
    assert set(tail) == {"skipped"}


@pytest.mark.parametrize("t,eps,samples", [
    (2, 0.25, 10), (6, -0.5, 10), (6, 0.0, 10), (6, 1.0, 10), (6, 1.5, 10),
    (6, float("nan"), 10), (6, 0.25, 0),
])
def test_host_independent_bad_parameters_raise_before_any_stage(monkeypatch, t, eps, samples):
    def unreachable(*args):
        raise AssertionError("the input stage ran")

    monkeypatch.setattr(pipeline, "density", unreachable)
    with pytest.raises(InvalidArgumentError):
        run_pipeline(complete_3graph(12), t, Fraction(1, 20), eps, samples, seed=0)


@pytest.mark.parametrize("d", [Fraction(-1), Fraction(-1, 20), Fraction(21, 20), Fraction(2)], ids=str)
def test_density_threshold_outside_unit_interval_raises_before_any_stage(monkeypatch, d):
    def unreachable(*args):
        raise AssertionError("the input stage ran")

    monkeypatch.setattr(pipeline, "density", unreachable)
    with pytest.raises(InvalidArgumentError):
        run_pipeline(complete_3graph(12), 3, d, 0.25, 10, seed=0)


def test_invariant_violation_propagates_with_stage_name(monkeypatch):
    def broken(H):
        raise InvariantViolation("support left the component", witness=(1, 2, 3))

    monkeypatch.setattr(pipeline, "tight_perfect_fractional_matching", broken)
    with pytest.raises(InvariantViolation) as exc:
        run_pipeline(complete_3graph(12), 3, Fraction(1, 20), 0.25, 10, seed=1)
    assert str(exc.value) == "stage reduced-matching: support left the component"
    assert exc.value.witness == (1, 2, 3)


def test_exact_eps_gives_the_bytes_of_the_float():
    H = complete_3graph(12)
    for t, ok in ((3, False), (6, True)):  # t 3 fails at reduced-matching
        exact = run_pipeline(H, t, Fraction(1, 20), Fraction(1, 4), 10, 0)
        assert exact.ok == ok and exact.parameters["eps"] == 0.25
        assert exact.canonical_json() == run_pipeline(H, t, Fraction(1, 20), 0.25, 10, 0).canonical_json()
