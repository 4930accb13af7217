from math import comb

import pytest

from tightcycle.cycles import longest_tight_cycle
from tightcycle.errors import GenerationError, InvalidArgumentError
from tightcycle.generators import (
    extremal,
    extremal_from_eta,
    min_degree_bound,
    random_3graph,
    random_min_degree_3graph,
)
from tightcycle.hypergraph import complete_3graph


def test_extremal_9_2():
    inst = extremal(9, 2)
    assert len(inst.hypergraph.edges) == comb(9, 3) - comb(7, 3) == 49
    assert inst.predicted_min_degree == 13
    assert inst.cycle_upper_bound == 6


def test_extremal_full_a_is_complete():
    for n in (4, 6, 8):
        inst = extremal(n, n)
        assert inst.hypergraph == complete_3graph(n)
        assert inst.predicted_min_degree == comb(n - 1, 2)


def test_extremal_a1_has_no_cycle():
    inst = extremal(6, 1)
    assert inst.cycle_upper_bound == 3  # below the minimum cycle length
    assert longest_tight_cycle(inst.hypergraph) is None


def test_extremal_formula_exact_everywhere():
    for n in range(3, 13):
        for a in range(1, n + 1):
            inst = extremal(n, a)  # recomputes and asserts internally
            b = n - a
            assert inst.predicted_min_degree == comb(n - 1, 2) - (
                comb(b - 1, 2) if b >= 1 else 0
            )


def test_extremal_rejects_bad_a():
    with pytest.raises(InvalidArgumentError):
        extremal(9, 0)
    with pytest.raises(InvalidArgumentError):
        extremal(9, 10)


def test_extremal_from_eta():
    inst = extremal_from_eta(30, 0.1)
    assert len(inst.a_side) == int(((1 - 0.1) * 30 - 1) // 3) == 8


def test_random_extremes():
    assert random_3graph(7, 1.0, 5) == complete_3graph(7)
    assert len(random_3graph(7, 0.0, 5).edges) == 0


def test_random_seed_determinism():
    assert random_3graph(10, 0.5, 42) == random_3graph(10, 0.5, 42)
    assert random_3graph(10, 0.5, 42) != random_3graph(10, 0.5, 43)


def test_min_degree_bound_values():
    assert min_degree_bound(9) == 21
    assert min_degree_bound(12) == 37
    assert min_degree_bound(15) == 59


def test_degree_conditioned_sampler_pinned():
    # seed 80 found by scanning; succeeds within 100 attempts at p = 0.62
    H = random_min_degree_3graph(12, 37, seed=80, max_attempts=100, p=0.62)
    assert H.min_degree(1) >= 37
    # same seed, same instance
    H2 = random_min_degree_3graph(12, 37, seed=80, max_attempts=100, p=0.62)
    assert H == H2


def test_degree_conditioned_sampler_failure_report():
    with pytest.raises(GenerationError) as err:
        random_min_degree_3graph(12, comb(11, 2), seed=1, max_attempts=5, p=0.5)
    assert err.value.attempts == 5
    assert 0 <= err.value.best_delta < comb(11, 2)


def test_degree_target_validated():
    with pytest.raises(InvalidArgumentError):
        random_min_degree_3graph(12, comb(11, 2) + 1, seed=1)


def test_degree_conditioned_sampler_needs_an_attempt():
    with pytest.raises(InvalidArgumentError, match="max_attempts must be >= 1, got 0"):
        random_min_degree_3graph(4, 1, seed=1, max_attempts=0)


def test_random_min_degree_rejects_negative_target():
    with pytest.raises(InvalidArgumentError, match="delta_target must be >= 0, got -3"):
        random_min_degree_3graph(5, -3, 1)
