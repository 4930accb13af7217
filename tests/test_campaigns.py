import pytest

from tightcycle import campaigns
from tightcycle.errors import InvalidArgumentError


def test_fracmatch_campaign_above_thirty_vertices():
    result = campaigns.run_fracmatch_campaign(33, 2, 7)
    assert result.passed, result.failures
    assert result.trials == 2


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs the
    trials in this process, so no worker is ever started."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("jobs,trials,cpus,workers", [
    (10**6, 40, 4, 4),  # bounded by the CPU count
    (10**6, 3, 8, 3),  # bounded by the trial count
    (2, 40, 8, 2),  # as asked
    (5, 1, 8, None),  # one trial: serial, no pool
    (5, 0, 8, None),  # no trials: serial, no pool
    (3, 40, 1, None),  # one CPU: serial, no pool
])
def test_pool_size_is_bounded(monkeypatch, jobs, trials, cpus, workers):
    monkeypatch.setattr(campaigns, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(campaigns.os, "cpu_count", lambda: cpus)
    RecordingPool.sizes = []
    serial = campaigns.run_reduced_degree_campaign(trials, 7)
    pooled = campaigns.run_reduced_degree_campaign(trials, 7, jobs=jobs)
    assert RecordingPool.sizes == ([] if workers is None else [workers])
    assert pooled.to_json_dict() == serial.to_json_dict()


def test_extremal_bound_refuses_max_n_above_the_dp_limit_before_any_work(monkeypatch):
    def no_cycle_search(H):
        raise AssertionError("longest_tight_cycle was called")

    monkeypatch.setattr(campaigns, "longest_tight_cycle", no_cycle_search)
    with pytest.raises(InvalidArgumentError, match="max_n <= 22, got 23"):
        campaigns.run_extremal_bound_campaign(23)


def test_instance_fingerprint_tracks_the_drawn_instances():
    a = campaigns.run_cycle_oracle_campaign(5, 7, max_n=7)
    b = campaigns.run_cycle_oracle_campaign(5, 8, max_n=7)
    assert a.passed and b.passed
    assert a.stats["instances_sha256"] != b.stats["instances_sha256"]
    assert campaigns.run_cycle_oracle_campaign(5, 7, max_n=7).stats == a.stats
