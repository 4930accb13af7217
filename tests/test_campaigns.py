import concurrent.futures
import json
import subprocess
import sys
from pathlib import Path

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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(campaigns.os, "cpu_count", lambda: cpus)
    RecordingPool.sizes = []
    serial = campaigns.run_reduced_degree_campaign(trials, 7)
    pooled = campaigns.run_reduced_degree_campaign(trials, 7, jobs=jobs)
    assert RecordingPool.sizes == ([] if workers is None else [workers])
    assert pooled.to_json_dict() == serial.to_json_dict()


def test_cli_import_defers_hashlib_and_the_process_pool():
    """hashlib (OpenSSL) and the process pool cost resident memory that a
    command which draws no digest and runs serially never needs, so neither
    loads with the CLI; a fresh interpreter shows what importing it loads."""
    src = Path(campaigns.__file__).resolve().parents[1]
    probe = ("import json, sys, tightcycle.cli; "
             "print(json.dumps([tightcycle.cli.__file__, sorted(sys.modules)]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, cwd=src)
    assert proc.returncode == 0, proc.stderr
    path, loaded = json.loads(proc.stdout)
    assert Path(path).resolve().parents[1] == src
    assert [m for m in loaded if m == "hashlib" or m.startswith("concurrent")] == []


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


@pytest.mark.parametrize("n", [0, -3, 4])
def test_graphmeet_campaign_rejects_n(n):
    with pytest.raises(InvalidArgumentError, match=f"3 \\| n and n >= 3, got n={n}"):
        campaigns.run_graphmeet_campaign(n, 2, 7)


@pytest.mark.parametrize("n", [0, 3])
def test_fracmatch_campaign_rejects_n(n):
    with pytest.raises(InvalidArgumentError, match=f"3 \\| n and n >= 6, got n={n}"):
        campaigns.run_fracmatch_campaign(n, 2, 7)


@pytest.mark.parametrize("max_n", [2, -5])
def test_extremal_bound_refuses_max_n_below_three(max_n):
    with pytest.raises(InvalidArgumentError, match=f"3 <= max_n <= 22, got {max_n}"):
        campaigns.run_extremal_bound_campaign(max_n)


@pytest.mark.parametrize("exhaustive_n,trials,max_n,jobs", [
    (0, 3, 12, 1),  # empty exhaustive half
    (-1, 3, 12, 1),
    (8, 3, 12, 1),
    (7, 3, 1, 1),  # random half: max_n below 2
    (7, -1, 12, 1),  # random half: negative trials
    (7, 3, 12, 0),  # random half: no jobs
])
def test_erdos_gallai_campaign_checks_arguments_before_any_work(monkeypatch, exhaustive_n, trials,
                                                                max_n, jobs):
    def no_table(N):
        raise AssertionError("the exhaustive pass ran")

    monkeypatch.setattr(campaigns, "_matching_number_table", no_table)
    with pytest.raises(InvalidArgumentError):
        campaigns.run_erdos_gallai_campaign(exhaustive_n, trials, 7, max_n, jobs)
