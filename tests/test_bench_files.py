"""The committed benchmark trajectory: every BENCH_*.json at the repo root
parses, holds the parent and change lines of each workload it covers, and
any claimed gain recounts from its own runs."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
CLAIMS = [p for p in BENCH_FILES if "claim" in json.loads(p.read_text())]


def test_trajectory_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_schema(path):
    data = json.loads(path.read_text())
    for key in ("pr", "parent", "command", "environment", "trace0"):
        assert key in data, f"{path.name} has no {key!r}"
    assert {"interpreter", "nproc", "backend"} <= data["environment"].keys()
    assert data["trace0"], f"{path.name} records no workload"
    for workload, sides in data["trace0"].items():
        for side in ("parent", "change"):
            line = sides[side]
            missing = {"correct", "failed", "metrics"} - line.keys()
            assert not missing, f"{path.name}: {workload} {side} line lacks {sorted(missing)}"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_pr_matches_its_name(path):
    assert json.loads(path.read_text())["pr"] == int(path.stem.removeprefix("BENCH_"))


@pytest.mark.parametrize("path", CLAIMS, ids=lambda p: p.name)
def test_claim_recounts_from_its_runs(path):
    claim = json.loads(path.read_text())["claim"]
    parent, change = claim["parent_runs"], claim["change_runs"]
    assert len(parent) == len(change) == claim["pairs"]
    assert claim["change_wins"] == sum(c > p for p, c in zip(parent, change))
    assert claim["parent_median"] == statistics.median(parent)
    assert claim["change_median"] == statistics.median(change)
