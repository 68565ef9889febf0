"""The committed benchmark trajectory: every BENCH_*.json at the repo root
parses and holds the parent and change lines of each workload it covers."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


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
