"""The benchmark records at the repository root, ``BENCH_*.json``: each
parses and names its change, its parent commit and its host, and gives
every workload's parent and change medians."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_the_root_holds_benchmark_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_names_its_change_and_gives_medians(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for key in ("change", "parent_commit"):
        assert isinstance(record[key], str) and record[key].strip(), key
    assert isinstance(record["host"], dict) and record["host"]
    workloads = record["perfbench"]["workloads"]
    assert workloads
    for name, workload in workloads.items():
        # Every entry but the pair count and the failure counts is a metric.
        metrics = {key: value for key, value in workload.items()
                   if key not in ("pairs", "failed")}
        assert metrics, name
        for metric, values in metrics.items():
            for side in ("parent_median", "change_median"):
                value = values[side]
                assert type(value) in (int, float) and math.isfinite(value), (name, metric, side)
