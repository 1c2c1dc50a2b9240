"""BENCHMARK.json declares exactly the workloads and metrics run.py emits."""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def _spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_workloads_and_why_match():
    spec = _spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }


def test_metric_names_and_units_match():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_names()


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(10) == 50
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(200) == 95
    for n in (25, 50, 120, 1000):
        q = run.tail_percentile(n)
        assert n * (100 - q) / 100 >= 10
        assert n * (100 - (q + 1)) / 100 < 10
