"""Tests for tools/bench_pairs.py's summary of paired benchmark runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "op_vs_ref", "unit": "ratio", "better": "lower", "bound": 0.2},
           {"name": "hits", "unit": "count", "better": "higher", "bound": 0.1}]


def run(pair: int, side: str, op_vs_ref: float, hits: float, correct: bool = True) -> dict:
    return {"pair": pair, "side": side, "correct": correct, "attempted": 10,
            "failed": 0 if correct else 1,
            "metrics": {"op_vs_ref": op_vs_ref, "hits": hits} if correct else {}}


def test_summary_counts_pairs_by_each_metric_direction():
    runs = [run(0, "base", 1.0, 5), run(0, "change", 0.9, 5),
            run(1, "change", 0.8, 7), run(1, "base", 1.0, 6),
            run(2, "base", 1.2, 6), run(2, "change", 1.3, 5),
            run(3, "base", 1.0, 6), run(3, "change", 0.5, 9, correct=False)]
    summary = bench_pairs.summarize(runs, METRICS)
    assert summary["attempted"] == {"base": 40, "change": 40}
    assert summary["failed"] == {"base": 0, "change": 1}
    assert summary["failed_runs"] == {"base": 0, "change": 1}
    op = summary["metrics"]["op_vs_ref"]
    assert op["base"]["values"] == [1.0, 1.0, 1.2, 1.0]
    assert op["change"]["values"] == [0.9, 0.8, 1.3]  # the failed run gives no value
    assert (op["base"]["median"], op["base"]["q1"], op["base"]["q3"]) == (1.0, 1.0, 1.05)
    assert op["median_change"] == pytest.approx(-0.1)
    assert op["within_bound"] is True
    assert (op["pairs_change_better"], op["pairs_change_worse"], op["pairs_same"]) == (2, 1, 0)
    hits = summary["metrics"]["hits"]
    assert (hits["pairs_change_better"], hits["pairs_change_worse"], hits["pairs_same"]) \
        == (1, 1, 1)
    assert hits["median_change"] == pytest.approx(-1 / 6)
    assert hits["within_bound"] is False  # fewer hits by more than 10 %
