"""Every committed BENCH_*.json holds the last output lines of benchmark
runs on a parent commit and on a change: the file parses, every run was
correct, and every metric is an end-to-end metric of a declared workload."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_files_hold_correct_runs_of_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        f"{w['name']}/{m['name']}" for w in spec["workloads"] for m in spec["end_to_end"]
    }
    for path in sorted(ROOT.glob("BENCH_*.json")):
        bench = json.loads(path.read_text(encoding="utf-8"))
        runs = bench["parent"] + bench["change"]
        assert runs, path.name
        for run in runs:
            assert run["correct"] is True, path.name
            assert sorted(set(run["metrics"]) - declared) == [], path.name
