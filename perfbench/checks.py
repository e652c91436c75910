"""The listing benchmark's own checks, on the smoke size of every workload.

Run from the root of a checkout::

    python3 -m pytest perfbench/checks.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

cells, probes = run.import_library()[1:]

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, seed: int = 1) -> dict:
    return run.main([
        "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
        "--trace", str(trace), "--size", "smoke",
    ])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(cells.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    for workload in SPEC["workloads"]:
        assert workload["why"] and "\n" not in workload["why"]


@pytest.mark.parametrize("workload", list(cells.WORKLOADS))
def test_untraced_smoke_is_correct_and_in_bound(workload):
    report = smoke(workload, trace=0)
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    values = {name: metric["value"] for name, metric in report["metrics"].items()}
    assert set(values) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in values.values())
    assert values["round_bound_ratio"] <= 1


@pytest.mark.parametrize("workload", list(cells.WORKLOADS))
def test_traced_smoke_reports_every_layer_and_restores(workload):
    report = smoke(workload, trace=1)
    assert report["correct"], report
    values = {name: metric["value"] for name, metric in report["metrics"].items()}
    assert set(values) == set(run.PER_LAYER_UNITS)
    assert values["engine.executions"] >= 1 and values["listing.extract.calls"] >= 1
    assert values["listing.cliques"] >= 1
    assert probes.LayerProbe.restored()


def test_probe_restores_when_the_cell_raises():
    with pytest.raises(ZeroDivisionError):
        with probes.LayerProbe():
            assert not probes.LayerProbe.restored()
            1 / 0
    assert probes.LayerProbe.restored()


def test_same_seed_same_input_and_other_seed_same_cost():
    workload = cells.WORKLOADS["skewed-k3"]
    first, again, other = (workload.build("smoke", seed) for seed in (1, 1, 2))
    assert sorted(first.edges) == sorted(again.edges)
    assert sorted(first.nodes) != sorted(other.nodes)
    one, two = cells.run_cell(workload, first), cells.run_cell(workload, other)
    assert (one.measured_rounds, one.measured_words) == (two.measured_rounds, two.measured_words)
    assert sum(record.demands for record in one.executions) > 0  # partition-tree routing ran


def test_wrong_output_counts_as_a_failed_cell():
    workload = cells.WORKLOADS["dense-k4"]
    graph = workload.build("smoke", 1)
    truth = cells.ground_truth(graph, workload.p)
    runner = cells.CheckedRunner(workload, graph, truth - {min(truth)})
    sample = runner.sample()
    assert sample.error and "1 extra" in sample.error
    assert (runner.attempted, runner.failed) == (1, 1)


def test_raising_cell_is_counted_not_fatal():
    workload = cells.WORKLOADS["sparse-k3"]
    graph = workload.build("smoke", 1)
    runner = cells.CheckedRunner(workload, graph, cells.ground_truth(graph, workload.p))

    def broken():
        raise RuntimeError("protocol did not terminate")

    assert "RuntimeError" in runner.sample(broken).error
    assert runner.sample().error is None
    assert (runner.attempted, runner.failed) == (2, 1)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(
        run.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sparse-k3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
