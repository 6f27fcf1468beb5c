"""Tests of the benchmark itself, on every workload at a tiny size.

Run with ``python -m pytest perfbench``; they take a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout_src()

import workloads  # noqa: E402  (needs the checkout's src on the path first)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _measure(name, tmp_path, trace=False, pins=None):
    return workloads.measure(name, seed=5, seconds=0, trace=trace, sizes=workloads.TINY,
                             pins=pins, out_dir=tmp_path)


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = workloads.summarize(_measure(name, tmp_path, trace=trace), trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    for m in table:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tampered_digest_counts_as_a_failed_cell(name, tmp_path):
    digests = _measure(name, tmp_path).digests
    cell = sorted(digests)[0]
    tampered = {**digests, cell: "0" * 64}
    measurement = _measure(name, tmp_path, pins=tampered)
    result = workloads.summarize(measurement, False)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert [c for c, _ in measurement.failures()] == [cell]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_runs_agree(name, tmp_path):
    import matchsim.protocols

    original = matchsim.protocols.run_algorithm
    untraced = _measure(name, tmp_path).digests
    measurement = _measure(name, tmp_path, trace=True)
    assert measurement.failures() == []
    assert measurement.digests == untraced
    assert [p.digests for p in measurement.traced] == [untraced]
    assert matchsim.protocols.run_algorithm is original  # the tracer restored it
    spans = json.loads((tmp_path / f"spans-{name}-seed5.json").read_text())["spans"]
    assert spans and all(s["end"] >= s["start"] and s["parent"] < i for i, s in enumerate(spans))


def test_simulated_counts_repeat_between_traced_runs(tmp_path):
    first = workloads.per_layer_metrics(_measure("sparse", tmp_path, trace=True))
    second = workloads.per_layer_metrics(_measure("sparse", tmp_path, trace=True))
    for name, unit in workloads.PER_LAYER.items():
        if unit == "count":
            assert first[name] == second[name], name
    assert first["engine.rounds_stepped"] + first["engine.rounds_skipped"] == first["engine.sim_rounds"]
    assert first["engine.messages"] > 0 and first["maximal.mm_invocations"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
