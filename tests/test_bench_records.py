"""Every line of every BENCH_<n>.json at the repo root is one benchmark run that
passed: its workloads and metric names are those BENCHMARK.json declares."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {workload["name"] for workload in DECLARED["workloads"]}
METRICS = {metric["name"]: metric["unit"] for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_every_recorded_run_is_correct_with_declared_names(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines, "no runs"
    for number, line in enumerate(lines, 1):
        run = json.loads(line)
        assert run and set(run) <= WORKLOADS, (number, sorted(run))
        for workload, result in run.items():
            where = (number, workload)
            assert result["correct"] is True and result["failed"] == 0, where
            assert result["attempted"] > 0, where
            assert result["metrics"] and set(result["metrics"]) <= set(METRICS), where
            for name, metric in result["metrics"].items():
                assert metric["unit"] == METRICS[name], (*where, name)
                assert isinstance(metric["value"], (int, float)), (*where, name)
