"""Result lines carry exactly the names and units of BENCHMARK.json, and the
recorded expectations cover every workload and per-layer metric."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e2ebench import metrics

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECT = json.loads((ROOT / "e2ebench" / "expectations.json").read_text())


def _names(entries):
    return [(e["name"], e["unit"], e["better"]) for e in entries]


def test_metric_spec_matches_benchmark_json():
    assert _names(BENCH["end_to_end"]) == list(metrics.END_TO_END)
    assert _names(BENCH["per_layer"]) == metrics.per_layer_spec()
    assert [w["name"] for w in BENCH["workloads"]] == ["train", "sweep", "serve"]
    setup = [e for e in BENCH["end_to_end"] if e["name"] == "setup_s"][0]
    assert setup["bound"] == max(e["bound"] for e in BENCH["end_to_end"])


def test_expectations_cover_every_workload_and_per_layer_metric():
    workloads = {w["name"] for w in BENCH["workloads"]}
    assert set(EXPECT["workloads"]) == workloads
    for entry in EXPECT["workloads"].values():
        assert entry["loads"] and entry["bypasses"] and entry["why"]
    e2e = {e["name"] for e in BENCH["end_to_end"]}
    assert list(EXPECT["per_layer"]) == [e["name"] for e in BENCH["per_layer"]]
    for name, entry in EXPECT["per_layer"].items():
        for move in entry["moves"]:
            workload, metric = move.split(":")
            assert workload in workloads and metric in e2e, (name, move)


def test_result_line_units_come_from_the_spec():
    values = {name: 1.5 for name, _, _ in metrics.END_TO_END}
    line = metrics.result_line(True, 3, 0, values)
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        name: unit for name, unit, _ in metrics.END_TO_END
    }


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, spec", [("0", "end_to_end"), ("1", "per_layer")])
def test_a_short_run_prints_exactly_the_spec(trace, spec):
    # long enough for both models to clear the accuracy floor
    out = _run(ROOT, "--workload", "train", "--seed", "3", "--seconds", "8",
               "--trace", trace)
    assert out.returncode == 0, out.stderr[-2000:]
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == [
        (e["name"], e["unit"]) for e in BENCH[spec]
    ]
    if trace == "1":
        m = {k: v["value"] for k, v in line["metrics"].items()}
        for k in metrics.SLOTS:
            rows = sum(m[f"{k}.{row}_ms"] for row in metrics.ROWS)
            assert rows + m[f"{k}.unattributed_ms"] == pytest.approx(m[f"{k}.op_ms"])


def test_refuses_an_armed_fault_profile(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_PROFILE", "chaos")
    out = _run(ROOT, "--workload", "train", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0 and not out.stdout.strip()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "train", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0 and not out.stdout.strip()
