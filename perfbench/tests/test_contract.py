"""BENCHMARK.json agrees with the code that produces the metrics."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import report, run

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_spec_keys_and_names():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in SPEC["end_to_end"]] \
        + [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])


def test_spec_metrics_match_the_reported_tables():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == report.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_spec_workloads_match_the_runner_and_their_records():
    names = [w["name"] for w in SPEC["workloads"]]
    assert tuple(names) == run.WORKLOADS
    records = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    assert list(records) == names
    for record in records.values():
        assert {"loop", "clients", "stresses", "bypasses"} <= set(record)
        # The why-sentence lives in BENCHMARK.json only.
        assert "why" not in record


def test_result_line_has_exactly_the_contract_keys():
    line = report.result_line(True, 3, 0, {"a": 1.5, "b": 2}, {"a": "ms", "b": "count"})
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"]["a"] == {"value": 1.5, "unit": "ms"}


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".state", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "frames-bonsai", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
