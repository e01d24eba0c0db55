"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0, m["name"]
    if not trace:
        named = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("  named ")}
        assert {"op_wall_ms", "setup_s", "peak_rss_mb", "error_rate"} <= named


def test_negative_controls_fire():
    done = bench("--negative-controls")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("negative control caught") == 2


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "cascade", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_prints_ratio_with_base(tmp_path):
    def result(op_ms):
        return {"results": [{"workload": "cascade", "metrics": {"op_ms": op_ms}, "named": {}}]}

    (tmp_path / "a.json").write_text(json.dumps(result(800.0)))
    (tmp_path / "b.json").write_text(json.dumps(result(400.0)))
    done = bench("--compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    assert done.returncode == 0, done.stderr
    row = next(line.split() for line in done.stdout.splitlines() if "op_ms" in line)
    assert row[:5] == ["cascade", "op_ms", "800", "400", "0.500"]
