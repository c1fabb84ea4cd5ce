"""Smoke test: the names the benchmark prints are exactly the ones BENCHMARK.json declares.

Runs every workload at tiny sizes, untraced and traced: the declared ones and
`detect`, which prints the same metrics. From the repository root:

    python -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_declared(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr

    printed = {}
    for key, metric in result["metrics"].items():
        workload, name = key.split(".", 1)
        printed.setdefault(workload, {})[name] = metric["unit"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(printed)
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload, names in printed.items():
        assert names == declared, workload
