"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

One pass of ``closed_form`` must print every end-to-end metric with its unit
and fail no op; a short traced run must print every per-layer metric that
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import TABLE_METRICS  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*extra: str) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "closed_form",
         "--seed", "1", *extra],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_closed_form_one_pass_prints_every_metric():
    lines, result = _run("--passes", "1")
    printed = {}
    for line in lines:
        fields = line.split()
        if len(fields) >= 3 and line.startswith("  ") and fields[0] in dict(TABLE_METRICS):
            printed[fields[0]] = (float(fields[1]), fields[2])
    for name, unit in TABLE_METRICS:
        assert name in printed, name
        assert printed[name][1] == unit, (name, printed[name])
    assert printed["fail_frac"][0] == 0.0
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 14
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_traced_run_reports_every_declared_layer_metric():
    _, result = _run("--passes", "2", "--trace", "1")
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["cli.calls"]["value"] == 14
