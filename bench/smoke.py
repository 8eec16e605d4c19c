"""Smoke test of the benchmark itself: every workload at minimal length.

    python3 bench/smoke.py            # or: python3 -m pytest bench/smoke.py

Runs each workload for one second untraced and traced, and asserts that the
last output line has exactly the agreed keys and every metric named in
BENCHMARK.json, with its unit.  Also checks that the benchmark refuses to
run, without printing a result, where the joinrings sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180,
                          check=False)


def check_workload(workload: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, workload, trace)
        assert proc.returncode == 0, f"{workload} trace {trace}: {proc.stderr[-2000:]}"
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True, (workload, trace)
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
        if workload != "calc-mix":  # only calc-mix sends inputs the CLI mishandles
            assert result["failed"] == 0, (workload, trace, result["failed"])
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected, sorted(set(got.items()) ^ set(expected.items()))
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), name
        printed = proc.stdout.splitlines()[:-1]  # human-readable lines come first
        for name, unit in expected.items():
            assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}")
                       for line in printed), name


def test_calc_mix():
    check_workload("calc-mix")


def test_join_units():
    check_workload("join-units")


def test_oracle_enum():
    check_workload("oracle-enum")


def test_wide_field():
    check_workload("wide-field")


def test_refuses_without_sources():
    """In a tree holding only BENCHMARK.json and the benchmark, it fails cleanly."""
    bare = BENCH / "results" / "bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = run_bench(bare, "calc-mix", 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}", flush=True)
