"""Self-test of the benchmark: every workload on a few-hundred-instance corpus.

    python3 -m pytest bench/test_smoke.py -q

Each run goes through the same set-up, output checks and result format as a
full run, in a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "93", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_its_checks(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_trace_fails_when_a_wrapped_name_is_gone():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    try:
        import biascal.cli as cli
        import tracing
    finally:
        del sys.path[:2]
    tracing.check_names(cli)
    stripped = types.SimpleNamespace(**{k: v for k, v in vars(cli).items() if k != "solve"})
    with pytest.raises(tracing.TraceError, match="solve"):
        tracing.check_names(stripped)


def test_exits_nonzero_without_the_program():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "--workload", SPEC["workloads"][0]["name"], "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
