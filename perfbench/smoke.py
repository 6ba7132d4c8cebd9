"""Smoke check of the benchmark: every workload for one round.

    python3 perfbench/smoke.py

Runs ``run.py`` on each workload of ``BENCHMARK.json`` with one round
per run, untraced and traced, and asserts that every run passes its
checks and that every metric the file names prints with its unit, both
on a line of its own and in the closing JSON object. Then it copies
only ``BENCHMARK.json`` and the benchmark's directory into a scratch
directory and asserts that the benchmark fails there without printing
a result. Takes about a minute.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, ROOT, WORK, WORKLOADS
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace), "--rounds", "1",
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workloads differ from run.py"
    named = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    assert named[0] == list(END_TO_END), "end_to_end differs from run.py"
    assert named[1] == list(PER_LAYER), "per_layer differs from tracing.py"

    for workload in WORKLOADS:
        for trace, metrics in named.items():
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace {trace}:\n{proc.stdout}\n{proc.stderr}"
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            assert list(result["metrics"]) == [name for name, _ in metrics], result["metrics"]
            for name, unit in metrics:
                assert result["metrics"][name]["unit"] == unit, (name, result["metrics"][name])
                assert any(
                    line.startswith(f"{name} ") and line.split()[2] == unit for line in lines[:-1]
                ), f"{workload}: no line prints {name} in {unit}"
            print(f"ok {workload} trace {trace}: {len(metrics)} metrics")

    bare = WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, next(iter(WORKLOADS)), 0)
        assert proc.returncode != 0 and not proc.stdout.strip().endswith("}"), proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok: fails without the program's sources")


if __name__ == "__main__":
    main()
