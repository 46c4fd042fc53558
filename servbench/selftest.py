"""Tiny-size self-test of the benchmark itself.

Usage (from the repository root)::

    python3 servbench/selftest.py

For every workload in ``BENCHMARK.json`` it runs ``run.py`` untraced and
traced on small inputs with the correctness gate on, and checks that the
run passed the gate and reported exactly the metrics (names and units)
that ``BENCHMARK.json`` lists for that mode.  It then copies only
``BENCHMARK.json`` and the benchmark's own files into an empty directory
and checks that ``run.py`` refuses to produce a result there (no
``src/repro`` to measure).  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "servbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_result(proc, expected: dict) -> list:
    """Problems with one run's output (empty when it is well formed)."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        info = json.loads(proc.stdout.strip().splitlines()[-2])["servbench"]
        problems.append(f"gate failed: {info.get('gate_failures')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted = {result.get('attempted')!r}")
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        problems.append(f"metrics differ: missing {missing}, extra {extra}, units {units}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_result(run(ROOT, workload, trace), expected[trace])
            failures += bool(problems)
            print(f"{'PASS' if not problems else 'FAIL'} {workload} --trace {trace}"
                  + "".join(f"\n    {p}" for p in problems), flush=True)

    bare = ROOT / ".servbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "servbench", bare / "servbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:  # another run is using it
            pass
    failures += not refused
    print(f"{'PASS' if refused else 'FAIL'} refuses to run without src/repro "
          f"(exit {proc.returncode})")
    print("selftest:", "ok" if not failures else f"{failures} failed")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
