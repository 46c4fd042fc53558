"""Steadiness report: run one code version N times and show the spread.

Usage (from the repository root)::

    python3 servbench/steady.py --runs 10 [--workload NAME ...]

Runs ``servbench/run.py`` (untraced) once per seed ``1..N`` for each
workload, then prints for every end-to-end metric of ``BENCHMARK.json``
the median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread ``(Q3 - Q1) / median`` and the verdict against the metric's bound:
``steady`` below a third of the bound, ``within`` below the bound, and
``NOISY`` otherwise.  Each run's result goes to stdout as it ends, one
JSON line per run.  Exits 0 only when every metric is steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics redefined or dropped because they did not repeat within a
#: tenth of their median on a 2-core box, and what replaced them.
REDEFINED = {
    "restart_s": "dropped: recovery is timed inside setup_s (median of 7 spawns "
                 "spread over the run) and broken out per layer as recover.ms",
    "ingest_call_p99_ms / query_p99_ms": "replaced by p90: in 8 s probes p99 ranged "
                                         "4.4-9.6 ms, p90 3.4-4.7 ms",
    "monitor_mixed latencies timed from when a call was due": "redefined as send to "
        "reply in a closed loop: the open loop's ingest p90 spread 0.43 of its median "
        "at 200 writes/s and ranged 4.2-98 ms at 400 writes/s over 10 runs",
    "server_peak_rss_mb at the end of the window": "redefined as the peak after a fixed "
        "number of window calls: a fan-in window holds 2 or 3 checkpoint intervals as "
        "host speed goes, and its server peaked at 170 or 197 MB (spread 0.136)",
    "ingest_call_p50_ms": "replaced by ingest_call_mean_ms: on one CPU a fan-in run sits "
        "for seconds at a time in one of two regimes (call p50 about 1.7 or 2.6 ms at the "
        "same throughput), so its p50 jumped between them and spread 0.252 over ten runs; "
        "the mean adds the regimes up in proportion, as the throughput does",
    "monitor_mixed query_p50_ms over half horizon, half query_many reads": "one read in "
        "four is now a horizon read: half and half, the p50 fell in the gap between the two "
        "kinds (about 2.6 and 6 ms) and spread 0.175 over ten runs",
    "every end-to-end time as measured": "redefined as scaled to the nominal host by the "
        "run's host factor (hostspeed.py), on one pinned CPU: as measured, ingest_fanin "
        "throughput spread 0.30-0.46 and monitor_mixed throughput 0.41-0.43 between "
        "two sets of ten runs of identical code",
}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "servbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    details = json.loads(lines[-2])["servbench"]
    return {"workload": workload, "seed": seed, **json.loads(lines[-1]), "details": details}


def report(rows, bench) -> bool:
    """Print the table; returns whether every metric is steady."""
    steady = True
    for workload in sorted({row["workload"] for row in rows}):
        runs = [row for row in rows if row["workload"] == workload]
        bad = sum(1 for row in runs if not row["correct"])
        print(f"\n{workload}: {len(runs)} runs, {bad} failed the gate")
        print(f"  {'metric':28s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [row["metrics"][name]["value"] for row in runs]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = metric["bound"]
            verdict = "steady" if spread < bound / 3 else "within" if spread < bound else "NOISY"
            if verdict != "steady":
                steady = False
            print(f"  {name:28s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:7.3f} {bound:6.2f}  {verdict}")
    print("\nRedefined or dropped metrics:")
    for name, why in REDEFINED.items():
        print(f"  {name}: {why}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    rows = []
    for workload in workloads:
        for seed in range(1, args.runs + 1):
            row = run_once(workload, seed, seconds)
            rows.append(row)
            print(json.dumps(row), flush=True)
    return 0 if report(rows, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
