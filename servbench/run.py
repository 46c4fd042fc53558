"""Service benchmark: a durable quantile server in its own process.

Run from the repository root::

    python3 servbench/run.py --workload ingest_bulk --seed 1 --seconds 10 --trace 0

One run preloads a data dir with a throwaway server (then SIGKILLs it, so
the dir holds snapshots plus a WAL tail), spawns the server over a fresh
copy of that dir, drives it for ``--seconds`` and gates every output.
Set-up (crash recovery included) is timed on that spawn and on more
spawns over fresh copies, one between each two rounds of the window
(whose clock stops meanwhile) and one after it, so their median samples
the host over the whole run rather than one moment of it.
The last line of stdout is the JSON result; the line before it carries
run details (sample counts, native build, gate failures).

The whole run is pinned to one CPU, and a reference kernel is timed
between calls of the window and just before each spawn; end-to-end times
are scaled to a nominal host speed by its mean time
(``servbench/hostspeed.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
traced launcher and alternates untraced and traced rounds on that one
server (the wrappers are installed only in traced rounds), and reports
the per-layer metrics of the traced rounds and the tracer's overhead.
See ``servbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: ``setup_s`` is the median of 1 + (SETUP_ROUNDS - 1) + SETUPS_AFTER
#: spawns: the measured server, one spawn between each two rounds of the
#: window and a few after it, so they sample the host across the run.
SETUP_ROUNDS = 6
SETUPS_AFTER = 1
#: Reference-kernel samples taken just before each spawn (its host factor).
SPAWN_SAMPLES = 10
#: Rounds of a traced window (untraced and traced alternate).
TRACE_ROUNDS = 8
#: Values in the in-process engine baseline (chunked and one-shot).
STANDALONE_VALUES = 1 << 21
STANDALONE_CHUNK = 16384
#: Protocol functions the generator calls to encode requests.
ENCODERS = (
    "build_ingest_frames",
    "pack_seq_multi_ingest",
    "pack_seq_window_ingest",
    "pack_window_query",
    "pack_multi_query",
    "encode_frame",
)


def percentile_ms(samples, q: float) -> float:
    if not samples:
        return 0.0
    import numpy as np

    return float(np.percentile(np.asarray(samples), q)) * 1e3


def standalone_engine(seed: int) -> dict:
    """Single-threaded in-process ``FastReqSketch`` ingest (median of 3)."""
    import numpy as np
    from repro.fast import FastReqSketch
    from workloads import latency_values

    values = latency_values(np.random.default_rng([seed, 9]), STANDALONE_VALUES)
    rates = {"chunked": [], "oneshot": []}
    for _ in range(3):
        sketch = FastReqSketch(32, hra=True, seed=seed)
        started = time.perf_counter()
        for offset in range(0, values.size, STANDALONE_CHUNK):
            sketch.update_many(values[offset: offset + STANDALONE_CHUNK])
        sketch.flush()
        rates["chunked"].append(values.size / (time.perf_counter() - started) / 1e6)
        sketch = FastReqSketch(32, hra=True, seed=seed)
        started = time.perf_counter()
        sketch.update_many(values)
        rates["oneshot"].append(values.size / (time.perf_counter() - started) / 1e6)
    return {name: statistics.median(r) for name, r in rates.items()}


class Run:
    """One benchmark invocation: work dir, servers, ledger, results."""

    def __init__(self, args, workload) -> None:
        from gate import Ledger

        self.args = args
        self.workload = workload
        self.ledger = Ledger()
        self.work = ROOT / ".servbench_work" / f"{workload.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.servers = []
        self.spawned = 0
        self.info = {"workload": workload.name, "seed": args.seed}

    def close(self) -> None:
        for server in self.servers:
            server.kill()
        self.servers.clear()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def spawn(self, data_dir: Path, *, trace_out=None):
        from proc import ServerProcess

        self.spawned += 1
        server = ServerProcess(
            ROOT, data_dir, self.workload.serve_args,
            log_path=self.work / "server.log", trace_out=trace_out,
        )
        self.servers.append(server)
        return server

    def stop(self, server) -> None:
        server.kill()
        self.servers.remove(server)
        if server.data_dir != self.work / "preload":
            shutil.rmtree(server.data_dir)

    def fresh_copy(self) -> Path:
        target = self.work / f"data{self.spawned}"
        shutil.copytree(self.work / "preload", target)
        return target

    # -- phases ---------------------------------------------------------

    def preload(self) -> None:
        """Write the preload with a throwaway server, then crash it."""
        data = self.work / "preload"
        server = self.spawn(data)
        with self.workload.client(server.port) as client:
            self.workload.preload(client, self.ledger)
            self.answers = self.workload.probe(client)
        self.stop(server)
        self.saved = self.workload.save_state()

    def recovered_server(self, *, trace_out=None):
        """Spawn over a fresh copy of the preload and gate the recovery
        against the preload's record (the generator's own is kept)."""
        current = self.workload.save_state()
        self.workload.restore_state(self.saved)
        try:
            server = self.spawn(self.fresh_copy(), trace_out=trace_out)
            with self.workload.client(server.port) as client:
                self.ledger.check(
                    self.workload.probe(client) == self.answers,
                    "answers after crash recovery differ from before the crash",
                )
                self.workload.check_counts(client, self.ledger)
        finally:
            self.workload.restore_state(current)
        return server

    def final_gate(self, server) -> dict:
        with self.workload.client(server.port) as client:
            self.workload.check_counts(client, self.ledger)
            return self.workload.accuracy(client, self.ledger)

    # -- modes ----------------------------------------------------------

    def end_to_end(self) -> dict:
        from hostspeed import HostSpeed

        #: (seconds to READY, host factor just before the spawn) per spawn.
        setups = []
        speed = HostSpeed()

        def timed_setup():
            before = HostSpeed()
            for _ in range(SPAWN_SAMPLES):
                before.sample()
            server = self.recovered_server()
            setups.append((server.setup_s, before.factor))
            return server

        def between_rounds(turn: int) -> None:
            if turn:
                self.stop(timed_setup())

        server = timed_setup()
        [stats] = self.workload.measure(
            server.port, self.args.seconds, self.ledger, server.cpu_seconds,
            server.peak_rss_mb, rounds=SETUP_ROUNDS, on_round=between_rounds, speed=speed)
        self.final_gate(server)
        self.stop(server)
        for _ in range(SETUPS_AFTER):
            self.stop(timed_setup())
        ledger = self.ledger
        window = {
            "ingest_values_per_s": (stats.values / stats.elapsed, "values/s"),
            "ingest_call_mean_ms": (statistics.fmean(stats.ingest_lat) * 1e3, "ms"),
            "ingest_call_p90_ms": (percentile_ms(stats.ingest_lat, 90), "ms"),
            "query_p50_ms": (percentile_ms(stats.query_lat, 50), "ms"),
            "query_p90_ms": (percentile_ms(stats.query_lat, 90), "ms"),
            "server_cpu_s_per_mvalue": (stats.server_cpu / mvalues(stats), "s/Mvalue"),
        }
        # On the nominal host: each spawn is divided by the host factor
        # taken just before it; a window time is divided by the window's
        # host factor, and a rate multiplied by it.
        factor = speed.factor
        metrics = {"setup_s": (statistics.median(s / f for s, f in setups), "s")}
        for name, (value, unit) in window.items():
            metrics[name] = (value * factor if unit == "values/s" else value / factor, unit)
        metrics["server_peak_rss_mb"] = (stats.peak_rss_mb, "MB")
        metrics["ok_ops_ratio"] = (
            (ledger.attempted - ledger.failed) / max(ledger.attempted, 1), "ratio")
        as_measured = {name: value for name, (value, _) in window.items()}
        as_measured["setup_s"] = statistics.median(s for s, _ in setups)
        self.info.update(
            setups_s=[s for s, _ in setups], spawn_host_factors=[f for _, f in setups],
            window=describe(stats), host_factor=factor, reference_samples=len(speed.samples),
            as_measured=as_measured,
        )
        return metrics

    def per_layer(self) -> dict:
        from tracing import Tracer

        engine = standalone_engine(self.args.seed)
        trace_path = self.work / "trace.json"
        server = self.recovered_server(trace_out=trace_path)
        tracer = Tracer()
        install_client_tracing(tracer)

        def end_round() -> None:
            if tracer.active:
                server.signal(signal.SIGUSR2)
                tracer.pause()

        def on_round(turn: int) -> None:
            end_round()
            if turn % 2:
                server.signal(signal.SIGUSR1)
                tracer.resume()

        plain, stats = self.workload.measure(
            server.port, self.args.seconds, self.ledger, server.cpu_seconds,
            server.peak_rss_mb, rounds=TRACE_ROUNDS, phases=2, on_round=on_round)
        end_round()
        trace = read_trace(trace_path, tracer.rounds)
        accuracy = self.final_gate(server)
        gen = tracer.dump()
        self.info.update(window=describe(stats), untraced_window=describe(plain),
                         server_native_stagebuf=trace["native_stagebuf"])
        per_mvalue = 1e3 / mvalues(stats)
        layers = trace["layers"]
        samples = trace["samples"]
        counters = trace["counters"]

        def self_ms(*names) -> float:
            return sum(layers.get(n, {}).get("self_s", 0.0) for n in names) * per_mvalue

        def p50(name) -> float:
            return percentile_ms(samples.get(name, []), 50)

        overhead = (plain.values / plain.elapsed) / (stats.values / stats.elapsed) - 1.0
        commits = max(trace["wal_commits"], 1)
        lookups = trace["index_hits"] + trace["index_rebuilds"]
        buckets = samples.get("windowed.buckets", [])
        gen_encode = gen["layers"].get("client.encode", {}).get("self_s", 0.0)
        return {
            "client.encode_ms_per_mvalue": (gen_encode * per_mvalue, "ms/Mvalue"),
            "gen.cpu_share": (stats.gen_cpu / stats.elapsed, "ratio"),
            "gen.lateness_p90_ms": (percentile_ms(stats.lateness, 90), "ms"),
            "client.retries": (gen["counters"].get("client.retries", 0), "count"),
            "protocol.decode_ms_per_mvalue": (self_ms("protocol.decode"), "ms/Mvalue"),
            "server.dispatch_self_ms_per_mvalue": (
                self_ms("server.tick", "server.ack_flush", "server.dispatch"), "ms/Mvalue"),
            "server.frames_per_tick": (
                counters.get("server.frames", 0) / max(counters.get("server.ticks", 0), 1),
                "frames"),
            "server.loop_busy_share": (
                trace["roots"].get("MainThread", 0.0) / trace["window_s"], "ratio"),
            "server.shed_frames": (trace["shed_frames"], "count"),
            "session.admit_ms_per_mvalue": (self_ms("session.admit"), "ms/Mvalue"),
            "wal.append_ms_per_mvalue": (self_ms("wal.append"), "ms/Mvalue"),
            "wal.commit_wait_p50_ms": (p50("wal.commit_wait"), "ms"),
            "wal.commit_wait_p90_ms": (
                percentile_ms(samples.get("wal.commit_wait", []), 90), "ms"),
            "wal.records_per_commit": (trace["wal_records"] / commits, "records"),
            "wal.bytes_per_value": (
                counters.get("wal.bytes", 0) / max(stats.values, 1), "bytes"),
            "snapshot.checkpoint_ms_p50": (p50("snapshot.checkpoint"), "ms"),
            "recover.ms": (trace["recover_s"] * 1e3, "ms"),
            "store.ingest_self_ms_per_mvalue": (self_ms("store.ingest"), "ms/Mvalue"),
            "store.query_batch_ms_p50": (p50("store.query_batch"), "ms"),
            "engine.update_many_ms_per_mvalue": (self_ms("engine.update_many"), "ms/Mvalue"),
            "engine.compress_ms_per_mvalue": (self_ms("engine.compress"), "ms/Mvalue"),
            "engine.compactions_per_mvalue": (
                counters.get("engine.compactions", 0) / mvalues(stats), "count/Mvalue"),
            "engine.retained_items_per_key": (trace["retained_items_per_key"], "items"),
            "query.index_rebuild_ratio": (trace["index_rebuilds"] / max(lookups, 1), "ratio"),
            "windowed.ingest_ms_per_mvalue": (self_ms("windowed.ingest"), "ms/Mvalue"),
            "windowed.horizon_ms_p50": (p50("windowed.horizon"), "ms"),
            "windowed.buckets_per_horizon": (
                sum(buckets) / len(buckets) if buckets else 0.0, "buckets"),
            "engine.standalone_chunked_mvalues_per_s": (engine["chunked"], "Mvalues/s"),
            "engine.standalone_oneshot_mvalues_per_s": (engine["oneshot"], "Mvalues/s"),
            "accuracy.p99_error_over_bound": (accuracy[0.99], "ratio"),
            "accuracy.p999_error_over_bound": (accuracy[0.999], "ratio"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }


def mvalues(stats) -> float:
    return max(stats.values, 1) / 1e6


def describe(stats) -> dict:
    """Sample counts and totals of a window (the run-details line)."""
    return {
        "seconds": round(stats.elapsed, 3), "acked_values": stats.values,
        "checkpoints": stats.checkpoints, "ingest_calls": len(stats.ingest_lat),
        "queries": len(stats.query_lat), "server_cpu_s": round(stats.server_cpu, 3),
        "rss_read_at_call": stats.rss_read_at,
    }


def install_client_tracing(tracer) -> None:
    """Spans around the generator's request encoding; count retries."""
    from repro.service import protocol, resilience

    for name in ENCODERS:
        tracer.wrap(protocol, name, "client.encode")
    tracer.wrap_counter(resilience.RetryState, "spend", "client.retries")


def read_trace(path: Path, rounds: int, timeout: float = 60.0) -> dict:
    """The traced server's dump once it covers ``rounds`` traced rounds."""
    deadline = time.monotonic() + timeout
    while True:
        if path.exists():
            trace = json.loads(path.read_text())
            if trace["rounds"] == rounds:
                return trace
        if time.monotonic() > deadline:
            raise RuntimeError(f"traced server wrote no trace of {rounds} rounds")
        time.sleep(0.01)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs (self-test only; not comparable)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servbench: no src/repro under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from hostspeed import pin_to_one_cpu

    cpu = pin_to_one_cpu()
    # Build (or load) the native stage buffer before anything is timed.
    from repro.fast import _native

    native = _native.load_stage_buffer() is not None
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"servbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(args, WORKLOADS[args.workload](args.seed, args.tiny))
    run.info["native_stagebuf"] = native
    run.info["pinned_cpu"] = cpu
    try:
        run.preload()
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        run.close()
    ledger = run.ledger
    run.info["gate_failures"] = ledger.failures
    print(json.dumps({"servbench": run.info}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
