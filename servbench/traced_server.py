"""Launch ``repro.cli serve`` with a span around each layer's entry points.

Usage (from the repository root)::

    python servbench/traced_server.py TRACE_OUT.json serve --port 0 ...

Everything after the trace path is handed to ``repro.cli.main`` unchanged,
so the traced server is the production server with wrappers installed on
the public entry points of each module (``src/`` is not modified).  The
server process is controlled with two signals:

* ``SIGUSR1`` starts a traced round: the wrappers are installed and
  counter baselines are taken.
* ``SIGUSR2`` ends it: the original code is put back, and everything the
  traced rounds so far recorded (spans, counters, the start-up recovery
  time, the number of rounds) is written to ``TRACE_OUT.json``
  (atomically, via a temporary file and a rename).

Between rounds the server runs its own code, unwrapped, so one process
can serve traced and untraced rounds alternately.  Both handlers run as
event-loop callbacks, never in the middle of a span on the loop thread.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "servbench"))

from tracing import Tracer, perf_counter  # noqa: E402

#: Server-side decode entry points of ``repro.service.protocol``.
DECODERS = (
    "unpack_key",
    "unpack_values",
    "unpack_seq",
    "unpack_multi_ingest",
    "unpack_window_ingest",
    "unpack_window_query",
    "unpack_multi_query",
    "try_uniform_multi_query",
    "unpack_hello",
)


class ServerTrace:
    """The wrappers, the round baselines and the dump for one server."""

    def __init__(self, out_path: str) -> None:
        self.out_path = out_path
        self.tracer = Tracer()
        self.service = None
        self.server = None
        self.recover_s = None
        self._base = None
        #: Counter totals over the traced rounds that have ended.
        self.totals = {"wal_commits": 0, "wal_records": 0, "index_hits": 0,
                       "index_rebuilds": 0, "shed_frames": 0}

    def install(self) -> None:
        """Register the round wrappers; patch start-up (always traced)."""
        from repro.fast import engine
        from repro.service import persistence, protocol, resilience, server, store
        from repro.windowed import ring, store as wstore

        t = self.tracer
        for name in DECODERS:
            t.wrap(protocol, name, "protocol.decode")

        conn = server._Connection
        t.wrap(conn, "buffer_updated", "server.tick")
        t.wrap(conn, "_flush_outq", "server.ack_flush")
        process_frames = server.QuantileServer._process_frames

        def counted_process(srv, frames, conn_):
            t.count("server.frames", len(frames))
            t.count("server.ticks")
            return t.call("server.dispatch", process_frames, (srv, frames, conn_), {})

        t.patch(server.QuantileServer, "_process_frames", counted_process)
        t.wrap(server.QuantileServer, "_dispatch", "server.dispatch")
        multi_query = server.QuantileServer._multi_query

        def traced_multi_query(srv, body):
            before = t.outer_total("store.query")
            try:
                return t.call("server.dispatch", multi_query, (srv, body), {})
            finally:
                t.sample("store.query_batch", t.outer_total("store.query") - before)

        t.patch(server.QuantileServer, "_multi_query", traced_multi_query)

        t.wrap(resilience.SessionTable, "admit", "session.admit")

        group_append = persistence.GroupCommitWal.append

        def traced_append(wal, op, seq, key, payload):
            queued = perf_counter()
            ticket = t.call("wal.append", group_append, (wal, op, seq, key, payload), {})
            ticket.add_done_callback(
                lambda _f: t.sample("wal.commit_wait", perf_counter() - queued)
            )
            return ticket

        t.patch(persistence.GroupCommitWal, "append", traced_append)
        inner_append = persistence.WriteAheadLog.append

        def traced_write(wal, op, seq, key, payload, *, flush=True):
            # Record framing: <II> head + <BQH> body head + key + payload.
            t.count("wal.bytes", 19 + len(key.encode("utf-8")) + len(payload))
            return t.call("wal.write", inner_append, (wal, op, seq, key, payload),
                          {"flush": flush})

        t.patch(persistence.WriteAheadLog, "append", traced_write)
        t.wrap(server.QuantileService, "snapshot_all", "snapshot.checkpoint", sample=True)

        service_init = server.QuantileService.__init__

        def traced_init(svc, *args, **kwargs):
            started = perf_counter()
            service_init(svc, *args, **kwargs)
            self.recover_s = perf_counter() - started
            self.service = svc

        server.QuantileService.__init__ = traced_init

        t.wrap(store.SketchStore, "update_many", "store.ingest")
        for name in ("get", "query", "query_batch", "evaluate"):
            t.wrap(store.SketchStore, name, "store.query")

        sketch = engine.FastReqSketch
        t.wrap(sketch, "update_many", "engine.update_many")
        t.wrap(sketch, "_compress", "engine.compress")
        t.wrap_counter(sketch, "_compact_level", "engine.compactions")
        t.wrap(sketch, "query_index", "engine.query_index")
        merge_many = sketch.merge_many

        def traced_merge_many(target, sketches):
            sources = list(sketches)
            if t.current() == "windowed.horizon":
                t.sample("windowed.buckets", len(sources))
            return t.call("engine.merge_many", merge_many, (target, sources), {})

        t.patch(sketch, "merge_many", traced_merge_many)

        t.wrap(wstore.WindowStore, "ingest", "windowed.ingest")
        t.wrap(ring.WindowRing, "horizon", "windowed.horizon", sample=True)

        start = server.QuantileServer.start

        async def traced_start(srv):
            await start(srv)
            self.server = srv
            loop = srv._loop
            loop.add_signal_handler(signal.SIGUSR1, self.begin_round)
            loop.add_signal_handler(signal.SIGUSR2, self.end_round)

        server.QuantileServer.start = traced_start

    # -- traced rounds ----------------------------------------------------

    def _counts(self) -> dict:
        wal = self.service.wal  # a GroupCommitWal: serve runs with a data dir
        index = self.service.store.query_index_stats()
        return {"wal_commits": wal.commit_count, "wal_records": wal.committed_records,
                "index_hits": index["hits"], "index_rebuilds": index["rebuilds"],
                "shed_frames": self.server.shed_count}

    def begin_round(self) -> None:
        self._base = self._counts()
        self.tracer.resume()

    def end_round(self) -> None:
        self.tracer.pause()
        for name, value in self._counts().items():
            self.totals[name] += value - self._base[name]
        data = self.tracer.dump()
        store = self.service.store
        retained = [store.peek(key).num_retained for key in store.resident_keys]
        from repro.fast import engine

        data.update(
            self.totals,
            recover_s=self.recover_s,
            native_stagebuf=engine._NativeStageBuffer is not None,
            retained_items_per_key=sum(retained) / len(retained) if retained else 0.0,
        )
        tmp = f"{self.out_path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(data, handle)
        os.replace(tmp, self.out_path)


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: traced_server.py TRACE_OUT.json serve [serve options]", file=sys.stderr)
        return 2
    trace = ServerTrace(argv[0])
    trace.install()
    from repro.cli import main as cli_main

    return cli_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
