"""The three traffic mixes, their seeded inputs and their gate checks.

Every input is a pure function of the seed: value pools are drawn once
from ``numpy.random.default_rng(seed)`` and each call takes a fixed
block or slice of them, so the generator can recompute exact ranks for
the accuracy gate without storing the stream.  Values are latencies in
milliseconds: a log-normal body with a heavier log-normal tail, the
shape whose p99/p99.9 the paper's relative-error guarantee is built for.

All three are closed loops on one exactly-once connection: each call
waits for its reply, every 8th call is followed by a read, and a
checkpoint runs after a fixed number of calls.  A call's inputs are
prepared before it is sent and recorded after its reply, so the latency
of a call holds only the client library and the server.
"""

from __future__ import annotations

import math
import resource
import time
from typing import Dict, List, NamedTuple

import numpy as np

from gate import TAIL_FRACTIONS, ExactInputs, Ledger, answers_key, error_over_bound
from hostspeed import SAMPLE_EVERY_S
from repro.errors import ReproError
from repro.service import QuantileClient, RetryPolicy

#: Quantiles every read asks for.
READ_FRACTIONS = [0.5, 0.9, 0.99, 0.999]
#: Every n-th ingest call of a closed loop is followed by a read.
READ_EVERY = 8
#: Keys per ``query_many`` read.
READ_KEYS = 8


def latency_values(rng: np.random.Generator, size: int) -> np.ndarray:
    """Latency-shaped float64 values: 95% log-normal body, 5% slow tail."""
    body = rng.lognormal(mean=math.log(5.0), sigma=0.5, size=size)
    tail = rng.lognormal(mean=math.log(50.0), sigma=1.0, size=size)
    return np.where(rng.random(size) < 0.05, tail, body)


def read_many(client: QuantileClient, requests) -> list:
    """``query_many``, raising the first per-request error it answered."""
    results = client.query_many(requests)
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def generator_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Call(NamedTuple):
    """One prepared ingest call: the client method and its arguments, and
    the ``(key, values, timestamps)`` parts to record once it is acked."""

    method: str
    args: tuple
    parts: list


class WindowStats:
    """Samples and totals of one measured window (times in seconds)."""

    def __init__(self) -> None:
        self.ingest_lat: List[float] = []
        self.query_lat: List[float] = []
        #: Generator time from each reply to the next request it sends.
        self.lateness: List[float] = []
        self.values = 0
        self.checkpoints = 0
        self.elapsed = 0.0
        self.server_cpu = 0.0
        self.gen_cpu = 0.0
        #: Server peak RSS (MB) read after ``rss_calls`` window calls, and
        #: the call count it was read at.
        self.peak_rss_mb = 0.0
        self.rss_read_at = 0


class Workload:
    """Base: seeded inputs, a preload, the closed loop and the gate.

    One exactly-once connection, one call at a time, a read after every
    8th call and a checkpoint every ``checkpoint_calls`` calls.
    """

    name = ""
    #: Extra ``serve`` flags for this workload.
    serve_args: List[str] = []

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs = ExactInputs(self.sampled_keys())

    # -- hooks ---------------------------------------------------------

    def sampled_keys(self) -> List[str]:
        raise NotImplementedError

    def all_keys(self) -> List[str]:
        raise NotImplementedError

    def plain_sampled(self) -> List[str]:
        return [key for key in self.sampled_keys() if not key.startswith("win-")]

    def probe(self, client: QuantileClient) -> list:
        """Fingerprints of the sampled answers (recovery must repeat them)."""
        results = read_many(client, [(key, READ_FRACTIONS) for key in self.plain_sampled()])
        return [answers_key(result) for result in results]

    def save_state(self) -> tuple:
        """The generator's record of what the server holds (after preload)."""
        return self.inputs.save(), self.last_tick

    def restore_state(self, saved: tuple) -> None:
        self.inputs.restore(saved[0])
        self.last_tick = saved[1]

    # -- shared pieces -------------------------------------------------

    def client(self, port: int) -> QuantileClient:
        retry = RetryPolicy(timeout=60.0, retries=5, seed=self.seed)
        client = QuantileClient("127.0.0.1", port, retry=retry)
        if not client.exactly_once:
            client.close()
            raise ReproError("server refused the exactly-once session")
        return client

    def server_counts(self, client: QuantileClient) -> Dict[str, int]:
        results = read_many(client, [(key, [0.5]) for key in self.all_keys()])
        return {key: int(r.n) for key, r in zip(self.all_keys(), results)}

    def check_counts(self, client: QuantileClient, ledger: Ledger) -> None:
        """Exactly-once: each key's server ``n`` equals the values acked."""
        counts = self.server_counts(client)
        wrong = [k for k in self.all_keys() if counts[k] != self.inputs.acked.get(k, 0)]
        ledger.check(not wrong, f"n != acked values on {len(wrong)} keys, e.g. {wrong[:3]}")

    def accuracy(self, client: QuantileClient, ledger: Ledger) -> Dict[float, float]:
        """Max error-over-bound per tail fraction across the sampled keys."""
        worst = {q: 0.0 for q in TAIL_FRACTIONS}
        keys = self.plain_sampled()
        for key, result in zip(keys, read_many(client, [(k, list(TAIL_FRACTIONS)) for k in keys])):
            for q, answer in zip(TAIL_FRACTIONS, result.values):
                window = self.inputs.rank_window(key, float(answer))
                self._score(ledger, worst, key, q, answer, result, window)
        return worst

    @staticmethod
    def _score(ledger, worst, key, q, answer, result, window) -> None:
        ratio = error_over_bound(q, float(answer), float(result.error_bound), window)
        ledger.check(
            ratio <= 1.0 and window[2] == result.n,
            f"{key} q={q}: error/bound {ratio:.3f}, exact n {window[2]} vs {result.n}",
        )
        worst[q] = max(worst[q], ratio)

    def _send(self, stats) -> float:
        """The time a request is sent; samples the generator's lateness."""
        now = time.perf_counter()
        if stats is not None:
            stats.lateness.append(now - self._replied)
        return now

    def _checkpoint(self, client: QuantileClient, ledger: Ledger, stats) -> None:
        self._send(stats)
        try:
            client.snapshot()
        except ReproError as exc:
            ledger.fail(f"snapshot: {exc}")
        else:
            ledger.ok()
            if stats is not None:
                stats.checkpoints += 1
        self._replied = time.perf_counter()

    # -- the closed loop -----------------------------------------------

    #: Unmeasured calls before the window opens.
    warmup_calls = 16
    #: Calls between checkpoints.  The call sequence is fixed, so this is
    #: also a fixed count of acknowledged values.
    checkpoint_calls = 0
    #: Window calls after which the server's peak RSS is read.  The state
    #: a server holds grows with the values it has taken, so the peak is
    #: read at a fixed amount of work (past the first checkpoint) rather
    #: than at the end of a window whose length in calls follows host speed.
    rss_calls = 0

    def prepare(self, index: int) -> Call:
        """The inputs of ingest call ``index``."""
        raise NotImplementedError

    def send(self, client: QuantileClient, call: Call) -> None:
        getattr(client, call.method)(*call.args)

    def record(self, call: Call) -> int:
        """Record an acknowledged call's inputs; returns its value count."""
        values = 0
        for key, part, timestamps in call.parts:
            self.inputs.add(key, part, timestamps)
            values += int(part.size)
        return values

    def read(self, client: QuantileClient, index: int) -> None:
        """The read after call ``index``: an 8-key ``query_many``."""
        keys = self.all_keys()
        start = (index // READ_EVERY * READ_KEYS) % len(keys)
        read_many(client, [(keys[(start + j) % len(keys)], READ_FRACTIONS)
                           for j in range(READ_KEYS)])

    def _step(self, client, index, ledger, stats) -> bool:
        """Ingest call ``index``, plus its read and checkpoint when due;
        returns whether a checkpoint ran."""
        call = self.prepare(index)
        sent = self._send(stats)
        try:
            self.send(client, call)
        except ReproError as exc:
            self._replied = time.perf_counter()
            ledger.fail(f"ingest call {index}: {exc}")
            values = 0
        else:
            self._replied = time.perf_counter()
            ledger.ok()
            values = self.record(call)
        if stats is not None:
            stats.ingest_lat.append(self._replied - sent)
            stats.values += values
        if index % READ_EVERY == READ_EVERY - 1:
            sent = self._send(stats)
            try:
                self.read(client, index)
            except ReproError as exc:
                ledger.fail(f"read after call {index}: {exc}")
            else:
                ledger.ok()
            self._replied = time.perf_counter()
            if stats is not None:
                stats.query_lat.append(self._replied - sent)
        self.last_tick = index
        self._since_checkpoint += 1
        if self._since_checkpoint < self.checkpoint_calls:
            return False
        self._checkpoint(client, ledger, stats)
        self._since_checkpoint = 0
        return True

    def measure(self, port, seconds, ledger, cpu_now, rss_now, *, rounds=1, phases=1,
                on_round=None, speed=None):
        """Drive the window and return one :class:`WindowStats` per phase.

        ``cpu_now()`` reads the server's CPU seconds and ``rss_now()`` its
        peak RSS, once, after :attr:`rss_calls` calls of the window (or at
        its end, if it is shorter).  Calls run until
        ``seconds`` have passed and a checkpoint has just run, so a window
        holds whole checkpoint intervals and whether one more checkpoint
        falls inside it never depends on host speed.  The window is cut
        into ``rounds`` rounds of equal length; ``on_round(turn)`` runs
        before each, outside the window's time.  With ``phases=2`` the
        rounds alternate between the two phases and each round holds
        whole checkpoint intervals (so it may run longer), and the window
        ends after a round of the second phase.  With a ``speed``
        (:class:`hostspeed.HostSpeed`) the reference kernel runs every
        :data:`hostspeed.SAMPLE_EVERY_S` of window time, between calls and
        outside the window's clock.
        """
        stats = [WindowStats() for _ in range(phases)]
        round_seconds = seconds / rounds
        done = 0.0
        self._since_checkpoint = 0
        with self.client(port) as client:
            index = self.preload_calls
            self._replied = time.perf_counter()
            for _ in range(self.warmup_calls):
                self._step(client, index, ledger, None)
                index += 1
            first = index
            for turn in range(1 << 30):
                if on_round is not None:
                    on_round(turn)
                phase = stats[turn % phases]
                cpu, gen = cpu_now(), generator_cpu()
                started = self._replied = time.perf_counter()
                paused = 0.0
                next_sample = started
                while True:
                    checkpointed = self._step(client, index, ledger, phase)
                    index += 1
                    if index - first == self.rss_calls:
                        self._read_rss(stats[0], rss_now, index - first)
                    if speed is not None and self._replied >= next_sample:
                        before = time.perf_counter()
                        speed.sample()
                        self._replied = time.perf_counter()
                        paused += self._replied - before
                        next_sample = self._replied + SAMPLE_EVERY_S
                    took = self._replied - started - paused
                    if phases == 1 and checkpointed and done + took >= seconds:
                        break
                    if took >= round_seconds and (
                        checkpointed if phases > 1 else done + took < seconds
                    ):
                        break
                phase.elapsed += took
                phase.server_cpu += cpu_now() - cpu
                phase.gen_cpu += generator_cpu() - gen
                done += took
                if turn % phases == phases - 1 and done >= seconds:
                    if not stats[0].rss_read_at:
                        self._read_rss(stats[0], rss_now, index - first)
                    return stats

    @staticmethod
    def _read_rss(stats, rss_now, calls) -> None:
        stats.peak_rss_mb = rss_now()
        stats.rss_read_at = calls

    def preload(self, client, ledger) -> None:
        half = self.preload_calls * 3 // 4
        self._replied = time.perf_counter()
        for index in range(self.preload_calls):
            call = self.prepare(index)
            try:
                self.send(client, call)
            except ReproError as exc:
                ledger.fail(f"preload call {index}: {exc}")
            else:
                ledger.ok()
                self.record(call)
            if index == half:
                self._checkpoint(client, ledger, None)
        self.last_tick = self.preload_calls - 1


class IngestBulk(Workload):
    name = "ingest_bulk"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed)
        self.frame_values = 1024 if tiny else 16384
        self.frames = 16
        self.keys = [f"bulk-{i:02d}" for i in range(16)]
        pool_rng = np.random.default_rng([seed, 1])
        size = self.frame_values * self.frames
        self.blocks = [latency_values(pool_rng, size) for _ in range(4 if tiny else 16)]
        self.schedule = pool_rng.integers(len(self.blocks), size=4096)
        self.preload_calls = 64
        self.checkpoint_calls = 32
        self.rss_calls = 256

    def sampled_keys(self):
        return ["bulk-00", "bulk-07"]

    def all_keys(self):
        return self.keys

    def prepare(self, index) -> Call:
        key = self.keys[index % len(self.keys)]
        block = self.blocks[self.schedule[index % len(self.schedule)]]
        return Call("ingest_stream", (key, block), [(key, block, None)])

    def send(self, client, call) -> None:
        client.ingest_stream(*call.args, frame_values=self.frame_values, window=self.frames)


class IngestFanin(Workload):
    name = "ingest_fanin"
    warmup_calls = 64

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed)
        self.num_keys = 100 if tiny else 1000
        self.keys = [f"fan-{i:04d}" for i in range(self.num_keys)]
        self.per_call = 50
        self.batch = 64
        pool_rng = np.random.default_rng([seed, 2])
        self.pool = latency_values(pool_rng, 1 << 20)
        self.offsets = pool_rng.integers(0, self.pool.size - self.batch, size=(4096, self.per_call))
        self.preload_calls = 400
        self.checkpoint_calls = 256 if tiny else 2048
        self.rss_calls = 512 if tiny else 2048

    def sampled_keys(self):
        return ["fan-0000", "fan-0033"]

    def all_keys(self):
        return self.keys

    def prepare(self, index) -> Call:
        row = self.offsets[index % len(self.offsets)]
        first = index * self.per_call
        batches = [
            (self.keys[(first + j) % self.num_keys], self.pool[row[j]: row[j] + self.batch])
            for j in range(self.per_call)
        ]
        return Call("ingest_multi", (batches,), [(key, values, None) for key, values in batches])


class MonitorMixed(Workload):
    name = "monitor_mixed"
    serve_args = ["--window-resolutions", "1s", "--window-retention", "512"]

    #: Buckets (1 s each) a horizon read spans.
    horizon_buckets = 64
    window_values = 2000
    plain_values = 64
    epoch = 1_000_000.0
    #: Virtual seconds one call advances the generator's clock: coarse
    #: while preloading (so a horizon read spans full buckets from the
    #: start), fine afterwards (so a run adds few buckets to checkpoint).
    preload_tick_seconds = 0.01
    tick_seconds = 0.002

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed)
        self.wkeys = [f"win-{i}" for i in range(4)]
        self.pkeys = [f"all-{i:02d}" for i in range(16)]
        pool_rng = np.random.default_rng([seed, 3])
        self.pool = latency_values(pool_rng, 1 << 20)
        self.offsets = pool_rng.integers(0, self.pool.size - self.window_values, size=8192)
        self.spread = np.arange(self.window_values) / self.window_values
        self.preload_calls = 1200 if tiny else 6400
        self.checkpoint_calls = 500 if tiny else 2000
        self.rss_calls = 1000 if tiny else 4000

    def sampled_keys(self):
        return ["all-00", "all-07", "win-0", "win-3"]

    def all_keys(self):
        return self.pkeys

    def vt(self, tick: int) -> float:
        coarse = min(tick, self.preload_calls)
        return (self.epoch + coarse * self.preload_tick_seconds
                + (tick - coarse) * self.tick_seconds)

    def prepare(self, index) -> Call:
        """9 of 10 calls are a windowed batch, 1 of 10 an all-time multi-ingest."""
        offset = int(self.offsets[index % len(self.offsets)])
        if index % 10 == 9:
            batches = [
                (key, self.pool[offset + 8 * j: offset + 8 * j + self.plain_values])
                for j, key in enumerate(self.pkeys)
            ]
            return Call("ingest_multi", (batches,),
                        [(key, values, None) for key, values in batches])
        key = self.wkeys[index % len(self.wkeys)]
        values = self.pool[offset: offset + self.window_values]
        timestamps = self.vt(index) + self.spread * (self.vt(index + 1) - self.vt(index))
        return Call("ingest_windowed", (key, timestamps, values), [(key, values, timestamps)])

    def horizon(self, client: QuantileClient, key: str, last_tick: int, fractions, buckets: int):
        end = math.floor(self.vt(last_tick)) + 1.0
        return client.query_horizon(key, fractions, start=end - buckets, end=end), end

    def read(self, client, index) -> None:
        """One read in four is a horizon read, the others an 8-key
        all-time ``query_many``.  (Half and half, the read p50 fell in the
        gap between the two kinds' latencies, about 2.6 and 6 ms, and
        jumped across it from run to run.)"""
        turn = index // READ_EVERY
        if turn % 4 == 0:
            key = self.wkeys[(turn // 4) % len(self.wkeys)]
            self.horizon(client, key, index, READ_FRACTIONS, self.horizon_buckets)
        else:
            half = turn % 2
            keys = self.pkeys[half * READ_KEYS: (half + 1) * READ_KEYS]
            read_many(client, [(key, READ_FRACTIONS) for key in keys])

    def probe(self, client) -> list:
        answers = super().probe(client)
        for key in self.wkeys:
            result, _ = self.horizon(client, key, self.last_tick, READ_FRACTIONS, 512)
            answers.append(answers_key(result))
        return answers

    def check_counts(self, client, ledger) -> None:
        super().check_counts(client, ledger)
        wrong = []
        for key in self.wkeys:
            result, _ = self.horizon(client, key, self.last_tick, [0.5], 512)
            if result.n != self.inputs.acked.get(key, 0):
                wrong.append(key)
        ledger.check(not wrong, f"windowed n != acked values on {wrong}")

    def accuracy(self, client, ledger) -> Dict[float, float]:
        worst = super().accuracy(client, ledger)
        for key in (k for k in self.sampled_keys() if k.startswith("win-")):
            result, end = self.horizon(
                client, key, self.last_tick, list(TAIL_FRACTIONS), self.horizon_buckets
            )
            for q, answer in zip(TAIL_FRACTIONS, result.values):
                window = self.inputs.rank_window(
                    key, float(answer), bucket_range=(end - self.horizon_buckets, end)
                )
                self._score(ledger, worst, key, q, answer, result, window)
        return worst


WORKLOADS = {cls.name: cls for cls in (IngestBulk, IngestFanin, MonitorMixed)}
