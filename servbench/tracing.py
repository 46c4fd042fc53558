"""In-memory span recorder used by the traced server launcher and the generator.

A span wraps one call into a layer: its name is the layer's metric prefix
(``store.ingest``, ``engine.compress``, ...), its start and end come from
``time.perf_counter`` and its parent is the span open below it on the same
thread.  Spans are aggregated as they close, so memory stays flat however
long the run is:

* ``count``, ``total_s`` (inclusive) and ``self_s`` (inclusive minus the
  time covered by child spans) per name;
* ``outer_s``: inclusive time of spans whose parent has a *different*
  name, i.e. the layer's time counted once even when it recurses;
* ``root_s`` per thread: inclusive time of spans with no parent, the
  share of a thread's wall time spent inside traced work;
* duration samples for names registered with ``sample=True`` (the
  percentile metrics), and plain counters.

Wrappers are registered with :meth:`Tracer.patch` (or :meth:`wrap`) but
only installed between :meth:`resume` and :meth:`pause`, which put the
original attributes back.  A run can so alternate traced and untraced
rounds in one process, and its untraced rounds run the unmodified code.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._resumed: Optional[float] = None
        self.layers: Dict[str, List[float]] = {}
        self.samples: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.roots: Dict[str, float] = {}
        #: Wall seconds and number of the traced rounds so far.
        self.active_s = 0.0
        self.rounds = 0

    # -- traced rounds ---------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Register ``replacement`` for ``owner.attr`` (installed while traced)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original, replacement))

    def resume(self) -> None:
        """Start a traced round: install every registered wrapper."""
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        self._resumed = perf_counter()

    def pause(self) -> None:
        """End a traced round: put every original attribute back."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.active_s += perf_counter() - self._resumed
        self._resumed = None
        self.rounds += 1

    @property
    def active(self) -> bool:
        """Whether a traced round is open."""
        return self._resumed is not None

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """Name of the innermost open span on this thread (``None`` if none)."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def outer_total(self, name: str) -> float:
        """Running ``outer_s`` of one name (for per-request deltas)."""
        with self._lock:
            entry = self.layers.get(name)
            return entry[3] if entry is not None else 0.0

    def call(self, name: str, fn: Callable, args, kwargs, *, sample: bool = False):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        frame = [0.0, name]
        parent = stack[-1] if stack else None
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            if parent is not None:
                parent[0] += duration
            with self._lock:
                entry = self.layers.get(name)
                if entry is None:
                    entry = self.layers[name] = [0, 0.0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if parent is None or parent[1] != name:
                    entry[3] += duration
                if parent is None:
                    thread = threading.current_thread().name
                    self.roots[thread] = self.roots.get(thread, 0.0) + duration
                if sample:
                    self.samples.setdefault(name, []).append(duration)

    def wrap(self, owner, attr: str, name: str, *, sample: bool = False) -> None:
        """Register a wrapper for ``owner.attr`` (a function, method, static
        or class method) that records a span per call."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        original = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, sample=sample)

        self.patch(owner, attr, kind(traced) if kind is not None else traced)

    def wrap_counter(self, owner, attr: str, name: str) -> None:
        """Register a wrapper for ``owner.attr`` that only counts calls."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.count(name)
            return original(*args, **kwargs)

        self.patch(owner, attr, counted)

    def dump(self) -> dict:
        """Everything recorded in the traced rounds, as JSON-ready data."""
        with self._lock:
            return {
                "window_s": self.active_s,
                "rounds": self.rounds,
                "layers": {
                    name: {"count": e[0], "total_s": e[1], "self_s": e[2], "outer_s": e[3]}
                    for name, e in self.layers.items()
                },
                "samples": {name: list(values) for name, values in self.samples.items()},
                "counters": dict(self.counters),
                "roots": dict(self.roots),
            }
