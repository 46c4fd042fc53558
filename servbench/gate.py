"""The correctness gate: exactly-once counts, bit-exact recovery, accuracy.

Every check is one operation of the run: it is counted in ``attempted``,
and a failed check counts in ``failed`` (and so in ``ok_ops_ratio``) just
like a refused request.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Tail fractions the accuracy gate checks on each sampled key.
TAIL_FRACTIONS = (0.99, 0.999)


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def check(self, passed: bool, reason: str) -> bool:
        if passed:
            self.ok()
        else:
            self.fail(reason)
        return passed


class ExactInputs:
    """What the generator acknowledged, per key.

    ``acked[key]`` counts every acknowledged value (the exactly-once
    reference).  For the sampled keys the value arrays themselves are
    kept (views into the generator's pools, so no copies), which is
    enough to compute exact ranks at the end.  Windowed samples keep
    ``(timestamps, values)`` pairs.
    """

    def __init__(self, sampled: Sequence[str]) -> None:
        self.sampled = set(sampled)
        self.acked: Dict[str, int] = {}
        self.parts: Dict[str, list] = {key: [] for key in sampled}

    def save(self) -> tuple:
        return dict(self.acked), {key: list(parts) for key, parts in self.parts.items()}

    def restore(self, saved: tuple) -> None:
        acked, parts = saved
        self.acked = dict(acked)
        self.parts = {key: list(values) for key, values in parts.items()}

    def add(self, key: str, values, timestamps=None) -> None:
        self.acked[key] = self.acked.get(key, 0) + int(values.size)
        if key in self.sampled:
            self.parts[key].append(values if timestamps is None else (timestamps, values))

    def rank_window(self, key: str, item: float, *, bucket_range=None) -> Tuple[int, int, int]:
        """``(below, at_or_below, n)`` over the key's exact inputs.

        With ``bucket_range=(lo, hi)`` only windowed values whose 1-second
        bucket ``floor(ts)`` lies in ``[lo, hi)`` count.
        """
        below = at_or_below = n = 0
        for part in self.parts[key]:
            if bucket_range is not None:
                ts, values = part
                buckets = np.floor(ts)
                values = values[(buckets >= bucket_range[0]) & (buckets < bucket_range[1])]
            else:
                values = part
            below += int(np.count_nonzero(values < item))
            at_or_below += int(np.count_nonzero(values <= item))
            n += int(values.size)
        return below, at_or_below, n


def error_over_bound(q: float, answer: float, eps: float, window: Tuple[int, int, int]) -> float:
    """Rank error of a quantile answer over its HRA a-priori bound.

    The answer to fraction ``q`` should have rank ``t = ceil(q n)``.  Its
    exact ranks form the interval ``[below + 1, at_or_below]`` (ties), so
    the error is the distance from ``t`` to that interval.  The HRA bound
    is ``eps * (n - R + 1)``, relative to the number of items above the
    answer (``R`` the interval end nearest ``t``).  A value above 1 breaks
    the guarantee.
    """
    below, at_or_below, n = window
    target = max(1, math.ceil(q * n))
    nearest = min(max(target, below + 1), at_or_below)
    error = abs(target - nearest)
    return error / (eps * max(n - nearest + 1, 1))


def answers_key(result) -> tuple:
    """A bit-exact fingerprint of one query answer."""
    return (int(result.n), float(result.error_bound).hex(),
            np.asarray(result.values, dtype=np.float64).tobytes(), int(result.num_retained))
