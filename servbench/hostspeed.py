"""Host speed: one CPU for the whole benchmark, and a reference kernel on it.

The host the benchmark runs on shares its physical CPUs with other
tenants.  Its speed moves by up to about 1.5x in spells of seconds to
tens of seconds, and its two vCPUs move only partly together (their
speeds correlate about 0.4).  A run of 20 s often sits inside one
spell, so the run's figures follow the host rather than the code.

Two controls answer this:

* :func:`pin_to_one_cpu` puts the generator, and through inheritance
  every server it spawns, on one CPU.  The closed loops run one side at
  a time anyway, and the reference kernel then times the very CPU the
  server runs on.
* :class:`HostSpeed` times a fixed reference kernel (a NumPy sort and a
  pure-Python loop; it calls no code of ``src/``) between calls of the
  window, outside the window's clock, and just before each set-up
  spawn.  Its mean time against :data:`NOMINAL_S` is a host factor;
  end-to-end times are divided by it and rates multiplied by it, so
  they read as on a host where the kernel takes exactly
  :data:`NOMINAL_S`.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List, Optional

import numpy as np

#: The reference kernel's time on the nominal host (seconds): about its
#: time on a 2-vCPU Xeon VM in a calm spell.
NOMINAL_S = 0.8e-3
#: Window time between two samples of the reference kernel (seconds).
SAMPLE_EVERY_S = 0.1

_SORT_INPUT = np.random.default_rng(0).random(16384)
_LOOP = 8000


def reference_kernel() -> None:
    """Fixed work, about 0.8 ms: a little of the engine's kind (a
    16K-value sort, about 0.1 ms) and mostly the server's kind
    (interpreted Python), which tracked the service's speed best."""
    np.sort(_SORT_INPUT)
    total = 0
    for i in range(_LOOP):
        total += i * i


def pin_to_one_cpu() -> Optional[int]:
    """Restrict this process (and the processes it starts) to the
    highest-numbered CPU it may use; returns that CPU, or None when the
    platform does not allow it."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class HostSpeed:
    """Samples of the reference kernel's wall time over one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        """Run the kernel once and record the seconds it took."""
        started = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - started)

    @property
    def factor(self) -> float:
        """Mean kernel time over :data:`NOMINAL_S` (above 1: a slow host).

        The mean, not the median, so that time the hypervisor takes from
        the CPU counts in proportion, as it does in the window."""
        return statistics.fmean(self.samples) / NOMINAL_S
