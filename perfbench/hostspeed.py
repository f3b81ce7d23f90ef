"""Host-speed correction for timings taken on a shared machine.

On a shared host the speed the benchmark process gets drifts by a fifth
or more over minutes, and a run of any length cannot average that out.
So while a pass is timed, a timer signal interrupts it every INTERVAL_S
seconds, between the program's bytecodes, and runs a fixed reference
kernel in the same thread: once to bring the kernel's data back into the
caches and once timed, so the sample reads the host's speed and not what
the program left in the caches. The pass's time less the time spent in
the kernel, times REFERENCE_S over the median timed sample of the pass,
is the pass's time on a host where the kernel takes REFERENCE_S: seconds
at a fixed reference speed. The samples span the whole pass, so speed
changes within it are corrected too. The kernel is the benchmark's own
code and data, the same on every commit.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import numpy as np

REFERENCE_S = 0.005       # kernel time on the machine the bounds were set on
INTERVAL_S = 0.2          # wall time between two samples

_rng = np.random.default_rng(0x5EED)
_PHASES = _rng.random(8192)
_Z = np.empty(8192, dtype=complex)
_STREAM = _rng.random(1 << 18)          # 2 MiB: more than a core's own caches
_SUMS = np.empty(1 << 18)
_CORNERS = tuple(_rng.integers(0, 257, size=(2, 4000)))
_VOLUME = np.multiply.outer(np.arange(1, 258) / 257, np.arange(1, 258) / 257)
_BIG = 3 ** 3000


def reference_kernel() -> float:
    """Fixed work shaped like udlab's: complex exponentials reduced in
    small blocks from an interpreted loop; a prefix sum streamed through
    an array larger than a core's own caches; corner counts on a 257^2
    lattice with cumulative sums; an interpreted integer loop and
    big-integer products."""
    np.multiply(_PHASES, 2j * np.pi, out=_Z)
    np.exp(_Z, out=_Z)
    total = 0j
    for lo in range(0, len(_Z), 128):
        total += _Z[lo:lo + 128].sum()
    np.cumsum(_STREAM, out=_SUMS)
    total += _SUMS[-1]
    counts = np.zeros((257, 257), dtype=np.int64)
    np.add.at(counts, _CORNERS, 1)
    counts = np.cumsum(np.cumsum(counts, axis=0), axis=1)
    total += float(np.max(counts / 4000 - _VOLUME))
    for i in range(3000):
        total += (i * i) % 7
    for _ in range(5):
        total += (_BIG * _BIG) & 1
    return abs(total)


class HostSpeed:
    """Context manager that samples the reference kernel while a pass runs.

    After the block: `samples` holds the kernel times, `spent_wall` and
    `spent_cpu` the time the kernel took, and `factor` is REFERENCE_S
    over the median sample."""

    def __init__(self):
        self.samples: List[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def _sample(self, signum, frame) -> None:
        c0 = time.process_time()
        t0 = time.perf_counter()
        reference_kernel()   # brings the kernel's data back into the caches
        t1 = time.perf_counter()
        reference_kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent_wall += t2 - t0
        self.spent_cpu += time.process_time() - c0

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)   # at least one sample, even for a short pass
        self.spent_wall = self.spent_cpu = 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
