"""Host-speed calibration: a fixed reference kernel timed between slices
of each operation.

Shared machines run the same code at different speeds from one ten
seconds to the next.  On a shared 2-core Intel Xeon VM, a
warm re-run's 10 s-window median moved from 94 to 166 ms while its ratio
to this kernel, timed in the same process right before it, stayed
within ±4%.  Campaign workloads therefore time operations with a
:class:`ScaledClock`: their timings read in seconds *at the reference
host speed*, and the raw medians are printed beside them.

The kernel is pure standard-library work shaped like the program's
(JSON encode/decode, dict and tuple churn) and runs with the garbage
collector off, so the size of the program's heap does not reach it.
"""

from __future__ import annotations

import gc
import json
import time

#: Kernel time at the reference speed (the VM above, uncontended).
REFERENCE_S = 0.013
#: A running operation is re-calibrated at most this often.
CHECKPOINT_S = 0.25

_BLOB = [{"a": i, "b": [float(i) * 1.5] * 8, "c": str(i)}
         for i in range(400)]


def kernel() -> float:
    start = time.perf_counter()
    for _ in range(6):
        json.loads(json.dumps(_BLOB))
        table = {}
        for i in range(3000):
            table[i] = (i * 3.7, str(i))
    return time.perf_counter() - start


def speed_factor() -> float:
    """``REFERENCE_S`` over one kernel timing: multiply a raw time by it
    to get reference-speed time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return REFERENCE_S / kernel()
    finally:
        if enabled:
            gc.enable()


class ScaledClock:
    """Raw and reference-speed time of one operation.

    The kernel is timed when the clock starts, at each
    :meth:`checkpoint` (at most every :data:`CHECKPOINT_S`) and at each
    :meth:`read`.  Each slice between two timings is scaled by the mean
    of their factors; time spent in the kernel counts in neither total.
    """

    def __init__(self) -> None:
        self.raw = self.scaled = 0.0
        self._factor = speed_factor()
        self._mark = time.perf_counter()

    def checkpoint(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._mark < CHECKPOINT_S:
            return
        factor = speed_factor()
        self.raw += now - self._mark
        self.scaled += (now - self._mark) * (self._factor + factor) / 2
        self._factor = factor
        self._mark = time.perf_counter()

    def read(self) -> tuple[float, float]:
        """``(raw_s, scaled_s)`` so far."""
        self.checkpoint(force=True)
        return self.raw, self.scaled
