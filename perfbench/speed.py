"""Machine-speed reference for the benchmark's time metrics.

The CPU this benchmark runs on is shared: the same qcover op takes 20-30%
longer for minutes at a time when other tenants are busy, which makes run
medians drift far more than the regressions the bounds are meant to catch.
The worker therefore times a fixed pure-Python workload just before every op,
and run.py scales the op's latency by NOMINAL_MS / (that workload's time):
times are reported at the speed of a machine on which the reference takes
NOMINAL_MS.  The reference is benchmark code, never qcover's, so a change to
qcover cannot move it; the raw times are reported beside the scaled ones.
"""

import time

NOMINAL_MS = 7.0
_ROUNDS, _KEYS = 6, 4000


def reference_ms() -> float:
    """Wall time of the fixed reference workload, in milliseconds.

    It builds small tuples and counts them in a dict, as qcover's censuses
    do, so a neighbour's use of the shared caches slows it about as much as
    it slows qcover; a loop of plain arithmetic tracked only part of that.
    The dict is kept small so that it adds little to the worker's peak RSS.
    """
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        counts = {}
        for i in range(_KEYS):
            key = (i % 97, i % 89, i * 7 % 83, i)
            counts[key] = counts.get(key, 0) + 1
    return (time.perf_counter() - start) * 1000
