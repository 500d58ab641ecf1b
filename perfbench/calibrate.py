"""Machine-speed calibration for the time metrics.

The 2-vCPU VM this benchmark was tuned on runs identical work at speeds
that wander by up to 1.7x, in spells of seconds to minutes, and a run
cannot average that away: the same reveal, repeated in fresh processes,
had a log standard deviation of 0.14-0.15 in its median time.  So every
process of the system under test also times a fixed reference kernel
(the four functions below: interpreter arithmetic, small-object
allocation, JSON and byte hashing -- code in this file, which no change
to the program can speed up) between its ops, outside their timing.

A sample's *slowness* is the geometric mean, over the four kernels, of
the kernel's time over its time at the reference speed
(:data:`NOMINAL_S`).  The garbage collector is paused while a sample
runs, so a sample never pays for collecting the program's heap (the
kernels' own objects die by reference counting).  The benchmark
divides each time it reports by the slowness measured around it, so
its time metrics read seconds at the reference speed.  Over the same
fresh processes the log standard deviation of the scaled reveal time
was 0.05-0.07.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time

#: Samples behind one set-up measurement (their median is used).
SETUP_SAMPLES = 8
#: Ops on each side of an op whose samples set its slowness.
WINDOW = 5


def _arith() -> int:
    total = 0
    for i in range(30000):
        total = (total + i * i) % 1000003
    return total


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def _alloc() -> int:
    cells: dict = {}
    picked = []
    for i in range(4000):
        cell = _Cell(str(i), i)
        cells[cell.key] = cell
        if i % 3 == 0:
            picked.append((cell.value * 7) ^ len(cell.key))
    picked.sort()
    return sum(c.value + len(k) for k, c in cells.items()) + picked[-1]


_DOC = {"methods": [{"name": f"m{i}", "code": list(range(i % 40)),
                     "flags": {"static": i % 2 == 0}} for i in range(300)]}


def _json() -> int:
    return len(json.loads(json.dumps(_DOC))["methods"])


_BLOB = bytes(range(256)) * 256


def _bytes() -> int:
    digest = hashlib.sha256()
    for _ in range(16):
        digest.update(_BLOB)
    return bytearray(_BLOB).count(7) + digest.digest()[0]


#: Each kernel and its median time at the reference speed: the fast
#: spells of the VM named above (Intel Xeon, 2.1 GHz).
NOMINAL_S = {_arith: 0.00270, _alloc: 0.00245, _json: 0.00170,
             _bytes: 0.00083}


def sample() -> float:
    """One slowness sample: 1.0 at the reference speed, 2.0 when the
    kernels take twice as long."""
    logs = 0.0
    collecting = gc.isenabled()
    gc.disable()
    try:
        for kernel, nominal in NOMINAL_S.items():
            began = time.perf_counter()
            kernel()
            logs += math.log((time.perf_counter() - began) / nominal)
    finally:
        if collecting:
            gc.enable()
    return math.exp(logs / len(NOMINAL_S))


def median_sample(count: int = SETUP_SAMPLES) -> float:
    return statistics.median(sample() for _ in range(count))


def smooth(samples: list[float], window: int = WINDOW) -> list[float]:
    """Per position, the median of the samples at most ``window``
    positions away: the slowness an op ran at, robust to the odd
    sample a collection or an interrupt stretched."""
    return [statistics.median(samples[max(0, i - window):i + window + 1])
            for i in range(len(samples))]
