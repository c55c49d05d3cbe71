"""Host-speed calibration.

Shared hosts change speed by 20–40% from one minute to the next, and every
pure-Python layer of the program slows down with them. The ``suite`` and
``sweep`` processes therefore time a fixed pure-Python pass next to the
work they measure. Their work times are scaled by ``REFERENCE_PASS_S``
divided by the process's mean pass time. The result is "seconds at the
reference speed": a change to the program moves it, and a change in host
speed mostly does not. The pass never touches the program, so a slower
program cannot hide in the scale.
"""

from __future__ import annotations

import statistics
import time

#: Typical time of one :func:`calibration_pass` on the reference host
#: (2-CPU x86-64 VM, Python 3.11.7).  Only scales all times alike.
REFERENCE_PASS_S = 0.0045

#: 2 MiB, more than a core's private caches, walked out of order by each
#: pass, so the pass feels cache contention as the program's trace walks do.
_WALKED = bytes(range(256)) * (1 << 13)


def calibration_pass() -> float:
    """Time one fixed pass of dict, integer, branch and list-walking work."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(10000):
        key = i & 511
        table[key] = table.get(key, 0) + (i * 7 >> 2)
        if acc & 1:
            acc ^= table[key] & 0xFFFF
        else:
            acc += 1
    walked = _WALKED
    index = 0
    for _ in range(10000):
        index = (index + 1040507) & 0x1FFFFF
        acc += walked[index]
    return time.perf_counter() - start


def scale(passes: list[float]) -> float:
    """Factor that turns host seconds measured next to ``passes`` into reference seconds."""
    return REFERENCE_PASS_S / statistics.fmean(passes)
