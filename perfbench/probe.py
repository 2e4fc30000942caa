"""Speed probe: a fixed Python loop, timed every 10 ms on one CPU.

The speed of this benchmark's machine changes by up to 2x over windows of
seconds, as other tenants load the host, and on each virtual CPU on its own.
``run.py`` starts one probe pinned to the CPU that every repetition is
pinned to; a repetition divides its times by the probe's mean loop time over
the same window, so the bounded times follow the work done rather than the
machine's momentary speed.  The probe takes about 3 % of that CPU.

    python3 perfbench/probe.py <cpu> <samples file>
"""

from __future__ import annotations

import os
import struct
import sys
import time

LOOP = 3000
PERIOD_S = 0.01
# Normalized times read as seconds at the speed where one loop takes this long.
NOMINAL_S = 250e-6
_RECORD = struct.Struct("<dd")  # (time.monotonic() at the loop's end, loop seconds)


def mean_between(path: str, start: float, end: float) -> float | None:
    """Mean loop time of the samples taken in [start, end], or None."""
    with open(path, "rb") as fh:
        data = fh.read()
    data = data[: len(data) - len(data) % _RECORD.size]
    loops = [d for t, d in _RECORD.iter_unpack(data) if start <= t <= end]
    return sum(loops) / len(loops) if loops else None


def main() -> None:
    cpu, path = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    with open(path, "wb", buffering=0) as fh:
        while True:
            t0 = time.perf_counter()
            s = 0
            for i in range(LOOP):
                s += i * i
            fh.write(_RECORD.pack(time.monotonic(), time.perf_counter() - t0))
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main()
