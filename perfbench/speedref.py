"""The machine-speed reference kernel, run in a process of its own.

Usage: ``python3 perfbench/speedref.py``, driven over its standard streams
by :class:`common.MachineSpeed`.

Each line read from standard input is a count ``n``: the kernel runs ``n``
times, and one line with the ``n`` times in seconds (a JSON list) is
written back.  End of input ends the process.  The process imports NumPy
and nothing of the program under test, so nothing that program does to the
benchmark's own process (a thread left running, a profiling hook, a
garbage-collector setting) can change the speed measured here and so hide
a slowdown.
"""

import json
import sys
import time

import numpy as np


def kernel() -> int:
    """Fixed interpreter-bound and NumPy-bound work."""
    total = 0
    for i in range(30000):
        total += i * i
    a = np.linspace(0.0, 1.0, 1 << 17)
    for _ in range(4):
        np.sqrt(a * a + 1.0, out=a)
    return total


def main() -> None:
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        print(json.dumps(times), flush=True)


if __name__ == "__main__":
    main()
