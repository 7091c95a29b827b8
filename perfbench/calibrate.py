#!/usr/bin/env python3
"""A fixed pure-Python kernel that measures how fast this host runs now.

On a shared host the same pass can take up to 1.5x longer for a minute at
a time (neighbours contending for caches and memory, not CPU steal:
process CPU time rises with wall time).  ``run.py`` runs this kernel in its
own process right before and after every pass and scales the run's host
times by ``REFERENCE_S / fastest kernel seconds of the run``, so a slow
minute slows both and cancels.  The kernel shares no code with the
program, so a change to the program moves the pass and not the kernel.
Never edit the kernel: every recorded number depends on it.

Prints the kernel's host seconds.
"""

from __future__ import annotations

import random
import time

#: The kernel's fastest host seconds in a run on the 2.1 GHz Xeon the README
#: baseline was measured on; calibrated times read as seconds on that host.
REFERENCE_S = 0.70


def kernel() -> float:
    """Heap-heavy tuple/dict traffic plus generator resumes; returns s."""
    started = time.perf_counter()
    rng = random.Random(1)
    rows = [(i, rng.random(), str(i)) for i in range(300_000)]
    index: dict = {}
    total = 0.0
    for k in range(900_000):
        row = rows[(k * 7919) % 300_000]
        total += row[1]
        index[row[0] & 65535] = row

    def fiber(n: int):
        acc = 0
        for i in range(n):
            acc += yield i
        return acc

    for _ in range(20_000):
        gen = fiber(20)
        value = next(gen)
        try:
            while True:
                value = gen.send(value & 3)
        except StopIteration:
            pass
    return time.perf_counter() - started


if __name__ == "__main__":
    print(repr(kernel()))
