"""A reference kernel that reads how fast the machine runs at the moment.

The benchmark shares a few cores with other work.  On a shared 2-vCPU
virtual machine the same op took 20 to 40% longer in one minute than in
the next, in spells of ten to twenty seconds, and the median of a 40 s
window moved by up to 0.4 between windows; no run length averages that
away.  So between ops the benchmark times a fixed reference kernel and
reports each op's time scaled to one reference speed:

    scaled = raw * NOMINAL_S / ((kernel before + kernel after) / 2)

where "kernel before" and "kernel after" are the two kernel timings that
bracket the op.  That is the time the op would take on a machine where the
kernel takes NOMINAL_S.  The kernel does the kinds of work the ops do:
interpreted Python, a numpy pass over a 1 MiB array, and the start of a
bare interpreter in a child.  It never calls the program under test, so a
change to the program moves scaled times exactly as much as raw ones.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

import workloads

NOMINAL_S = 0.065  # the kernel's median time on the machine that set the baseline
SPACING_S = 0.5  # at most one kernel timing per this much time of ops
KERNEL_LETTERS = 1 << 20
KERNEL_LOOP = 60_000


class Reference:
    """Kernel timings of one run, and the scale they give each op."""

    def __init__(self, env):
        import numpy as np

        self.env = env
        self.codes = np.arange(KERNEL_LETTERS, dtype=np.uint32).astype(np.uint8) & 3
        self.samples = []  # kernel seconds, in the order taken
        self.taken_at = -math.inf
        self._kernel()  # warm-up, untimed

    def _kernel(self):
        total = 0
        table = {}
        for i in range(KERNEL_LOOP):
            total += (i * i) % 7
            table[i & 255] = total
        codes = self.codes
        mask = codes[:-8] == 1
        for j in range(1, 8):
            mask &= codes[j : len(codes) - 8 + j] == (j & 3)
        int(mask.sum())
        child = workloads.spawn([sys.executable, "-c", "pass"], self.env)
        if child.code != 0:
            raise RuntimeError(f"reference interpreter failed: {child.err.strip()}")

    def sample(self) -> int:
        """Time the kernel once; return the index of the timing."""
        start = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - start)
        self.taken_at = time.monotonic()
        return len(self.samples) - 1

    def sample_if_due(self) -> int:
        """Time the kernel if SPACING_S has passed since the last timing; return the last index."""
        if time.monotonic() - self.taken_at >= SPACING_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """Factor for work between timing ``before`` and the next one, which must be taken."""
        return NOMINAL_S / ((self.samples[before] + self.samples[before + 1]) / 2)

    def median(self) -> float:
        return statistics.median(self.samples)
