"""The reference kernel: a fixed amount of work whose time says how fast
the host runs at the moment.

On a shared host the same job can run two to three times as long in a slow
phase as in a fast one. A job timed right next to the kernel sees the same
phase, so the ratio of the two times divides the phase out. The kernel is
part of the benchmark, not of capns: no change to capns moves it.
"""

import time

import numpy as np

# The kernel's time on a quiet core of the host the bounds were set on
# (Intel Xeon, 2 vCPU); setup_s is reported at this speed.
NOMINAL_S = 0.015


class ReferenceKernel:
    """A fixed mix of the kinds of work capns does: 40 rounds of a
    128-point transform pair and a 300-step interpreted loop, then 4
    transform pairs at 256 x 256."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal(128)
        self.large = rng.standard_normal((256, 256))

    def __call__(self) -> float:
        """Run the kernel once; returns its time in seconds."""
        fft = np.fft
        t0 = time.perf_counter()
        for _ in range(40):
            fft.ifftn(fft.fftn(self.small) * 0.5)
            x = 0.0
            for i in range(300):
                x += i * 0.5
        for _ in range(4):
            fft.ifftn(fft.fftn(self.large))
        return time.perf_counter() - t0
