"""Host speed calibration for the time metrics.

On a shared virtual machine the host's speed drifts between runs of the same
work: on the 2-core reference box, ten fit_ramp_yard runs of the same code
took 21 s to 33 s, and a 30 ms Python/numpy kernel varied from 22 ms to 45 ms
within a minute. No bound of 25 % holds on such raw times. So a batch runs
this fixed kernel of Python bytecode and numpy work once after every drive,
outside the timed decisions, and every time the run reports is divided by the
run's slowdown: the median kernel time over its nominal time on the
reference box. The raw times and the slowdown are printed and recorded
beside them.

The kernel is sampled all through the run because a few samples do not
serve: on the reference box, twenty runs of it taken between missions had
medians from 2.5 ms to 5.2 ms within one batch while the missions' own times
held steady, so scaling by them widened the spread of fit_ramp_yard's times
over five seeds from 0.07 to 0.28 of the median.
"""

import statistics
from time import perf_counter

import numpy as np

NOMINAL_MS = 3.5  # the kernel's median time on the reference box
_GRID = np.random.default_rng(0).random((267, 267))


def kernel_ms() -> float:
    """Run the calibration kernel once; return its wall time in ms."""
    t0 = perf_counter()
    table = {}
    for i in range(8000):
        table[i % 97] = table.get(i % 97, 0) + i * i % 7
    x = _GRID
    for _ in range(4):
        x = np.sqrt(np.abs(x - _GRID.mean(axis=0))) + np.minimum(_GRID, x)
    return 1e3 * (perf_counter() - t0)


class HostSpeed:
    """The calibration kernel's runs over one batch."""

    def __init__(self):
        self.samples_ms = []
        self.spent_s = 0.0  # wall time the kernel's runs took

    def sample(self) -> tuple:
        """Run the kernel once; return when it started and ended."""
        start = perf_counter()
        self.samples_ms.append(kernel_ms())
        end = perf_counter()
        self.spent_s += end - start
        return start, end

    @property
    def slowdown(self) -> float:
        """Host slowdown over the nominal speed: > 1 means a slower host."""
        return statistics.median(self.samples_ms) / NOMINAL_MS
