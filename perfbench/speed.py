"""Host speed gauges: timings scaled to a fixed reference speed.

The benchmark runs on shared virtual machines whose CPU speed drifts by up
to 1.6x over minutes: a neighbour's load slows every instruction, so CPU
time drifts with wall time and no statistic inside one run can remove it.
A fixed reference task of the same kind as the timed work slows by about
as much.  Timing it between items and scaling each latency by
``nominal / reference time`` expresses the latency at the speed where the
reference takes its nominal time.  The references share no code with the
library, so a change to the library cannot move them.

In-process work and process start-up react differently to the neighbours,
and so do pure-Python code and large numpy arrays, so each workload is
scaled by the reference closest to its own work:

* ``PYTHON``: a pure-Python dict loop, like the library's solvers at
  small K (``many-users``); nominal 0.6 ms.
* ``NUMPY``: one vectorised log2 over a million-cell grid, 8 MB of
  doubles (``sweep-map``); nominal 8 ms.
* ``MIXED``: both of the above, one after the other, for the oracle grids
  mixed with small solves of ``two-user-report``; nominal 8.6 ms.
* ``FRESH_PROCESS``: a new interpreter that imports numpy, like the start
  of a CLI call or of the benchmark itself; nominal 100 ms.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Callable, NamedTuple

import numpy


def _python_task() -> None:
    seen = {}
    for i in range(3000):
        seen[i % 97] = seen.get(i % 97, 0.0) + i * 0.5


_GRID_X = numpy.linspace(0.1, 2.0, 5000)
_GRID_Y = numpy.linspace(0.1, 2.0, 200)


def _numpy_task() -> None:
    numpy.log2(1.0 + _GRID_X[:, None] * _GRID_Y[None, :]).max()


def _mixed_task() -> None:
    _python_task()
    _numpy_task()


def _fresh_process_task() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)


class Reference(NamedTuple):
    task: Callable[[], None]
    nominal_s: float  # a host running the task this fast reports times as measured
    every_s: float  # longest time a sample is trusted for
    repeats: int  # a sample is the median of this many timings


PYTHON = Reference(_python_task, 0.6e-3, 0.5, 9)
NUMPY = Reference(_numpy_task, 8e-3, 0.5, 3)
MIXED = Reference(_mixed_task, 8.6e-3, 0.5, 3)
FRESH_PROCESS = Reference(_fresh_process_task, 0.1, 1.0, 3)


class SpeedGauge:
    """Samples of one reference, taken between items."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.samples = []
        self._sample()

    def _sample(self) -> float:
        times = []
        for _ in range(self.ref.repeats):
            t0 = time.perf_counter()
            self.ref.task()
            times.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(times))
        self._taken = time.perf_counter()
        return self.samples[-1]

    def before(self) -> float:
        """The reference time to use for an item about to start."""
        if time.perf_counter() - self._taken > self.ref.every_s:
            self._sample()
        return self.samples[-1]

    def scale(self, seconds: float, before: float) -> float:
        """An item's time at reference speed.  An item longer than the
        sampling interval is scaled by the mean of the samples around it."""
        ref = before
        if seconds > self.ref.every_s:
            ref = 0.5 * (before + self._sample())
        return seconds * self.ref.nominal_s / ref

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3
