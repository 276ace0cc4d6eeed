"""Reference kernel and per-repetition timing with speed normalisation.

A shared VM's vCPU speed drifts by up to ~1.6x over minutes while the
process keeps its CPU, so a raw rate mixes the program's speed with the
machine's. :func:`reference_kernel` is fixed work of the same kind the
pipeline does (an interpreter loop, a numpy sort, a dict build);
:class:`Meter` runs it through the pipeline's public ``progress``
callback each time a burst of items lands and divides the wall time
of the repetition by the kernel's mean slowdown against
:data:`NOMINAL_UNIT_MS`, raised to the workload's exponent: the
program's work slows down more than the kernel does when the machine
does, by an exponent that is steady per workload (``README.md``,
Metrics).
"""

from __future__ import annotations

import time

import numpy as np

#: Nominal milliseconds of one kernel unit: the scale of the normalised
#: rate (items per second on a machine where a unit takes this long).
NOMINAL_UNIT_MS = 1.25

#: 800 KB: larger than a core's L1 data cache, like the LP solver's
#: working set, so the kernel also feels contention for the caches a
#: sibling vCPU shares, not only clock speed.
_SORT_INPUT = (np.arange(100_000, dtype=np.int64) * 2_654_435_761) % 1_000_003


def reference_kernel(units: int) -> int:
    """Fixed interpreter + numpy + dict work; about 1.25 ms per unit on a
    shared 2-vCPU Xeon VM."""
    acc = 0
    for _ in range(units):
        for i in range(600):
            acc += (i * i) % 7
        ordered = np.sort(_SORT_INPUT)
        table = {i: i ^ 0x5BD1 for i in range(2_000)}
        acc += len(table) + int(ordered[100])
    return acc


class Meter:
    """Times one repetition, interleaving the kernel every ``burst`` items.

    Pass :meth:`progress` as the pipeline's ``progress`` callback; it
    runs on the scheduler's dispatcher thread between work items, so
    kernel time is wall time the items did not use. ``exponent`` is how
    many times as strongly, in log terms, the timed work slows down as
    the kernel. ``recorder`` (traced repetitions only) gets a
    ``ref.kernel`` span per call.
    """

    def __init__(
        self, burst: int, units: int, exponent: float, recorder=None
    ) -> None:
        self.burst = burst
        self.units = units
        self.exponent = exponent
        self.recorder = recorder
        self.segments: "list[float]" = []
        self.kernels: "list[float]" = []

    def start(self) -> None:
        self.started = self._mark = time.perf_counter()

    def progress(self, done: int, total: int, cell) -> None:
        if done % self.burst and done != total:
            return
        begin = time.perf_counter()
        if self.recorder is None:
            reference_kernel(self.units)
        else:
            with self.recorder.span("ref.kernel"):
                reference_kernel(self.units)
        end = time.perf_counter()
        self.segments.append(begin - self._mark)
        self.kernels.append(end - begin)
        self._mark = end

    def stop(self) -> None:
        end = time.perf_counter()
        self.wall = end - self.started
        if self.segments:
            self.segments[-1] += end - self._mark
        else:
            # No burst landed (the repetition raised): keep it raw.
            self.segments.append(end - self._mark)
            self.kernels.append(self.units * NOMINAL_UNIT_MS / 1e3)

    @property
    def work_s(self) -> float:
        """Wall seconds of the repetition outside kernel calls."""
        return sum(self.segments)

    @property
    def norm_work_s(self) -> float:
        """:attr:`work_s` scaled by the kernel's mean speed over the
        repetition against :data:`NOMINAL_UNIT_MS`, to the power
        :attr:`exponent`."""
        nominal = len(self.kernels) * self.units * NOMINAL_UNIT_MS / 1e3
        return self.work_s * (nominal / sum(self.kernels)) ** self.exponent
