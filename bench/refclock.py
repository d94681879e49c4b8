"""Speed-normalised timing with a fixed reference kernel.

On a shared machine the same computation can take twice as long a minute
later, and process CPU time follows wall time, so neither repeats.  What
does repeat is the ratio between the program's time and the time of a
fixed piece of work measured at the same moments.  This module runs such
a piece of work, the reference kernel, at the start and end of every timed
interval and every ``SAMPLE_INTERVAL_S`` seconds inside it (an interval
timer delivers SIGALRM, and the handler runs the kernel), then rescales
the interval's duration by

    NOMINAL_KERNEL_S / (mean kernel time measured in the interval).

The time the handler spends is subtracted from the interval first, so the
sampling itself is not billed to the program.

The kernel imitates today's hot loops: a pure-Python loop whose body is a
handful of complex arithmetic operations on arrays of 48 elements, the
shape of the RK4 transfer-matrix step at small lambda batches.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Mean kernel time on the reference machine (2-core shared VM, Python 3.11,
# numpy 2.4) in its usual state.  Changing it rescales every normalised
# figure, so it is a fixed constant, not a measurement.
NOMINAL_KERNEL_S = 1.0e-3
SAMPLE_INTERVAL_S = 0.025
KERNEL_ITERATIONS = 100
_KERNEL_A = np.linspace(0.1, 1.0, 48) * np.exp(1j * np.linspace(0.0, 3.0, 48))


def reference_kernel() -> complex:
    """Fixed work: KERNEL_ITERATIONS explicit-Euler steps of a 2x2 linear system."""
    m0 = np.ones(48, dtype=complex)
    m1 = np.zeros(48, dtype=complex)
    h = 0.01
    acc = 0.0
    for j in range(KERNEL_ITERATIONS):
        k0 = _KERNEL_A * m0 + 0.5 * m1
        k1 = (0.3 - _KERNEL_A) * m0 - m1
        m0 = m0 + h * k0
        m1 = m1 + h * k1
        acc = acc * 0.5 + j * h
    return complex(m0[0] + m1[-1]) + acc


@dataclass
class Interval:
    """One timed interval: raw seconds, kernel samples and normalised seconds."""

    raw_s: float = 0.0
    kernel_samples: list = field(default_factory=list)

    @property
    def kernel_mean_s(self) -> float:
        return float(np.mean(self.kernel_samples))

    @property
    def scale(self) -> float:
        return NOMINAL_KERNEL_S / self.kernel_mean_s

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.scale


class RefClock:
    """Samples the reference kernel and times intervals against it.

    ``handler_s`` accumulates every second spent sampling, so a tracer can
    exclude sampling from the spans it was taken in.  Use one clock per
    process; it owns SIGALRM between :meth:`start` and :meth:`stop`.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._previous_handler = None

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        for _ in range(3):  # warm the kernel's code paths and allocator
            reference_kernel()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def _sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    @contextmanager
    def interval(self):
        """Time the body; yields an :class:`Interval` filled in on exit."""
        iv = Interval()
        first = len(self.samples)
        self._sample()
        h0 = self.handler_s
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield iv
        finally:
            t1 = time.perf_counter()
            h1 = self.handler_s
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            iv.raw_s = (t1 - t0) - (h1 - h0)
            self._sample()
            iv.kernel_samples = self.samples[first:]
