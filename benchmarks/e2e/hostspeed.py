"""How fast the host runs right now, from a fixed kernel timed beside the work.

The shared host this benchmark was built on changes speed by up to 2x
from one second to the next and from one minute to the next (other
tenants), each vCPU on its own, and CPU time slows as much as wall time,
so raw timings of identical work spread past any useful bound.  Every
timing the benchmark reports is therefore *host-normalized*: a raw time
divided by :meth:`HostSpeed.read`, the time a fixed kernel takes on the
same CPU, over :data:`REFERENCE_S`.  A :class:`Clock` takes a reading
every :attr:`Clock.every` seconds of work, in a pause between two
operations, and divides the work and the latencies between two readings
by the mean of those two.

The kernel (small NumPy products and a pure-Python loop, the instruction
mix of the simulator's control loops) does not use the program, so a
change to the program moves a normalized time exactly as it moves the raw
time, while a slower host moves neither.  On a host that runs the kernel
in REFERENCE_S a normalized time equals the raw one.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

REFERENCE_S = 0.001  # one kernel call on the reference host
REPS = 3  # kernel calls per reading; the reading is their median

_A = (np.arange(100.0).reshape(10, 10) % 7) / 70.0
_B = np.linspace(0.1, 0.9, 10)


def kernel(n=100):
    """Fixed work: ``n`` rounds of a 10x10 product, a clip, a dict update
    and a 40-step integer loop."""
    v = _B.copy()
    acc = {}
    for i in range(n):
        v = np.clip(_A @ v + _B * 0.5, 0.0, 1.0)
        k = i % 17
        acc[k] = acc.get(k, 0.0) + float(v[i % 10])
        t = 0
        for j in range(40):
            t += j * j
    return acc


class HostSpeed:
    """Readings of the kernel on the calling thread's CPU, or on each of
    ``cpu_sets`` in turn.

    With ``cpu_sets`` the calling thread runs the kernel on each set and
    then returns to the CPUs it had, and a reading is the mean over the
    sets: a load generator and its server on different CPUs both set a
    request's latency.
    """

    def __init__(self, cpu_sets=None):
        self.cpu_sets = cpu_sets
        self.readings = []

    def read(self):
        """Kernel time now over REFERENCE_S: 1.0 on the reference host,
        2.0 on a host running at half its speed."""
        if self.cpu_sets is None:
            slowness = self._median()
        else:
            own = os.sched_getaffinity(0)
            try:
                parts = []
                for cpus in self.cpu_sets:
                    os.sched_setaffinity(0, cpus)
                    parts.append(self._median())
            finally:
                os.sched_setaffinity(0, own)
            slowness = statistics.fmean(parts)
        self.readings.append(slowness)
        return slowness

    @staticmethod
    def _median():
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) / REFERENCE_S


class Clock:
    """Timed work, host-normalized by readings taken in pauses of it.

    The work calls :meth:`start` and :meth:`stop` around each timed call,
    :meth:`op` with each operation's raw latency, and :meth:`tick` where
    it may pause (between two operations).  Once ``every`` seconds of
    work have passed since the last reading, a tick pauses the clock for
    a new one.  The work and latencies since the last reading are then
    divided by the mean of the two readings around them and move to
    :attr:`raw`, :attr:`norm` and :attr:`latencies`.  A reading never
    falls inside a latency, because a tick comes between operations.
    """

    def __init__(self, speed, every):
        self.speed = speed
        self.every = every
        self.raw = 0.0  # work seconds as timed
        self.norm = 0.0  # the same, host-normalized
        self.latencies = []  # host-normalized, seconds
        self.raw_latencies = []  # the same as timed
        self._pending = 0.0
        self._pending_ops = []
        self._started = None
        self._last = speed.read()

    def start(self):
        self._started = time.perf_counter()

    def stop(self):
        self._pending += time.perf_counter() - self._started
        self._started = None

    def op(self, seconds):
        self._pending_ops.append(seconds)

    def tick(self):
        running = self._started is not None
        if running:
            now = time.perf_counter()
            self._pending += now - self._started
            self._started = now
        if self._pending < self.every:
            return
        self._read()
        if running:
            self._started = time.perf_counter()

    def flush(self):
        """Close the last stretch of work with a final reading."""
        if self._pending or self._pending_ops:
            self._read()

    def _read(self):
        reading = self.speed.read()
        slowness = (self._last + reading) / 2
        self._last = reading
        self.raw += self._pending
        self.norm += self._pending / slowness
        self.latencies += [x / slowness for x in self._pending_ops]
        self.raw_latencies += self._pending_ops
        self._pending = 0.0
        self._pending_ops = []
