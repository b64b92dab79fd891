"""Speed probes: how fast the core ran while a sample was measured.

On a shared machine the same Python code runs up to twice as slowly
when other tenants load the core (a hyperthread sibling, the caches),
in phases from a tenth of a second to minutes.  Thread CPU time slows
down with wall time, so neither clock removes it.  A probe runs a fixed
piece of pure-Python work (`work`, dict and integer operations like the
program's) and records its thread CPU time.  Probes taken every PERIOD_S
of CPU time during a sample see the phases the sample ran through, and

    speed = mean(REF_S / probe CPU time)

is the sample's mean rate relative to a reference core, on which one
probe takes REF_S (an uncontended core of an Intel Xeon, 2 vCPU, under
CPython 3.11).  A time t measured at that speed is reported as
t * speed: seconds on the reference core.  A program change that halves
the work halves the reported time whatever the load; a slow phase that
slows program and probes alike leaves it as it is.

The probes cost about 1-2% of a sample's time; their own wall time is
subtracted before scaling.
"""

import signal
import statistics
import time

PERIOD_S = 0.005
REF_S = 70e-6


def work():
    d = {}
    a = 0
    for i in range(1, 300):
        v = (i * 7919 + 13) % 1009
        d[v] = d.get(v, 0) + i
        a += v * v % 97
    return a


class Sampler:
    """Probes of one process: [phase, start, end, thread CPU seconds] each."""

    def __init__(self):
        self.phase = 0
        self.probes = []
        work()  # first call warms the code

    def probe(self, *_):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        c0 = time.thread_time()
        work()
        c1 = time.thread_time()
        t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
        self.probes.append([self.phase, t0, t1, c1 - c0])

    def run(self, k):
        for _ in range(k):
            self.probe()

    def start(self):
        signal.signal(signal.SIGPROF, self.probe)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # a SIGPROF still pending must not take the default action (exit)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)


def speed(probes, phase):
    """Mean rate of the core during `phase`, relative to the reference core."""
    return statistics.fmean(REF_S / p[3] for p in probes if p[0] == phase and p[3] > 0)


def overhead(probes, phase, lo, hi):
    """(wall, CPU) seconds spent in probes of `phase` that started in [lo, hi)."""
    inside = [p for p in probes if p[0] == phase and lo <= p[1] < hi]
    return sum(p[2] - p[1] for p in inside), sum(p[3] for p in inside)
