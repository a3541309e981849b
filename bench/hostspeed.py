"""Host-speed sampling for the benchmark's timings.

The shared host this benchmark runs on changes speed by up to about 1.5x,
both from one 50 ms slice to the next and over periods of a minute or more,
longer than a run. While a piece of work is timed, a timer signal runs a
tiny fixed pure-Python task every INTERVAL_S and records how long it took.
The host's speed over the work is the mean of TASK_S / measured time over
those samples, and the work's time scaled to the nominal host speed is its
wall time times that speed. The task is the benchmark's own code, so a
change to the program moves the scaled time as it moves the wall time.

Only the standard library is used, so that a set-up probe can start
sampling before it imports numpy.
"""

import array
import signal
import statistics
import time

INTERVAL_S = 0.025
# the task's time on the host the benchmark was built on, at a typical moment
TASK_S = 50e-6

_ITEMS = list(range(1000))


def _task():
    total = 0
    for v in _ITEMS:
        total += v & 255
    return total


class Sampler:
    """Samples the host's speed on SIGALRM between start() and stop()."""

    def __init__(self):
        self.seconds = array.array("d")

    def sample(self, signum=None, frame=None):
        """Times the task on its second call, so that what the program left
        in the caches does not change the reading. The task makes no object
        that the garbage collector tracks, so it cannot start a collection
        of the program's objects.
        """
        _task()
        start = time.perf_counter()
        _task()
        self.seconds.append(time.perf_counter() - start)

    def start(self):
        """Take one sample now and one every INTERVAL_S."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling, take one last sample and return the mean speed."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return statistics.fmean(TASK_S / t for t in self.seconds)


def timed(fn, *args):
    """fn's result, its wall time, and the host's mean speed while it ran."""
    sampler = Sampler()
    sampler.start()
    try:
        begin = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - begin
    finally:
        speed = sampler.stop()
    return result, wall, speed
