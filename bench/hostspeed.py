"""Host-speed sampling, so timings can be scaled to one reference host speed.

On a shared host another tenant's work on the sibling hyperthread slows
every instruction stream by up to ~2x, in bursts of a fraction of a second
to several seconds, and some runs never see a quiet moment.  Raw timings
then depend on how busy the neighbours were during the run, not on the
program.

A fixed calibration loop (pure Python, independent of ellrig) is timed just
before and after every operation and, through an interval timer, every
``PERIOD_S`` while it runs.  An operation's time is multiplied by
``REFERENCE_S`` over the median loop time within ``WINDOW_S`` of it: the
result is its time on a host where the loop takes ``REFERENCE_S``.  The
loop's own time inside an operation is measured and taken out first.
"""

import bisect
import gc
import signal
import time

clock = time.perf_counter
PERIOD_S = 0.02
# contention bursts last 0.3 s and more; the median of the samples this
# close to an operation tames the noise of single 0.3 ms samples
WINDOW_S = 0.05
# the loop's fastest time on the host the benchmark was defined on (Intel
# Xeon at 2.1 GHz, 2 vCPUs, Python 3.11.7); any constant compares commits
# alike, this one keeps the scaled times close to quiet-host seconds there
REFERENCE_S = 3.1e-4


def _kernel():
    """About 0.3 ms of dict, tuple and complex work, like the ring code."""
    acc = {}
    for i in range(40):
        for j in range(20):
            key = (i % 7, j % 5, (i + j) % 3)
            acc[key] = acc.get(key, 0j) + complex(i, j) * (0.5 + 0.25j)
    return acc


def sample_s():
    """One timed run of the calibration loop.

    The garbage collector is off meanwhile, so that a collection the
    program's own allocations made due is not charged to the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        _kernel()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def scale(seconds, loop_s):
    """``seconds`` measured while the loop took ``loop_s``, at the reference host speed."""
    return seconds * REFERENCE_S / loop_s


def _start(entry):
    return entry[0]


class HostSpeed:
    """Context manager that samples the calibration loop while it is open."""

    def __init__(self):
        self.log = []  # (start, duration) of each calibration sample, in order
        self.spent = 0.0  # seconds spent inside the timer handler
        self._previous = None

    def sample(self):
        # the timer must not fire inside a sample and inflate it
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            t0 = clock()
            self.log.append((t0, sample_s()))
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def _on_timer(self, signum, frame):
        t0 = clock()
        self.sample()
        self.spent += clock() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def fastest_s(self):
        return min(d for _, d in self.log)

    def near_s(self, start, end):
        """Median calibration time within ``WINDOW_S`` of [start, end].

        A median, because a sample the process was preempted in reads
        several times too slow while the operation around it barely moves.
        """
        lo = bisect.bisect_left(self.log, start - WINDOW_S, key=_start)
        hi = bisect.bisect_right(self.log, end + WINDOW_S, key=_start)
        near = sorted(d for _, d in self.log[lo:hi])
        mid = len(near) // 2
        return near[mid] if len(near) % 2 else (near[mid - 1] + near[mid]) / 2

    def scale(self, seconds, start, end):
        """``seconds`` measured over [start, end], at the reference host speed."""
        return scale(seconds, self.near_s(start, end))
