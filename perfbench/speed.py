"""The host's speed, sampled during a pass, to scale times to a fixed speed.

On a shared machine the speed of one core swings by half or more within
seconds and stays low for minutes, while the process keeps its core (CPU
time equals wall time): the load of neighbours slows the core itself.  A
fixed pure-Python loop (the probe) is therefore timed every PROBE_EVERY_S
of wall time, from a timer signal, in the thread that runs the workload.
The probe runs between two bytecodes of the workload on the same core, so
it is slowed by what slows the workload at that moment.

An interval [begin, end) is then scaled to the reference speed: its wall
time, less the probes that ran inside it, times REFERENCE_S over the mean
probe time in a window of WINDOW_S on either side of it.  The result is
the interval's time on a host whose probe takes REFERENCE_S.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time

PROBE_EVERY_S = 0.02
WINDOW_S = 0.25
# About the fastest probe time seen on a 2-core VM (Python 3.11), so that
# scaled times read roughly as seconds on that VM when its neighbours idle.
REFERENCE_S = 5.0e-4

_SEQ = (0, 1, 0, 2, 1, 0)


def probe():
    """~0.5 ms of the interpreter work klr does: tuples, dicts, small ints."""
    seen = {}
    for w in itertools.permutations(range(6)):
        out = [None] * 6
        for a, v in enumerate(_SEQ):
            out[w[a]] = v
        key = tuple(out)
        seen[key] = seen.get(key, 0) + w[0] * w[5] - w[2]
    return seen


class SpeedProbe:
    """Times probe() on SIGALRM while started; records (start, seconds)."""

    def __init__(self):
        self.starts = []
        self.times = []

    def _fire(self, signum, frame):
        begin = time.perf_counter()
        probe()
        self.starts.append(begin)
        self.times.append(time.perf_counter() - begin)

    def start(self):
        self._fire(None, None)
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._fire(None, None)

    def scaled(self, begin, end):
        """Time of [begin, end) without the probes in it, at REFERENCE_S.

        Probes run when the pass starts and ends and every PROBE_EVERY_S in
        between; if none ran near the interval (a long call into C delays
        the signal), the mean of all of them is used.  A probe that starts
        inside the interval also ends inside it: it runs in the same
        thread, before the interval's end is read.
        """
        starts, times = self.starts, self.times
        inside = sum(times[bisect.bisect_left(starts, begin):
                           bisect.bisect_left(starts, end)])
        near = times[bisect.bisect_left(starts, begin - WINDOW_S):
                     bisect.bisect_left(starts, end + WINDOW_S)] or times
        return (end - begin - inside) * REFERENCE_S * len(near) / sum(near)
