"""Machine-speed probe: a fixed slice of work timed while a pass runs.

On a shared host the same computation can take half again as long
from one minute to the next, because other tenants compete for the
core.  The probe measures that directly: a wall-clock timer interrupts
the pass every PERIOD seconds and times one fixed slice of work, half
interpreter loop and half small-array NumPy, the two kinds of work
qsdlab's layers do (of the slices tried, the interpreter loop tracked
the speed of hypothesis quadrature and path stepping most closely).
The median slice time over a stretch of the pass (one call, or the
whole pass) is the machine's speed during it (the median, because a
slice that the host preempts reads long out of all proportion), and

    calibrated = (raw wall - probe time) * REFERENCE_S / median slice

is the stretch's time on a machine on which the slice takes
REFERENCE_S.
The slice never touches qsdlab, so a change to qsdlab moves only the
raw time.  Python runs the handler between bytecodes of the main
thread, so it never interrupts NumPy or SciPy inside a C call.
"""

import signal
import statistics
import time

import numpy as np

PERIOD = 0.1             # seconds between slices
REFERENCE_S = 0.003      # nominal slice time the calibrated times refer to
_X = np.linspace(0.1, 2.0, 4096)


def _slice():
    s = 0
    for i in range(20000):
        s += (i * 7) % 13
    y = _X.copy()
    for _ in range(100):
        y = y - 1e-3 * (y * y - 1.0)
    return s, y


def slice_time():
    t0 = time.perf_counter()
    _slice()
    return time.perf_counter() - t0


def factor_now(n=20):
    """REFERENCE_S over the median of n slices run right now."""
    return REFERENCE_S / statistics.median(slice_time() for _ in range(n))


class SpeedProbe:
    """Context manager: samples slice times while the block runs."""

    def __init__(self, on_slice=None):
        self.samples = []      # wall s of each slice
        self.spent = 0.0       # wall time taken by the probe itself
        self._on_slice = on_slice   # told each slice's wall time
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(slice_time())
        took = time.perf_counter() - t0
        self.spent += took
        if self._on_slice is not None:
            self._on_slice(took)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        """Position to take a later window of samples from."""
        return len(self.samples), self.spent

    def factor(self, since):
        """REFERENCE_S over the median slice time since a mark."""
        window = self.samples[since[0]:] or self.samples
        if not window:
            return 1.0
        return REFERENCE_S / statistics.median(window)

    def spent_since(self, since):
        return self.spent - since[1]
