"""Times in reference seconds, steady across the speed spells of a shared host.

On a host shared with other work, the same single-threaded operation
runs at speeds that drift by half within seconds and by a third over
minutes: one `lambda-tower` case with the same S-pair count took 2.1 s
and 3.5 s, and CPU time rises alike, so raw seconds are not comparable
between runs.  A fixed pure-Python kernel, timed while the operation
runs, follows that drift: over 100 s of two `lambda-tower` operations
repeated in turn, their times varied by 15% (coefficient of variation)
and their times in kernel units by 4%.

HostClock runs the kernel from a SIGALRM handler every SAMPLE_EVERY_S
of a timed phase, so samples fall inside operations as well as between
them.  A measured interval is converted to reference seconds: its length
less the kernel samples inside it, times KERNEL_REF_S over the kernel's
mean time inside the interval (or, for a short interval, at the NEAREST
samples to it).  KERNEL_REF_S is the kernel's time on the host the
benchmark was built on in a fast spell, so reference seconds read close
to that host's seconds.

The kernel is sparse polynomial arithmetic over F_101 of the kind
brimlab does (exponent tuples as dict keys, degrevlex sorting), written
here and independent of the program.  It runs with the garbage collector
off, so whatever the program leaves on the heap does not slow it.
"""

import gc
import random
import signal
import statistics
import time

P = 101
KERNEL_REF_S = 0.015
SAMPLE_EVERY_S = 0.2
NEAREST = 3


def _operands():
    rng = random.Random(20091015)

    def draw():
        return {(rng.randrange(6), rng.randrange(6), rng.randrange(6)): rng.randrange(1, P)
                for _ in range(40)}
    return draw(), draw()


_A, _B = _operands()


def _degrevlex(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def kernel():
    """A fixed amount of sparse polynomial multiplication and sorting."""
    out = {}
    for _ in range(6):
        out = {}
        for e1, c1 in _A.items():
            for e2, c2 in _B.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = (out.get(e, 0) + c1 * c2) % P
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        sorted(out, key=_degrevlex)
    return len(out)


class HostClock:
    """Kernel samples taken during a timed phase, and conversion of
    measured intervals to reference seconds.  As a context manager it
    samples on a timer; sample() takes one sample between operations."""

    def __init__(self):
        self.samples = []     # (start, end) of each kernel sample
        self._busy = False
        self._previous = None

    def sample(self):
        """Time the kernel once."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            self.samples.append((t0, time.perf_counter()))
        finally:
            if enabled:
                gc.enable()

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.sample()
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def ref(self, a, b):
        """Reference seconds of the measured interval [a, b]."""
        inside = [(t0, t1) for t0, t1 in self.samples if a <= t0 and t1 <= b]
        spent = sum(t1 - t0 for t0, t1 in inside)
        if len(inside) < NEAREST:
            mid = (a + b) / 2
            inside = sorted(self.samples, key=lambda s: abs((s[0] + s[1]) / 2 - mid))[:NEAREST]
        speed = statistics.mean(t1 - t0 for t0, t1 in inside)
        return (b - a - spent) * KERNEL_REF_S / speed

    def ratio(self):
        """Median kernel time of the phase over KERNEL_REF_S (above 1: a slow spell)."""
        return statistics.median(t1 - t0 for t0, t1 in self.samples) / KERNEL_REF_S
