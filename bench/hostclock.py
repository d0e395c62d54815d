"""Host-speed correction for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed moves by up
to about 1.7x over tens of seconds, because other tenants load the same
physical cores; CPU time moves with wall time, so it is not a matter of
being descheduled. A fixed reference loop, written in the same style as
crowdcast's rollout (a Python loop over small numpy operations), is timed
right before and right after every timed interval. The interval's wall time
is then scaled by ``REF_S`` over the mean of those two reference times: it
becomes the time the interval would have taken on a host on which the
reference loop takes ``REF_S``. The loop only uses numpy and never calls
crowdcast, so a change to the program moves the scaled time exactly as it
moves the wall time at a fixed host speed.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.015          # nominal reference time: the loop's typical wall time
REF_ITERS = 1500       # on the 2-vCPU host the benchmark was tuned on
_POINTS = np.random.default_rng(0).normal(size=(64, 2))


def reference_s() -> float:
    """Wall time of one pass of the fixed reference loop."""
    pts = _POINTS
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_ITERS):
        d = pts[i % 64] - pts
        acc += float(np.sum(np.hypot(d[:, 0], d[:, 1])))
    return time.perf_counter() - t0


class HostClock:
    """Scales timed intervals to the reference host speed.

    ``scale()`` is called after each timed interval: it times the
    reference loop once and returns the factor for the interval that just
    ended, from the reference times on either side of it. Consecutive
    intervals share the reference time between them.
    """

    def __init__(self):
        self.refs = [reference_s()]

    def scale(self) -> float:
        self.refs.append(reference_s())
        return 2.0 * REF_S / (self.refs[-2] + self.refs[-1])

    def host_factor(self) -> float:
        """Median reference time over ``REF_S``: above 1 when the host ran
        slower than nominal during the run."""
        refs = sorted(self.refs)
        return refs[len(refs) // 2] / REF_S
