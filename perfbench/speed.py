"""Machine-speed probe, so reported times do not drift with the host.

On a shared 2-vCPU virtual machine the same computation runs up to 1.9x
slower for stretches of seconds to minutes, because of load outside the
guest that the guest cannot see (no steal time is reported).  Measured
seconds then spread too much between runs to be compared: on such a box
the quartile spread of a run's wall time over seeds was 0.12 for
corpus_cold and 0.14-0.37 for small_warm, against a bound of 0.25.  So
each input's CPU time is scaled by a fixed reference computation timed
on the same core between and during the measured inputs.

The scaling is exact only for code that slows as much as the reference.
Kernels timed round-robin on one core for four minutes, with the log of
their 10-second window medians regressed on the reference's, slowed as
the reference to the power: 1.2-1.3 for a warm cubic ``analyze``
(Fraction-heavy lattice code), 1.3-1.4 for ``MultiPoly`` multiplication,
0.8-0.9 for ``isolate_roots`` at 1024 bits, and 0.1-0.2 for an
``analyze`` spending two thirds of its time in ``express_roots`` at high
precision.  Where the reference runs 1.5x slow, scaled times are thus
about 1.1x too slow for lattice code, 0.95x for ball arithmetic at 1024
bits and 0.7x, too favourable, for precision escalation in
``express_roots``; unscaled they would be 1.7x, 1.4x and 1.05x.  A
change that moves work between these kinds is judged fairly only when
both commits are measured at similar host speed; the probe times printed
with each run show that.

A measured process's own CPU time is scaled, not its wall time, because
the probing process takes its small turns on the same core.

The reference uses only the standard library (big integers and
``Fraction``, like galcert), so no change to galcert can move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# the reference's time on a quiet 2-vCPU x86 box; it only fixes the unit
REFERENCE_S = 0.004
PROBE_SAMPLES = 3


def _reference():
    acc = Fraction(1)
    x = 3 ** 200
    for i in range(1, 300):
        acc = acc * Fraction(i, i + 7) + Fraction(1, i)
        x = (x * x) % (7 ** 400 + i)
    return acc, x


def probe() -> float:
    """Median CPU time of a few runs of the reference computation (CPU
    time, so a turn given to a process on the same core does not count)."""
    times = []
    for _ in range(PROBE_SAMPLES):
        t0 = time.process_time()
        _reference()
        times.append(time.process_time() - t0)
    return statistics.median(times)


class SpeedLog:
    """Probe timings taken while measured processes run.  The probing
    process shares one core with them (see ``pin_to_one_core``) and
    probes every PROBE_EVERY_S, so each measured interval has probes
    taken on its own core in its own time window."""

    PROBE_EVERY_S = 0.25

    def __init__(self):
        self.samples = []  # (perf_counter at the probe, probe seconds)

    def take(self):
        t = time.perf_counter()
        self.samples.append((t, probe()))

    def scaled(self, cpu_s: float, start: float, end: float) -> float:
        """CPU seconds of an interval at reference speed: times REFERENCE_S
        over the median probe taken in (or next to) that interval."""
        if not self.samples:
            raise RuntimeError("no speed probe was taken")
        pad = self.PROBE_EVERY_S
        near = [p for t, p in self.samples if start - pad <= t <= end + pad]
        if not near:
            mid = (start + end) / 2
            near = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return cpu_s * REFERENCE_S / statistics.median(near)


def pin_to_one_core():
    """Keep this process and the children it starts on one core, so the
    probes see the same core as the measured work."""
    import os

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
