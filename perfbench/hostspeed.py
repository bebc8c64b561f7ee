"""Host-speed calibration for timings taken on a shared, noisy machine.

On a small shared VM the same program runs up to a third slower for tens of
seconds at a time, because other tenants load the host; repeating work
inside one run cannot average that out. So the benchmark times a fixed
chunk of pure-Python exact arithmetic (no ``biperiodic`` code) next to the
measured work, and scales each timing by a nominal chunk time over the
chunk times seen while the work ran:

    calibrated = raw * NOMINAL / mean(chunk times near the work)

The calibrated value reads as the time the work would take while the host
runs the chunk in NOMINAL seconds. The program's own cost is untouched by
the scaling, so a slower program still reads slower. run.py prints the raw
timings too.

Two ways of sampling, each with its own nominal chunk time:

* ``Interleaved``: inside the worker, between requests, on the same CPU;
* ``SpeedSampler``: a thread in run.py that shares one CPU with a measured
  subprocess (set-up processes, ``python -m biperiodic verify``), so its
  chunks are also preempted by that process and take longer. Those
  subprocesses therefore run on one CPU, and the sampler takes about a
  tenth of that CPU from them; the worker is not confined.

The nominal times were measured on the host the baseline was recorded on
(2 vCPUs, Python 3.11.7): 3.0 ms interleaved, and 1.25 times that when
sharing the CPU with ``python -m biperiodic verify``, so that both
calibrations use about one scale. A nominal time is a constant factor, so
it cancels when two commits are compared on one host; it only keeps the
calibrated values near seconds. To re-measure it on another host, read the
mean chunk times that run.py prints on its "host speed" line during a
quiet spell, and set the two constants to them.

CPU time instead of wall time does not remove the drift: timed with
``time.thread_time``, the same chunk moved between 26 and 40 ms over
40 seconds, within 1-3 % of its wall time. The slowdown is in the CPU the
VM gets, not in time the process spends waiting.
"""

from __future__ import annotations

import os
import threading
import time
from fractions import Fraction

_BIG_A = 7**2500
_BIG_B = 6**2600 + 1


def chunk() -> Fraction:
    """A fixed few milliseconds of Fraction arithmetic: small values with
    small gcds, then steps on numbers of about 2000 digits."""
    x = Fraction(1, 3)
    for _ in range(200):
        x = x * Fraction(7, 5) + 1
        x = Fraction(x.numerator % 10**30, x.denominator % 10**30 + 1)
    y = Fraction(_BIG_A, _BIG_B)
    for _ in range(40):
        y = y * Fraction(5, 6) + x
    return y


def slowdown(samples, nominal: float, start: float, end: float, margin: float = 1.0) -> float:
    """Mean duration over ``nominal`` of the (start, duration) samples taken
    within ``margin`` seconds of [start, end]; 1.0 if there are none."""
    inside = [d for s, d in samples if start - margin <= s <= end + margin]
    if not inside:
        return 1.0
    return sum(inside) / len(inside) / nominal


class Interleaved:
    """Calibration inside the measured process: ``after`` runs chunks until
    they have taken SHARE of the time the measured work took."""

    NOMINAL = 3.0e-3
    SHARE = 0.1

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._owed = 0.0

    def after(self, busy_s: float) -> None:
        self._owed += busy_s * self.SHARE
        while self._owed > 0:
            start = time.perf_counter()
            chunk()
            took = time.perf_counter() - start
            self.samples.append((start, took))
            self._owed -= took


class SpeedSampler:
    """Context manager: a thread times ``chunk`` every PERIOD_S. Inside the
    block, the calling thread, the sampler and every process spawned are
    kept on one CPU, so the sampler sees the speed the measured process
    gets; the CPU set is restored on exit."""

    NOMINAL = 1.25 * Interleaved.NOMINAL
    PERIOD_S = 0.03

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._cpus = os.sched_getaffinity(0)

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            start = time.perf_counter()
            chunk()
            self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> SpeedSampler:
        os.sched_setaffinity(0, {min(self._cpus)})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)
