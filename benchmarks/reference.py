"""A fixed piece of work, outside the package, that gauges the host's speed.

On a shared host the speed of one process swings by up to 2x in phases
of seconds to minutes.  The runner times this work before the first
round and after every round.  A round's time divided by the mean of the
reference times just before and just after it stays nearly constant
across those phases, and ``scaled_seconds`` turns that ratio back into
seconds at a fixed reference speed.  The work mixes what the workloads
do: small numpy transforms and elementwise arrays (a flow right-hand
side), pure-Python loops and ``Fraction`` arithmetic (a GH local
search, a class query).  Nothing in it calls ``krflab``, so a change
to the package leaves it alone.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

#: the reference's median time on the 2-core virtual machine the benchmark
#: was tuned on; it fixes the unit of ``scaled_seconds`` and never changes
REFERENCE_S = 0.05

_GRID = np.cos(np.linspace(0.0, 6.0, 256)).reshape(16, 16)


def reference_work() -> float:
    field = _GRID.copy()
    for _ in range(450):
        spectrum = np.fft.rfft2(field)
        field = np.fft.irfft2(spectrum * 0.5, s=field.shape) + _GRID
        field = np.sqrt(field * field + 1.0) - 1.0
    total = Fraction(0)
    for i in range(1, 2500):
        total += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
    count = 0
    for i in range(150_000):
        count += (i * 7) % 13
    return float(field.sum()) + float(total) + count


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scaled_seconds(rounds: list[float], references: list[float]) -> list[float]:
    """Each round's time at reference speed.

    ``references`` holds one time before the first round and one after
    every round, so round ``i`` sits between ``references[i]`` and
    ``references[i + 1]``.
    """
    if len(references) != len(rounds) + 1:
        raise ValueError("need one reference time before and one after every round")
    return [
        seconds * 2.0 * REFERENCE_S / (references[i] + references[i + 1])
        for i, seconds in enumerate(rounds)
    ]
