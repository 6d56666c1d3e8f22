"""A fixed reference job that measures the machine's current speed.

On a shared host the speed of one core drifts by 20% or more over minutes,
and pure-Python code slows with it as a whole.  The benchmark times this
job between the program's jobs; a job's wall time divided by the reference
time around it is then a speed figure from which that drift cancels.

The job shares no code with the package and uses only the standard
library, so no change to the program or its dependencies can move it.  Its
mix resembles the program's: sieving, modular powers, Fraction arithmetic
and small-list bookkeeping, all in the interpreter.
"""

from __future__ import annotations

import time
from fractions import Fraction

from check import plain_sieve

PRIMES = plain_sieve(40_000)


def reference_job() -> int:
    """About 0.15 s of interpreter work on a 2 GHz Xeon; returns a checksum."""
    acc = 0
    for p in PRIMES[1:3000]:
        e = (p - 1) // 2
        found = [q for q in PRIMES[:24] if q != p and pow(q, e, p) != 1]
        acc += found[0] if found else 0
    flags = bytearray(200_000)
    for p in PRIMES[:90]:
        for m in range(p * p, len(flags), p):
            flags[m] = 1
    acc += flags.count(0)
    for k in range(1, 6000):
        x = Fraction(k, 7) * Fraction(3, k + 2) - Fraction(1, k)
        acc += x < 1
    return acc


def timed() -> tuple[float, float]:
    """Wall and CPU time of one reference job."""
    c0, t0 = time.process_time(), time.perf_counter()
    reference_job()
    return time.perf_counter() - t0, time.process_time() - c0
