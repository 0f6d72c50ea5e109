"""The machine's speed, measured by a fixed reference loop next to the work.

The reference machine (README) changes speed by up to about two times,
over seconds to minutes, as other guests on its host come and go, and
every part of a run slows with it.  So each timed piece of work is
scaled to the speed at which ``reference`` takes ``REF_S`` seconds:

    time at reference speed = measured time * REF_S / reference time

with the reference timed before and after each stretch of work of at
most ``REF_EVERY_S`` seconds, and the stretch scaled by the mean of the
two: the speed can change within a second.  ``reference`` calls
nothing in the program, so a change to the program cannot change it;
it does the kinds of work the program does (dicts and sets of tuples,
sorting, ``Fraction`` and modular integer arithmetic), so that it slows
with the machine as the program does.  It runs with the garbage
collector off, so that the number of objects the program keeps alive
does not change its time.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# About the median of reference_s() on the reference machine; a fixed
# definition, so that scaled times read as seconds on that machine.
REF_S = 0.018
REF_EVERY_S = 0.25


def reference():
    counts = {}
    for i in range(30000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    seen = set()
    for a in range(50):
        for b in range(50):
            seen.add(frozenset((a, b, a ^ b)))
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 17 + 1, i)
    acc = 0
    for i in range(40000):
        acc = (acc * 31 + i) % 1000003
    return len(ranked) + len(seen) + total.numerator % 7 + acc


def reference_s():
    """Time of one run of ``reference``, with the collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def at_reference_speed(times, refs, segment):
    """``times[i]`` scaled by the mean of the reference times before and
    after it: ``refs[segment[i]]`` and ``refs[segment[i] + 1]``."""
    return [t * 2 * REF_S / (refs[j] + refs[j + 1])
            for t, j in zip(times, segment)]
