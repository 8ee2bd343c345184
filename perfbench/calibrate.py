"""Fixed pure-Python work that measures how fast the machine runs right now.

Usage: python3 perfbench/calibrate.py   (prints the calibration time in seconds)

A run starts this before and after each timed child. It scales each
child's verdict time by ``NOMINAL_S`` over the mean of the two
calibrations around that child, and its other times by ``NOMINAL_S``
over the run's median calibration. So times are given at the machine
speed at which this loop takes ``NOMINAL_S``.

This matters on the 2-CPU machine where the benchmark was defined. There,
the same child ran at speeds up to 1.8 times apart, in spells of a few
seconds to a minute. In one test, 28 hash-table children ran with three
calibrations before and after each. Their verdict times varied by 10.3 %
(coefficient of variation). Scaled by one calibration on each side, they
varied by 8.8 %; scaled by the mean of three on each side, by 5.6 %.

The loop looks like the explorer's hot path: nested tuples are hashed
into a visited dict with a working set of a few MB. A round runs nine
short segments and takes nine times the median segment, so a spike
inside one segment does not count. A call runs three rounds, each with a
fresh dict, and prints their mean: about a second. The loop is
independent of guardcheck, so a change to the program moves the
program's times and not this loop's. Changing the loop or ``NOMINAL_S``
changes every reported time. Do it only together with a new baseline.
"""

from __future__ import annotations

import statistics
import sys
import time

NOMINAL_S = 0.3
SEGMENTS = 9
SEGMENT_STEPS = 12_000
ROUNDS = 3


def segment(visited: dict, steps: int, seed: int) -> int:
    x = seed
    acc = 0
    for i in range(steps):
        x = (x * 1103515245 + 12345) % 2147483648
        state = (("int", x % 7919), (("sym", "t%d" % (x % 13)), ("int", i % 211)), x % 4096)
        if state in visited:
            acc += visited[state]
        else:
            visited[state] = i
    return acc


def measure() -> float:
    """One round: nine times the median segment time."""
    visited: dict = {}
    segment(visited, 20_000, 1)  # grow the dict to its working size first
    times = []
    for k in range(SEGMENTS):
        t0 = time.perf_counter()
        segment(visited, SEGMENT_STEPS, k + 2)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * SEGMENTS


if __name__ == "__main__":
    sys.stdout.write(f"{statistics.mean(measure() for _ in range(ROUNDS))!r}\n")
