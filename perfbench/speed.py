"""Machine-speed normalization.

The machine this benchmark was built on is shared: over tens of seconds the
same pure-Python work runs up to twice as slow, and every workload slows
with it.  So each timed operation is bracketed by `calibrate()`, a fixed
pure-Python loop, and reported in reference seconds: its wall time times
REFERENCE_S over the mean of the calibrations just before and just after
it (for a long child, of each stretch between calibrations).  The loop is benchmark code, so a change to miniscp moves only the
operation's time, never the calibration.
"""

from __future__ import annotations

from time import perf_counter

# The calibration loop's wall time on the reference machine when it is
# quiet (2-core Xeon, Python 3.11); normalized times read as seconds there.
REFERENCE_S = 0.016


def calibrate() -> float:
    """Time a fixed loop of what the program spends its time on: small
    tuples and dict stores, and a matcher-like scan that slices short
    strings."""
    t0 = perf_counter()
    table = {}
    for i in range(50_000):
        table[i & 1023] = (i, "ab"[i & 1])
    word = "abcab" * 20
    for _ in range(200):
        rest, pattern = word, "abc"
        while rest:
            if rest[0:1] == pattern[0:1]:
                rest, pattern = rest[1:], pattern[1:] or "abc"
            else:
                rest, pattern = rest[1:], "abc"
    return perf_counter() - t0


def normalized(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_S * 2 / (before + after)
