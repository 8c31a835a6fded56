"""A fixed piece of pure-Python work that measures the machine's speed.

The host these runs were tuned on lends its cores to other tenants, and
its speed drifts by 10-40 % over seconds to minutes, for the library
and for any other Python code alike.  The worker times `reference()`
right before each item, and run.py divides each item's time by the
median reference time around it, then multiplies by REF_NOMINAL_S.
Timings are therefore reported in reference-speed units: seconds on a
machine where one reference call takes REF_NOMINAL_S, which is about
what it takes on a quiet 2-core x86 host with Python 3.11.  The
library never runs inside the reference, so a faster library still
shows in full.

The reference does what the library's hot loop (the oracle's tree
search) does, in code of its own: a recursive walk over a small
automaton with a memo dict keyed by tuples and growing strings.  The
cyclic garbage collector is off while it runs, because a collection's
cost depends on the size of the library's heap.
"""

import gc
import statistics
import time

REF_NOMINAL_S = 0.00025

# references taken on each side of an item for its local machine speed
WINDOW = 4

_DEPTH = 11
_STEP = {s: {"0": (5 * s + 1) % 12, "1": (7 * s + 3) % 12} for s in range(12)}


def _walk(state, path, remaining, memo):
    if remaining == 0:
        return len(path) + state
    key = (state, path[-4:], remaining)
    hit = memo.get(key)
    if hit is not None:
        return hit
    total = 0
    for bit in "01":
        total += _walk(_STEP[state][bit], path + bit, remaining - 1, memo)
    memo[key] = total
    return total


def reference():
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _walk(0, "", _DEPTH, {})
    finally:
        if enabled:
            gc.enable()


def time_reference():
    """Seconds of one reference call, made after an untimed one so that
    it runs with warm caches whatever the library did before it."""
    reference()
    t = time.perf_counter()
    reference()
    return time.perf_counter() - t


def local_factors(ref_s):
    """Scale factors for the items timed between the references ref_s:
    reference i is taken just before item i and reference i + 1 just
    after it, so there is one item fewer than references.  Item i gets
    REF_NOMINAL_S over the median of references i - WINDOW .. i + WINDOW."""
    return [REF_NOMINAL_S / statistics.median(ref_s[max(0, i - WINDOW): i + WINDOW + 1])
            for i in range(len(ref_s) - 1)]
