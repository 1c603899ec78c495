"""A fixed reference loop that times how fast the host runs Python right now.

The benchmark shares a few cores of a host whose speed drifts by 20 % and
more over seconds to minutes, as neighbours come and go; a pure-Python loop
of fixed work slows by the same factor as the program.  The worker runs
``probe`` between calls and divides each call's time by the time of the
probe run just before it, so a metric reads the program's cost at the
nominal probe speed, not the host's speed at that moment.  The probe is the
benchmark's own code and never calls the program, so a change to the
program moves the metrics and leaves the probe alone.

The mix follows the program's work: interpreter dispatch over small ints
and dicts (the counting loops), large-integer multiply and gcd (``Fraction``
powers and the pure-Python mpmath backend), many short-lived objects
(allocation, as in parsing and set-up), JSON text (the CLI's output) and
lookups scattered over a table of about a megabyte (the counting scan's
subset tables).  Without the scattered lookups the probe slowed less than
the program when neighbours crowded the caches.
"""

from __future__ import annotations

import json
import math
import time

# About the probe's median time on an Intel Xeon (2 vCPUs, Python 3.11.7):
# the scale that turns a probe ratio back into seconds.
NOMINAL_S = 0.003

_BIG = 3 ** 1200 + 17
_TABLE = list(range(1 << 10, (1 << 10) + (1 << 15)))


def _work() -> int:
    acc, seen = 1, {}
    for i in range(3000):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        seen[acc & 1023] = acc.bit_count()
    x = _BIG
    for i in range(40):
        x = (x * (_BIG + i)) % (_BIG * _BIG + 1)
        acc ^= math.gcd(x, _BIG - i) & 0xFFFF
    rows = [(i, str(i), [i] * 3) for i in range(600)]
    index = {r[1]: r for r in rows}
    text = json.dumps({"rows": [r[2] for r in rows[:200]], "n": len(index)})
    table = _TABLE
    for i in range(4000):
        acc += table[(i * 40503) & 32767] & 7
    return acc + len(json.loads(text)["rows"])


def probe() -> float:
    """Seconds taken by one run of the fixed loop, the faster of two."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best
