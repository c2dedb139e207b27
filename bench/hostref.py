"""A fixed reference kernel that times the host, not the program.

On a shared machine the same work can take up to twice as long from one
second to the next, because other tenants contend for the core (see
NOTES.md). The benchmark times this kernel between consecutive operations
and scales each operation's seconds by NOMINAL_S / (the kernel's seconds
around it). Scaled times read as seconds on a host where the kernel takes
NOMINAL_S. The kernel is the benchmark's own frozen code, so no change to
the package can speed it up or slow it down.

The work resembles the package's hot loops: pure-Python bitmask recursion,
here counting the 5-cliques of a fixed 40-vertex random graph.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

NOMINAL_S = 0.0014  # the kernel's seconds on an unloaded 2-core VM, Python 3.11
_N, _P, _CLIQUES = 40, 5, 793


def _graph() -> tuple[int, ...]:
    rng = random.Random(20151)
    adj = [0] * _N
    for u in range(_N):
        for v in range(u + 1, _N):
            if rng.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj)


_ADJ = _graph()


def _count(cand: int, need: int) -> int:
    if need == 1:
        return cand.bit_count()
    total = 0
    while cand:
        b = cand & -cand
        cand ^= b
        nxt = cand & _ADJ[b.bit_length() - 1]
        if nxt.bit_count() >= need - 1:
            total += _count(nxt, need - 1)
    return total


def reference_s() -> float:
    """Seconds the kernel takes now."""
    t0 = perf_counter()
    found = _count((1 << _N) - 1, _P)
    elapsed = perf_counter() - t0
    if found != _CLIQUES:
        raise RuntimeError(f"reference kernel counted {found} cliques, expected {_CLIQUES}")
    return elapsed


class HostClock:
    """Scale factors to nominal host speed for operations run back to back.

    The kernel is read once before the first operation and once after each
    one; a reading is the median of ``samples`` kernel times. An operation's
    factor uses the mean of the readings on either side of it.
    """

    def __init__(self, samples: int = 1):
        self.samples = samples
        self._last = self._read()
        self.factors: list[float] = []

    def _read(self) -> float:
        return statistics.median(reference_s() for _ in range(self.samples))

    def factor(self) -> float:
        """Call right after an operation ends; returns that operation's factor."""
        now = self._read()
        factor = 2 * NOMINAL_S / (self._last + now)
        self._last = now
        self.factors.append(factor)
        return factor
