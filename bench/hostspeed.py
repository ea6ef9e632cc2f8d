"""How fast the host runs Python right now, from a fixed reference kernel.

On a shared virtual machine the CPU time of a fixed piece of Python work
drifts by 20 to 60% within seconds, as other tenants load the host (turbo
frequency, a busy sibling hyperthread, a shared cache); the guest has no
hardware counters to see this.  So the end-to-end run follows every item
with a fixed reference kernel, run until it has taken at least SHARE of
the item's CPU time, and scales the item's CPU time by NOMINAL_S over the
kernel's mean time in those calls, or in the last MIN_CALLS calls when
the item was too short for that many: item times read as on a host where
one kernel call takes NOMINAL_S.  Scaling each item by the kernel calls
right after it, rather than a whole run by one factor, follows the drift
within a run: with the host loaded on and off in 15 s stretches, the
spread of a workload's p50 over the stretches fell from 47% unscaled to
2%.

The kernel is the benchmark's own code and never calls the package under
test, so a change to the package moves the items' scaled times and not
the scale.  It mixes the operations the checker spends its time on: tuple
growth, frozensets, isinstance tests, dict updates and recursion over
small trees.  It tracks small items closely; items of seconds, whose
terms do not fit in the core's caches, slow by only about half as much as
the kernel when the host does, so their scaled times keep part of the
drift.  A kernel that also walked 10 MB of tuples tracked them better but
small items worse, and added its 10 MB to every run's peak_rss_mb.
"""

from __future__ import annotations

from collections import deque
from time import thread_time

SHARE = 0.1
MIN_CALLS = 4        # one call alone varies too much to scale a short item
# about the mean time of one kernel call on a 2-vCPU Intel Xeon (Sapphire
# Rapids) VM under CPython 3.11; it fixes the unit, nothing else
NOMINAL_S = 0.0005


def _tree(n):
    return ('leaf', n) if n == 0 else ('node', _tree(n - 1), _tree(n - 1))


def _size(t):
    return 1 if t[0] == 'leaf' else 1 + _size(t[1]) + _size(t[2])


def kernel():
    entries = ()
    seen = {}
    for i in range(120):
        entries = entries + (('x', i) if i % 3 else ('a', str(i)),)
        names = frozenset(e[1] for e in entries[-16:])
        seen[i % 29] = seen.get(i % 29, 0) + len(names)
        if isinstance(entries[-1][1], str):
            seen[entries[-1][1]] = i
    return _size(_tree(7)) + len(seen)


class HostSpeed:
    """Scale factors for CPU times, with totals for the report."""

    def __init__(self):
        self.calls = 0
        self.kernel_s = 0.0
        self.recent = deque(maxlen=MIN_CALLS)

    def scale(self, span_s):
        """The factor for a span of span_s CPU seconds that just ended."""
        calls, spent = 0, 0.0
        while calls == 0 or spent < SHARE * span_s:
            t0 = thread_time()
            kernel()
            dt = thread_time() - t0
            self.recent.append(dt)
            spent += dt
            calls += 1
        self.calls += calls
        self.kernel_s += spent
        if calls < MIN_CALLS:
            calls, spent = len(self.recent), sum(self.recent)
        return NOMINAL_S * calls / spent

    def mean_scale(self):
        return NOMINAL_S * self.calls / self.kernel_s
