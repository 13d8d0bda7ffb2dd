"""Machine-speed calibration of the benchmark's timings.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent over seconds: the same DP job on the same circuit took
0.125 s in one five-second block and 0.238 s a minute later, in CPU time
as in wall time.  Wall times of runs made minutes apart are therefore not
comparable, while the ratio of a job's time to that of a fixed reference
computation run right next to it stays within a few percent for DP jobs
(single SAT sweep jobs still scatter by about fifteen percent).

So the closed-loop workloads run a *slice* of fixed pure-Python work before
the first job and after every job, and charge each job its wall time scaled
by the slices' nominal length over the mean of the two slices that bracket
it: the time the job would take on a machine that runs one reference unit
in exactly ``NOMINAL_UNIT_S``.  A slice lasts about a tenth of a job or
more, because a short slice is itself noisy.  The set-up probes are scaled
the same way, and ``http_mixed`` runs its slices while the fleet is idle
(see ``fleet.py``).  The reference work lives here, outside the program
under test, so no change to the program can change it.
"""

from __future__ import annotations

import itertools
import time

#: Nominal seconds of one reference unit: about its median on a 2-CPU
#: x86-64 VM under CPython 3 when the benchmark was made, so that calibrated
#: times read close to wall times there.  It only fixes the unit of the
#: calibrated times; it is a constant, not a measurement.
NOMINAL_UNIT_S = 0.0015
#: Units of the slices around each set-up probe.
SETUP_SLICE_UNITS = 100

_PERMS = list(itertools.permutations(range(5)))
_INDEX = {perm: index for index, perm in enumerate(_PERMS)}


def _compose(first, second):
    return tuple(first[x] for x in second)


def _unit() -> int:
    """Fixed work of the kind the mappers do: tuple hashing, dict lookups,
    small calls and comparisons."""
    cost = {}
    best = 0
    for index, perm in enumerate(_PERMS[:60]):
        for other in _PERMS[::7]:
            key = _INDEX[_compose(perm, other)]
            known = cost.get(key)
            if known is None or known > index:
                cost[key] = index
            best = min(best, key - index)
    return best + len(cost)


def reference_slice(units: int) -> float:
    """Wall seconds of one slice of *units* reference units."""
    start = time.perf_counter()
    for _ in range(units):
        _unit()
    return time.perf_counter() - start


def scale(before: float, after: float, units: int) -> float:
    """Factor that turns a wall time bracketed by two slices of *units*
    units into a calibrated time."""
    return units * NOMINAL_UNIT_S / ((before + after) / 2)
