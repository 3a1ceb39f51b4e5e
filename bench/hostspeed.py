"""Host speed reference for the benchmark's timings.

The shared host this benchmark was written on (a 2-vCPU Xeon VM at
2.1 GHz, Python 3.11.7) alternates, for seconds to half a minute at a
time, between a fast state and a slow one.  CPU time grows with wall time,
so the process is not descheduled: the same instructions run slower.  A
run's median call time then follows the share of the run the host spent
in each state, more than the program.

So every timed call is bracketed by runs of a fixed reference loop, and
each call's time is scaled by the host speed the reference saw around it:

    normalised_s = call_s * (NOMINAL_S / reference_s) ** exponent

The slow state lengthens the reference loop more than it lengthens the
program, and by how much more depends on the program's mix of work: a
`corpus` call grew 1.53x while the reference grew 1.77x, a `longpath`
call (numpy-heavy enumeration) 1.19x while the reference grew 1.55x.  The
exponent, log(call growth) / log(reference growth), is fixed per workload
(`Workload.host_exponent`); it is the value that minimised the spread of
normalised call times over long recordings at the seed commit.  Set-up
(`import planmark` plus `load_kb`) is pure-Python work whatever the
workload and gets `SETUP_EXPONENT`, found the same way on 50 set-ups each
of the `corpus` and `spread` bases.

At a given host speed the normalised time is proportional to the call
time, so a change that makes the program k times faster divides it by k.
`NOMINAL_S` is about what the reference takes on the host above in its
fast state, so there the normalised times read as wall times.  Raw wall
times are printed beside them.
"""

from __future__ import annotations

import gc
import time

NOMINAL_S = 0.020
SETUP_EXPONENT = 0.75
REFERENCE_STEPS = 100_000


def reference_work() -> int:
    """A fixed mix of what planmark spends its time on: tuple keys, dict
    lookups and updates, attribute-free arithmetic and string building."""
    table: dict[tuple[str, int], int] = {}
    names: list[str] = []
    for i in range(REFERENCE_STEPS):
        key = ("k", i % 251)
        table[key] = table.get(key, 0) + i
        if i % 7 == 0:
            names.append(f"{key[0]}{i}")
    return len(names) + len(table)


def reference_s() -> float:
    """Wall seconds of one run of the reference workload.  The garbage
    collector is off meanwhile, so that the caller's heap, which a
    collection would scan, does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def normalise(seconds: float, reference_s: float, exponent: float) -> float:
    """``seconds`` measured while the reference took ``reference_s``,
    scaled to the nominal host speed."""
    return seconds * (NOMINAL_S / reference_s) ** exponent
