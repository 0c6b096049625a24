"""Host speed reference: a fixed piece of work timed between commands.

On a shared host the same code runs at speeds that drift by up to 1.6x
between seconds and minutes: on the 2-vCPU VM this benchmark was tuned
on, radial-ball pass times cluster at 0.11 s and 0.17 s and whole runs
differ by up to 25 %.  run.py therefore scales command times to a
nominal host speed: a command that took `wall` seconds while the
reference kernel took `ref` seconds, on average just before and just
after it, counts as `wall * NOMINAL_S / ref`.  The kernel is fixed code
of the benchmark's own, so a change to cmasolve moves the scaled times in
full; only the host's drift divides out.
"""

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.002
READINGS = 9

_GRID = np.random.default_rng(0).random((17, 17, 17, 17))
_LINE = np.random.default_rng(1).random(512)


def _kernel() -> float:
    # the mix of the workloads: stencils on an n = 2 res-17 grid, small
    # array arithmetic as in the radial solver, and interpreter work
    t0 = perf_counter()
    g = _GRID
    for _ in range(2):
        d = ((g[2:, 1:-1, 1:-1, 1:-1] - 2.0 * g[1:-1, 1:-1, 1:-1, 1:-1]
              + g[:-2, 1:-1, 1:-1, 1:-1])
             * (g[1:-1, 2:, 1:-1, 1:-1] + g[1:-1, :-2, 1:-1, 1:-1]))
        float(np.abs(d).max())
    for _ in range(60):
        float((np.exp(_LINE) * _LINE - np.sqrt(_LINE)).max())
    acc = 0.0
    for i in range(6000):
        acc += i * 0.5
    return perf_counter() - t0


def reference_s() -> float:
    """Seconds the reference kernel takes now: median of READINGS runs."""
    return statistics.median(_kernel() for _ in range(READINGS))


def scaled(wall: float, ref_before: float, ref_after: float) -> float:
    """wall seconds at the nominal host speed."""
    return wall * NOMINAL_S / (0.5 * (ref_before + ref_after))
