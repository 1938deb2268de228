"""Machine-speed probe: fixed numpy/scipy work, timed between the passes.

The shared reference machine (2 vCPUs) changes speed by tens of percent, in
phases that last from under a second to many minutes, and the whole process
slows along with it: interpreter loops, dense and sparse LAPACK alike.  A
pass's time is therefore divided by the mean of the probe readings taken
just before and just after it, and multiplied by PROBE_REF_S, a typical
reading on the reference machine.  The result is the pass's time in seconds
at the reference machine's speed.

The probe calls nothing from graphpde and its sizes are fixed, so a change
to the program leaves it alone: a slower program still reads slower.  Its
four kernels, about equal in time, mirror the kinds of work the workloads
do: interpreter-bound Python, a dense LU, a sparse LU with solves, and many
small dense LUs.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# typical probe reading on the reference machine of baseline.json
PROBE_REF_S = 0.035
# A reading is the mean of REPEATS runs, so that it averages the machine's
# fast and slow spells the way a pass does.  Consecutive readings still
# differ by 10-25 %, and that scatter is most of what is left in a run's
# rescaled figures.
REPEATS = 6


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.dense = rng.standard_normal((300, 300))
        self.small = rng.standard_normal((30, 30))
        n = 2000   # a larger matrix would raise the process's peak RSS
        self.sparse = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.5), np.full(n - 1, -1.0)],
                               [-1, 0, 1], format="csc")
        self.rhs = rng.standard_normal(n)
        self.measure()   # warm-up: first calls load LAPACK and SuperLU code

    def _once(self) -> None:
        s = 0
        for i in range(75000):
            s += i * i % 7
        for _ in range(6):
            sla.lu_factor(self.dense)
        for _ in range(8):
            lu = spla.splu(self.sparse)
            for _ in range(5):
                lu.solve(self.rhs)
        for _ in range(200):
            sla.lu_solve(sla.lu_factor(self.small), self.small[:, 0])

    def measure(self) -> float:
        """Seconds for one run of the probe now: the mean of REPEATS runs."""
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            self._once()
        return (time.perf_counter() - t0) / REPEATS
