"""Time one cold set-up of a workload in a fresh interpreter.

Run from the repository root:

    python3 perfbench/cold_setup.py <workload> <seed>

The clock starts before abctorus (and numpy with it) is imported and
stops once the seeded inputs exist and the stack (or, for `ledger`, the
certificates) has been built once.  The last line printed is the time in
seconds.
"""

import time

t0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
workload.build()
print(repr(time.perf_counter() - t0))
