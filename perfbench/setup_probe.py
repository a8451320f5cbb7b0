"""Set-up in a fresh interpreter: import repro, build both front-ends.

Run as ``python setup_probe.py <src dir>``; prints the import time in
seconds.  The parent times the whole process, start to exit.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import repro  # noqa: E402
from repro.service import BatchScheduler, SchedulingService  # noqa: E402

imported = time.perf_counter() - start
BatchScheduler(workers=1)
SchedulingService(workers=1)
print(repr(imported))
