"""Time one workload's set-up in a fresh interpreter and print the seconds.

Usage: python3 perfbench/setup_probe.py WORKLOAD WORK_DIR

Set-up is the import of pairtrace (with numpy), the material registry and,
for dispersion_sweep, the shared fig3a kernel. run.py runs this several
times and reports the median as setup_s.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.WORKLOADS[sys.argv[1]]().setup(Path(sys.argv[2]))
print(repr(time.perf_counter() - start))
