"""Time one fresh set-up of a workload and print it in seconds.

    PYTHONPATH=src python3 perfbench/setup_probe.py sweep|short-block|campaign

Set-up is importing semcomm, building the workload's channels and making
one small warm-up call of each kind the workload makes.
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.warm_up(sys.argv[1])
print(time.perf_counter() - t0)
