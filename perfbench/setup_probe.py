"""Print the seconds one fresh interpreter spends importing qgames and
building a workload's game specs.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from time import perf_counter

from launch import import_qgames, pin_threads

pin_threads()

import workloads  # noqa: E402  (standard library only; generates the inputs)

workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
started = perf_counter()
workload.setup(import_qgames())
print(perf_counter() - started)
