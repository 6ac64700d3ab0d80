"""Time one cold first build in a fresh interpreter.

Usage: python3 perfbench/cold_build.py WORKLOAD N

Prints the normalised CPU seconds (see yardstick.py) of the workload's
first operation on its warm-up input, which includes the once-per-n
elimination.
"""

from __future__ import annotations

import sys

import workloads


if __name__ == "__main__":
    name, n = sys.argv[1], int(sys.argv[2])
    print(repr(workloads.LIBRARY[name].cold_build(n)))
