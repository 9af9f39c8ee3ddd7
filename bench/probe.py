"""One set-up sample: a fresh interpreter imports the CLI and builds the
seeded operation list, then prints the perf_counter reading at which it
was ready.  run.py starts it with PYTHONPATH pointing at src/.

usage: python3 bench/probe.py WORKLOAD SEED
"""

import sys
import time

import twobridge.cli  # noqa: F401  (the import is what is measured)
import workloads

workloads.make_ops(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter()), flush=True)
