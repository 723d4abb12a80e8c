"""e2ebench — the repository's one end-to-end benchmark.

``python3 -m e2ebench --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root builds the data, runs one
workload against the real program (``lbr serve`` over loopback TCP, or
a cold-opening worker process), checks every answer and prints every
metric as one JSON line.  README.md has the users, the metrics and the
layer → metric → workload table; BENCHMARK.json is the contract.

The benchmark imports the program from the checkout it stands in, so
importing this package puts ``<root>/src`` on ``sys.path``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: everything the benchmark writes lands here (git-ignored) or in a
#: temporary directory below it
OUT = os.path.join(HERE, "out")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
