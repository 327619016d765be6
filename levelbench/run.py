"""Level-recovery benchmark for qdosc.

    python3 levelbench/run.py --workload sweep_exact --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop in one single-threaded process, checks
every operation, and prints one JSON object as its last line of output:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  One operation recovers one level set, the four levels of one
parameter point.  See README.md in this directory.
"""

import time

T0 = time.perf_counter()  # set-up is timed from the start of this script

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# set before numpy is first imported, which reads them once
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# QDOSC_OUT overrides --out and would move the files the checks read
os.environ.pop("QDOSC_OUT", None)
# the checkout root in place of this script's own directory
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from levelbench import bench  # noqa: E402

if __name__ == "__main__":
    sys.exit(bench.main(sys.argv[1:], T0))
