"""One set-up measurement in a fresh interpreter: import ddckit and
ddckit.cli, build the workload, finish one warm-up op.  Started by run.py
with PYTHONPATH pointing at the checkout's src/; prints the import time."""

import json
import sys
import time

t0 = time.perf_counter()
import ddckit  # noqa: E402
import ddckit.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0

import warnings  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

warnings.simplefilter("ignore", ddckit.NoiseAmplificationWarning)
workload, seed = sys.argv[1], int(sys.argv[2])
WORKLOADS[workload](ddckit, seed, "--tiny" in sys.argv[3:]).cycle(0)[0].call()
print(json.dumps({"import_s": import_s}))
