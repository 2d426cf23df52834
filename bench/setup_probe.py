"""One cold set-up of a workload, in the fresh interpreter that runs this file.

Times ``import ellrig.cli``, input generation, and ``load_document`` of every
document the workload uses, up to the moment the first operation could
start.  The calibration loop of hostspeed.py is timed just before and after
the set-up, in this process, so the caller can scale the set-up to the
reference host speed.  Prints one JSON object.  Run from the repository
root:

    python3 bench/setup_probe.py doc-verify 0
"""

import time

import hostspeed  # adds only gc and signal to what the interpreter has at start

LOOP_SAMPLES = 5
loop_s = [hostspeed.sample_s() for _ in range(LOOP_SAMPLES)]
t_start = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import ellrig.cli  # noqa: E402

t_import = time.perf_counter()

import workloads  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
workloads.first_operations(workload, seed, 64)
t_inputs = time.perf_counter()
for doc in workloads.documents(workload):
    ellrig.cli.load_document(workloads.document_path(doc))
t_ready = time.perf_counter()
loop_s += [hostspeed.sample_s() for _ in range(LOOP_SAMPLES)]
print(json.dumps({"module": ellrig.cli.__file__, "loop_s": loop_s,
                  "import_s": t_import - t_start,
                  "inputs_s": t_inputs - t_import, "load_s": t_ready - t_inputs,
                  "setup_s": t_ready - t_start}))
