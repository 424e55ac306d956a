"""One fresh interpreter's set-up, up to the first cell submission.

``python3 perfbench/probe.py WORKLOAD SEED WORKERS CACHE_DIR`` imports
the program, lowers the workload's cells and computes the source
fingerprint that keys the result cache, then prints one JSON line of
phase durations (seconds) and exits without running a cell.  The
parent times the whole interpreter from spawn to that line.
"""

import json
import sys
import time

started = time.perf_counter()

from repro.runner import GridRunner  # noqa: E402
from repro.runner.cache import ResultCache  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

imported = time.perf_counter()


def main(name, seed, workers, cache_dir):
    lowering = time.perf_counter()
    WORKLOADS[name].cells(int(seed))
    fingerprint = time.perf_counter()
    runner = GridRunner(workers=int(workers),
                        cache=ResultCache(directory=cache_dir, enabled=True),
                        progress=False)
    runner.cache.fingerprint
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - started,
                      "lowering_s": fingerprint - lowering,
                      "fingerprint_s": done - fingerprint}), flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
