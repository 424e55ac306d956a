"""Record ``reference.json``: payload hashes and exact work counts.

Runs every workload serially at the default seed with the spans
installed and writes, per workload, the exact counts that must repeat
between runs of the same code and, for the figure workloads, each
cell's task and payload hash (``catalogue-golden`` is checked against
``tests/golden`` instead).  Run from the repository root, only after a
change that is meant to alter results::

    python3 perfbench/record_reference.py
"""

import json
import os
import shutil
import sys
import tempfile

import run as bench


def main():
    os.makedirs(bench.WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="record-", dir=bench.WORK_ROOT)
    try:
        bench.pin_environment(1, work_dir)
        sys.path.insert(0, bench.SRC)
        from layers import exact_counts
        from repro.runner import GridRunner
        from repro.runner.cache import ResultCache
        from spans import Tracer
        from workloads import (DEFAULT_SEED, REFERENCE_PATH, WORKLOADS,
                               payload_hash)

        reference = {}
        for name, workload in WORKLOADS.items():
            cells = workload.cells(DEFAULT_SEED)
            cache = ResultCache(directory=os.path.join(work_dir, name),
                                enabled=True)
            runner = GridRunner(workers=1, cache=cache, progress=False)
            tracer = Tracer()
            tracer.install()
            try:
                payloads = dict(workload.cold(runner, DEFAULT_SEED, cells))
            finally:
                tracer.uninstall()
            entry = {"seed": DEFAULT_SEED,
                     "counts": exact_counts(tracer, tracer.spans, cells)}
            if workload.seed_changes_tasks:  # else tests/golden holds them
                entry["cells"] = [
                    [label, task.content_hash(), payload_hash(payloads[label])]
                    for label, task in cells]
            reference[name] = entry
            print("%-18s %s" % (name, entry["counts"]))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
