"""End-to-end and per-layer benchmark of the grid-runner pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload catalogue-golden --seed 0 \\
        --seconds 5 --trace 0

Untraced (``--trace 0``), one run measures:

1. ``setup_s``: six fresh interpreters (``probe.py``, three before the
   cold pass and three at the end), each from spawn until its first
   cell could be submitted; the median is reported.
2. The cold pass: every cell of the workload streamed through a
   :class:`repro.runner.GridRunner` with one worker process per CPU
   into a fresh, empty cache.  This is a closed loop: each worker takes
   the next cell when its last one finishes.  Its wall time, CPU time
   (this process plus workers) and peak RSS are reported.
3. Warm passes, repeated for ``--seconds`` (at least five): the
   workload's cache-reading path.  ``warm_s`` is the fastest of them
   (best-of-N, as ``repro.perf`` reports): one pass takes milliseconds,
   and a shared host's speed drifts by tens of percent over seconds, which
   moves the median pass between runs far more than the fastest one.

Traced (``--trace 1``), one run repeats the untraced cold pass (for the
pool metrics), then runs the same cells serially in-process with the
spans of :mod:`spans` installed and the stack sampler running, followed
by traced warm passes, and prints the per-layer metrics instead.

Every pass checks every cell's payload (see :mod:`workloads`); a cell
that raises, is missing or fails a check counts in ``failed`` and the
command exits 1.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

WORKLOAD_NAMES = ("catalogue-golden", "video-access", "backbone-voip")
PROBES = 3  # set-up probes before the cold pass, and again after the warm
MIN_WARM_PASSES = 5

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_environment(workers, cache_dir):
    """Ignore the caller's ``REPRO_*`` knobs and set every one we use.

    BLAS/OpenMP pools are held to one thread so the load never exceeds
    one process per CPU.  Must run before numpy is imported.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update({name: "1" for name in THREAD_VARIABLES})
    os.environ.update({
        "PYTHONPATH": SRC,
        "REPRO_SCALE": "1",
        "REPRO_WORKERS": str(workers),
        "REPRO_PROGRESS": "0",
        "REPRO_CACHE": "1",
        "REPRO_CACHE_DIR": cache_dir,
    })


def cpu_seconds(usage):
    return usage.ru_utime + usage.ru_stime


def usage():
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed, seconds, workers, work_dir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workers = workers
        self.work_dir = work_dir
        self.cells = workload.cells(seed)
        self.expected = workload.expected(seed, ROOT)
        self.failures = {}  # label -> first problem seen
        self.problems = []  # run-level problems (not tied to one cell)
        self.hashes = None  # label -> payload hash of the cold pass
        if self.expected is not None and (
                set(self.expected) != {label for label, __ in self.cells}):
            self.problems.append("cell labels differ from the reference")

    # -- correctness ----------------------------------------------------
    def verify(self, pass_name, payloads):
        """Check one pass's payloads cell by cell."""
        from workloads import payload_hash, payload_problem

        hashes = {}
        for label, task in self.cells:
            if label not in payloads:
                self.fail(label, "%s pass: no payload" % pass_name)
                continue
            digest = hashes[label] = payload_hash(payloads[label])
            problem = payload_problem(task.kind, payloads[label])
            if problem:
                self.fail(label, "%s pass: %s" % (pass_name, problem))
            if self.expected is not None:
                task_hash, expected = self.expected.get(label, (None, None))
                if task_hash != task.content_hash():
                    self.fail(label, "task differs from the reference")
                elif digest != expected:
                    self.fail(label, "%s pass: payload hash differs from "
                                     "the reference" % pass_name)
            if self.hashes is not None and self.hashes.get(label) != digest:
                self.fail(label, "%s pass: payload differs from the cold "
                                 "pass" % pass_name)
        if self.hashes is None:
            self.hashes = hashes

    def fail(self, label, problem):
        self.failures.setdefault(label, problem)

    def consume(self, pass_name, stream):
        """Collect ``{label: payload}``; an exception ends the pass, and
        the cells it did not deliver fail in :meth:`verify`."""
        payloads = {}
        try:
            for label, payload in stream:
                payloads[label] = payload
        except Exception as exc:  # a failing cell must not end the run
            self.problems.append("%s pass raised %s: %s"
                                 % (pass_name, type(exc).__name__, exc))
        return payloads

    # -- phases -------------------------------------------------------
    def runner(self, workers, name):
        from repro.runner import GridRunner
        from repro.runner.cache import ResultCache

        cache = ResultCache(directory=os.path.join(self.work_dir, name),
                            enabled=True)
        return GridRunner(workers=workers, cache=cache, progress=False)

    def setup(self):
        """Spawn-to-ready seconds of :data:`PROBES` fresh interpreters,
        and each probe's phase durations."""
        walls, phases = [], []
        command = [sys.executable, os.path.join(HERE, "probe.py"),
                   self.workload.name, str(self.seed), str(self.workers),
                   os.path.join(self.work_dir, "probe-cache")]
        for __ in range(PROBES):
            started = time.perf_counter()
            with subprocess.Popen(command, stdout=subprocess.PIPE,
                                  text=True) as probe:
                line = probe.stdout.readline()
                walls.append(time.perf_counter() - started)
                probe.stdout.read()
            if probe.returncode != 0 or not line:
                raise RuntimeError("set-up probe failed (exit %s)"
                                   % probe.returncode)
            phases.append(json.loads(line))
        return walls, phases

    def cold(self):
        """The untraced parallel cold pass."""
        runner = self.runner(self.workers, "cache-cold")
        before = usage()
        started = time.perf_counter()
        payloads = self.consume("cold", self.workload.cold(
            runner, self.seed, self.cells))
        wall = time.perf_counter() - started
        after = usage()
        self.verify("cold", payloads)
        if runner.last_stats.get("cached", 0) != 0:
            self.problems.append("cold pass found %d cached cells"
                                 % runner.last_stats["cached"])
        own = cpu_seconds(after[0]) - cpu_seconds(before[0])
        workers = cpu_seconds(after[1]) - cpu_seconds(before[1])
        return {"runner": runner, "wall": wall, "cpu": own + workers,
                "worker_cpu": workers}

    def warm(self, runner, tracer=None):
        """Timed warm passes, repeated for ``seconds`` (at least
        :data:`MIN_WARM_PASSES`); returns ``[(seconds, cells found,
        first span, end span)]``, the span range only when traced."""
        os.environ["REPRO_CACHE_DIR"] = runner.cache.directory
        out_dir = os.path.join(self.work_dir, "report")
        passes = []
        deadline = time.perf_counter() + self.seconds
        while len(passes) < MIN_WARM_PASSES or time.perf_counter() < deadline:
            first = len(tracer.spans) if tracer else 0
            started = time.perf_counter()
            root = (tracer.span(self.workload.warm_root)
                    if tracer and self.workload.warm_root else nullcontext())
            try:
                with root:
                    found = self.workload.warm(runner, self.seed, self.cells,
                                               out_dir)
            except Exception as exc:  # reported; the run goes on
                self.problems.append("warm pass raised %s: %s"
                                     % (type(exc).__name__, exc))
                break
            passes.append((time.perf_counter() - started, found, first,
                           len(tracer.spans) if tracer else 0))
            if found != len(self.cells):
                self.problems.append("warm pass hit %d of %d cells"
                                     % (found, len(self.cells)))
                break
        return passes

    def verify_warm(self, runner):
        self.verify("warm", self.consume("warm", self.workload.warm_payloads(
            runner, self.seed, self.cells)))

    # -- results ------------------------------------------------------
    def result(self, metrics):
        correct = not self.failures and not self.problems
        return {"correct": correct, "attempted": len(self.cells),
                "failed": len(self.failures), "metrics": metrics}

    def untraced(self):
        walls, __ = self.setup()
        cold = self.cold()
        warm = self.warm(cold["runner"])
        self.verify_warm(cold["runner"])
        peak = max(item.ru_maxrss for item in usage()) / 1024.0
        # Probing again at the end samples the machine at two moments.
        walls += self.setup()[0]
        return self.result({
            "setup_s": (statistics.median(walls), "s"),
            "wall_s": (cold["wall"], "s"),
            "cells_per_s": (len(self.cells) / cold["wall"], "cells/s"),
            "cpu_s": (cold["cpu"], "s"),
            "warm_s": (min(item[0] for item in warm) if warm else 0.0, "s"),
            "peak_rss_mb": (peak, "MB"),
            "cells": (len(self.cells), "count"),
        })

    def traced(self):
        from layers import layer_metrics

        __, phases = self.setup()
        cold = self.cold()
        return self.result(layer_metrics(self, cold, phases))


def declared_metrics(trace):
    """``{name: unit}`` that BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in declared}


def format_metrics(metrics):
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the warm passes repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    return args


def main(argv=None):
    args = parse_args(argv)
    for needed in (os.path.join(SRC, "repro"),
                   os.path.join(ROOT, "tests", "golden")):
        if not os.path.isdir(needed):
            print("perfbench: %s is missing; run from a checkout of the "
                  "repository" % os.path.relpath(needed, ROOT),
                  file=sys.stderr)
            return 2
    workers = len(os.sched_getaffinity(0))
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        pin_environment(workers, os.path.join(work_dir, "cache-cold"))
        sys.path.insert(0, SRC)
        from workloads import WORKLOADS

        run = Run(WORKLOADS[args.workload], args.seed, args.seconds,
                  workers, work_dir)
        result = run.traced() if args.trace else run.untraced()
        emitted = {name: unit for name, (__, unit)
                   in result["metrics"].items()}
        if emitted != declared_metrics(args.trace):
            run.problems.append("metrics differ from BENCHMARK.json")
            result["correct"] = False
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another run is still using it
            pass
    for label, problem in sorted(run.failures.items()):
        print("FAILED %s: %s" % (label, problem), file=sys.stderr)
    for problem in run.problems:
        print("FAILED: %s" % problem, file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print("%-30s %14.6g %s" % (name, value, unit))
    result["metrics"] = format_metrics(result["metrics"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
