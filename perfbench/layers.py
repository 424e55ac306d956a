"""The traced serial run and the per-layer metrics it yields.

End-to-end numbers never come from here: tracing adds a Python call
per wrapped function and the sampler interrupts the process every few
milliseconds of CPU time.  ``trace.overhead_s`` states what that costs:
the number of spans times the measured cost of one traced call, plus
the time spent inside the sampler's handler
(``trace.profiler_overhead_s``).
"""

import math
import os
import statistics
import time
from collections import Counter

from spans import CELL, END, LAYERS, NAME, START, Sampler, Tracer
from workloads import DEFAULT_SEED, load_reference

#: Shares of ``sim.run`` attributed by the sampler, by ``repro`` package.
SAMPLED_PACKAGES = ("sim", "tcp", "udp", "apps")

#: Share of traced wall time the named layers' self times must cover.
MIN_COVERAGE = 0.95

#: Counts that must repeat exactly between runs of the same code.
EXACT_COUNTS = ("cells", "sim.events", "qoe.ssim_calls", "cache.put_calls")


def percentile(values, share):
    """Nearest-rank percentile; 0.0 for an empty list."""
    ordered = sorted(values) or [0.0]
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def calls(spans, name):
    return sum(1 for span in spans if span[NAME] == name)


def seconds(spans, name):
    return sum(span[END] - span[START] for span in spans if span[NAME] == name)


def exact_counts(tracer, cold_spans, cells):
    return {
        "cells": len(cells),
        "sim.events": tracer.sim_events,
        "qoe.ssim_calls": calls(cold_spans, "qoe.ssim"),
        "cache.put_calls": calls(cold_spans, "cache.put"),
    }


def traced_pass(run):
    """Run the workload serially, traced; returns the raw material."""
    runner = run.runner(1, "cache-traced")
    tracer = Tracer()
    sampler = Sampler(tracer)
    tracer.install()
    sampler.start()
    try:
        started = time.perf_counter()
        with tracer.span("runner.grid"):
            payloads = run.consume("traced", run.workload.cold(
                runner, run.seed, run.cells))
        cold_wall = time.perf_counter() - started
        cold_end = len(tracer.spans)
        warm = run.warm(runner, tracer)
    finally:
        sampler.stop()
        tracer.uninstall()
    run.verify("traced", payloads)
    run.verify_warm(runner)
    return runner, tracer, sampler, cold_wall, cold_end, warm


def expected_spans(run):
    """``{span name: (minimum, maximum)}`` calls per traced pass."""
    cells = len(run.cells)
    kinds = Counter(task.kind for __, task in run.cells)
    cold = {
        "runner.execute": (cells, cells),
        "cache.put": (cells, cells),
        "core.build_network": (cells, cells),
        "core.apply_workload": (cells, cells),
        "sim.run": (cells, math.inf),
        "results.jsonify": (cells, math.inf),
        "results.record": (cells, cells),
    }
    for name in ("qoe.ssim", "qoe.psnr", "media.decode", "media.clip_frames"):
        cold[name] = (kinds["video"], kinds["video"])
    cold["qoe.voip_score"] = (kinds["voip"], math.inf)
    cold["qoe.web_score"] = (kinds["web"], math.inf)
    warm = {"cache.get": (cells, cells), "results.record": (cells, cells)}
    if run.workload.warm_root is None:  # the report pass
        warm.update({"report.generate": (1, 1),
                     "report.fidelity": (1, math.inf),
                     "report.svg": (1, math.inf)})
    return cold, warm


def check_spans(run, cold_spans, warm_ranges, spans):
    """Fail the run when a wrapped function fired too often or never."""
    cold, warm = expected_spans(run)
    checks = [("cold", cold_spans, cold)]
    checks += [("warm", spans[first:end], warm) for first, end in warm_ranges]
    problems = []
    for pass_name, pass_spans, expected in checks:
        for name, (low, high) in expected.items():
            fired = calls(pass_spans, name)
            problem = ("span %s fired %d times in a %s pass, expected %s"
                       % (name, fired, pass_name,
                          low if low == high else "at least %d" % low))
            if not low <= fired <= high and problem not in problems:
                problems.append(problem)
    run.problems.extend(problems)


def check_counts(run, counts):
    if run.workload.seed_changes_tasks and run.seed != DEFAULT_SEED:
        return  # recorded at the default seed only
    reference = load_reference()[run.workload.name]
    for name in EXACT_COUNTS:
        if counts[name] != reference["counts"][name]:
            run.problems.append("nondeterministic %s: %d, recorded %d"
                                % (name, counts[name],
                                   reference["counts"][name]))


def directory_bytes(path):
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


def layer_metrics(run, cold, phases):
    """Every per-layer metric of one traced run, as ``{name: (value,
    unit)}``; consistency failures land in ``run.problems``."""
    runner, tracer, sampler, cold_wall, cold_end, warm = traced_pass(run)
    spans = tracer.spans
    cold_spans = spans[:cold_end]
    warm_ranges = [(first, end) for __, __, first, end in warm]
    self_times = tracer.self_times()

    check_spans(run, cold_spans, warm_ranges, spans)
    counts = exact_counts(tracer, cold_spans, run.cells)
    check_counts(run, counts)

    traced_wall = cold_wall + sum(item[0] for item in warm)
    covered = sum(duration for span, duration in self_times
                  if span[NAME].split(".")[0] in LAYERS)
    coverage = covered / traced_wall
    if coverage < MIN_COVERAGE:
        run.problems.append("named layers cover %.1f%% of traced wall time"
                            % (100 * coverage))

    cold_self = Counter()
    for span, duration in self_times[:cold_end]:
        cold_self[span[NAME].split(".")[0]] += duration

    def warm_median(name):
        return statistics.median([seconds(spans[first:end], name)
                                  for first, end in warm_ranges] or [0.0])

    execute = [span[END] - span[START] for span in cold_spans
               if span[NAME] == "runner.execute"]
    sim_total = sum(sampler.sim_counts.values()) or 1
    capacity = run.workers * cold["wall"]
    cells_found = sum(item[1] for item in warm)
    metrics = {
        "runner.worker_cpu_s": (cold["worker_cpu"], "s"),
        "runner.pool_idle_s": (capacity - cold["worker_cpu"], "s"),
        "runner.parallel_efficiency": (cold["worker_cpu"] / capacity,
                                       "ratio"),
        "runner.cell_p50_s": (percentile(execute, 0.5), "s"),
        "runner.cell_p90_s": (percentile(execute, 0.9), "s"),
        "runner.cell_max_s": (max(execute, default=0.0), "s"),
        "cache.put_s": (seconds(cold_spans, "cache.put"), "s"),
        "cache.put_calls": (counts["cache.put_calls"], "count"),
        "cache.bytes_written": (directory_bytes(runner.cache.directory),
                                "bytes"),
        "cache.get_s": (warm_median("cache.get"), "s"),
        "cache.hit_ratio": (cells_found / max(1, len(warm) * len(run.cells)),
                            "ratio"),
        "cache.fingerprint_s": (statistics.median(
            phase["fingerprint_s"] for phase in phases), "s"),
        "core.lowering_s": (statistics.median(
            phase["lowering_s"] for phase in phases), "s"),
        "core.build_network_s": (seconds(cold_spans, "core.build_network"),
                                 "s"),
        "core.apply_workload_s": (seconds(cold_spans, "core.apply_workload"),
                                  "s"),
        "sim.run_s": (seconds(cold_spans, "sim.run"), "s"),
        "sim.run_calls": (calls(cold_spans, "sim.run"), "count"),
        "sim.events": (counts["sim.events"], "count"),
        "sim.events_per_cpu_s": (
            counts["sim.events"]
            / (tracer.sim_cpu_s - sampler.sim_handler_s), "1/s"),
    }
    for package in SAMPLED_PACKAGES:
        metrics["%s.self_share" % package] = (
            sampler.sim_counts.get(package, 0) / sim_total, "ratio")
    metrics.update({
        "media.clip_frames_s": (seconds(cold_spans, "media.clip_frames"),
                                "s"),
        "media.decode_s": (seconds(cold_spans, "media.decode"), "s"),
        "qoe.ssim_s": (seconds(cold_spans, "qoe.ssim"), "s"),
        "qoe.ssim_calls": (counts["qoe.ssim_calls"], "count"),
        "qoe.psnr_s": (seconds(cold_spans, "qoe.psnr"), "s"),
        "qoe.voip_score_s": (seconds(cold_spans, "qoe.voip_score"), "s"),
        "qoe.web_score_s": (seconds(cold_spans, "qoe.web_score"), "s"),
        "results.jsonify_s": (seconds(cold_spans, "results.jsonify"), "s"),
        "results.record_s": (warm_median("results.record"), "s"),
        "report.generate_s": (warm_median("report.generate"), "s"),
        "report.fidelity_s": (warm_median("report.fidelity"), "s"),
        "report.svg_s": (warm_median("report.svg"), "s"),
        "trace.overhead_s": (len(spans) * tracer.span_cost()
                             + sampler.handler_s, "s"),
        "trace.coverage": (coverage, "ratio"),
        "trace.profiler_overhead_s": (sampler.handler_s, "s"),
    })
    for layer in LAYERS[:-1]:  # the report layer runs only in warm passes
        metrics["%s.self_s" % layer] = (cold_self[layer], "s")
    print_breakdown(run, self_times[:cold_end], sampler)
    return metrics


def print_breakdown(run, self_times, sampler):
    """Human-readable layer shares per cell kind (cold traced pass)."""
    kind_of = {task.content_hash()[:12]: task.kind for __, task in run.cells}
    by_kind = {}
    for span, duration in self_times:
        kind = kind_of.get(span[CELL])
        if kind is not None:
            by_kind.setdefault(kind, Counter())[span[NAME].split(".")[0]] += (
                duration)
    print("layer self time per cell kind (cold traced pass, share of "
          "cell time):")
    for kind in sorted(by_kind):
        totals = by_kind[kind]
        whole = sum(totals.values())
        shares = ", ".join("%s %.1f%%" % (layer, 100 * value / whole)
                           for layer, value in totals.most_common())
        print("  %-5s %6.2f s  %s" % (kind, whole, shares))
    whole = sum(sampler.sim_counts.values()) or 1
    print("inside Simulator.run (profiler-attributed, %d samples): %s" % (
        whole, ", ".join("%s %.1f%%" % (package, 100 * count / whole)
                         for package, count
                         in Counter(sampler.sim_counts).most_common())))
