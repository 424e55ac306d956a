"""``python -m repro`` — command-line front end for the sweep registry.

Subcommands
-----------
``list``
    Catalog of registered sweeps (name, kind, provenance, cell count).
``describe NAME``
    Full scale-resolved description of one sweep; ``--hashes`` also
    prints each cell's content hash (the result-cache key input).
``run NAME``
    Execute a sweep through :func:`repro.api.run_sweep` and print one
    summary line per cell (``--format table``, the default), or its
    :class:`repro.results.set.ResultSet` as ``--format csv|json`` — to
    stdout or ``--output FILE``.  ``--cached-only`` loads the cached
    cells through :func:`repro.api.load_sweep` and never simulates.
    ``--workers/--no-cache/--progress`` map to the runner knobs;
    ``--workloads/--buffers/--discipline/--duration/--warmup/--seed``
    override the spec's axes for ad-hoc runs (overridden runs use
    different cache keys than the registered grid, by design).
``figures``
    Print the text view of the report's figures (all of them, or the
    names given): the same :data:`repro.report.figures.REPORT_FIGURES`
    descriptions ``report`` draws as SVG, rendered as plain-text
    heatmaps and tables.  Sweeps run through
    :func:`repro.api.run_sweep` and land in the shared result cache, so
    a later ``report`` re-simulates nothing.
``report``
    Build the SVG reproduction report (``index.md`` + one SVG per
    figure + ``fidelity.json`` with PASS/WARN/FAIL verdicts against the
    paper's digitized values) into ``--output DIR``.  ``--cached-only``
    renders from the result cache without ever simulating;
    ``--sample`` regenerates the pinned tiny sample committed under
    ``docs/sample_report/``.  See ``docs/REPORTING.md``.
``perf``
    Sim-core performance tooling: run the events/sec benchmark and
    write ``BENCH_simcore.json`` (``--quick`` for the CI smoke mode,
    ``--check`` to fail on a >30% events/sec regression versus the
    committed baseline), or profile one registry cell with
    ``--profile SWEEP [--cell N]``.

Exit status is 0 on success, 2 on bad arguments (argparse), 1 on
runtime failure or a bad scale or worker count (flag or ``REPRO_*``
variable).
"""

import argparse
import json
import sys

from repro import api
from repro.core import registry
from repro.core.registry import REGISTRY, resolve_scale
from repro.results import key_str
from repro.runner import GridRunner
from repro.runner.cache import ResultCache


# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------
def _parse_buffer(text):
    """Parse one buffer-size token: ``"64"`` or per-direction ``"64:8"``."""
    try:
        if ":" in text:
            down, up = text.split(":", 1)
            return (int(down), int(up))
        return int(text)
    except ValueError:
        raise SystemExit("invalid buffer size %r (want a packet count "
                         "like 64, or DOWN:UP like 64:8)" % (text,))


def _parse_csv(text, parse=lambda token: token):
    return tuple(parse(token.strip()) for token in text.split(",")
                 if token.strip())


def _overrides_from(args):
    """The ``repro.api.apply_overrides`` kwargs encoded in CLI flags."""
    overrides = {}
    if getattr(args, "workloads", None):
        overrides["workloads"] = _parse_csv(args.workloads)
    if getattr(args, "buffers", None):
        overrides["buffers"] = _parse_csv(args.buffers, _parse_buffer)
    if getattr(args, "duration", None) is not None:
        overrides["duration"] = args.duration
    if getattr(args, "warmup", None) is not None:
        overrides["warmup"] = args.warmup
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "discipline", None):
        overrides["disciplines"] = _parse_csv(args.discipline)
    return overrides


def _runner_from(args):
    try:
        return GridRunner(
            workers=getattr(args, "workers", None),
            cache=(ResultCache(enabled=False)
                   if getattr(args, "no_cache", False) else None),
            progress=True if getattr(args, "progress", False) else None)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _scale(args):
    """``--scale``, else ``REPRO_SCALE``; a bad value exits cleanly."""
    try:
        return resolve_scale(args.scale)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _print_runner_stats(runner):
    stats = runner.last_stats
    print("[%d cells: %d cached, %d computed, %.1f s on %d worker%s]"
          % (stats["cells"], stats["cached"], stats["computed"],
             stats["elapsed"], stats["workers"],
             "" if stats["workers"] == 1 else "s"),
          file=sys.stderr)


def _get_spec(name):
    try:
        return registry.get(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0])


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------
def cmd_list(args):
    scale = _scale(args)
    specs = list(REGISTRY.values())
    if args.json:
        print(json.dumps([spec.describe(scale) for spec in specs], indent=2))
        return 0
    rows = [("name", "kind", "provenance", "cells", "title")]
    for spec in specs:
        rows.append((spec.name, spec.kind, spec.provenance,
                     str(spec.cell_count(scale)), spec.title))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    for index, row in enumerate(rows):
        print("  ".join(col.ljust(widths[i]) for i, col in enumerate(row[:4]))
              + "  " + row[4])
        if index == 0:
            print("-" * (sum(widths) + 8 + len(rows[0][4])))
    print()
    print("%d sweeps (%d paper, %d extension) at REPRO_SCALE=%g" % (
        len(specs), len(registry.paper_sweeps()),
        len(registry.extension_sweeps()), scale))
    return 0


def cmd_describe(args):
    spec = _get_spec(args.name)
    scale = _scale(args)
    description = spec.describe(scale)
    if args.hashes:
        description["cell_hashes"] = {
            key_str(key): task.content_hash()
            for key, task in zip(spec.cells(scale), spec.tasks(scale))}
    if args.json:
        print(json.dumps(description, indent=2))
        return 0
    for field_name in ("name", "kind", "title", "provenance", "description"):
        print("%-12s %s" % (field_name + ":", description[field_name]))
    print("%-12s %s" % ("spec:", json.dumps(spec.to_json())))
    print("%-12s scale=%g -> %d cells, duration %.1f s, warmup %.1f s, "
          "seed %d" % ("resolved:", scale, description["cells"],
                       description["duration_s"], description["warmup_s"],
                       description["seed"]))
    print("%-12s %s" % ("workloads:", ", ".join(description["workloads"])))
    print("%-12s %s" % ("buffers:", ", ".join(
        str(b) for b in description["buffers"])))
    if len(description["disciplines"]) > 1:
        print("%-12s %s" % ("disciplines:",
                            ", ".join(description["disciplines"])))
    for param, values in description["axes"]:
        print("%-12s %s = %s" % ("axis:", param, ", ".join(map(str, values))))
    if description["counts"]:
        print("%-12s %s" % ("counts:", description["counts"]))
    if args.hashes:
        print("cell hashes:")
        for key, digest in description["cell_hashes"].items():
            print("  %-40s %s" % (key, digest))
    return 0


def cmd_run(args):
    runner = None if args.cached_only else _runner_from(args)
    spec = _get_spec(args.name)
    scale = _scale(args)
    try:
        spec = api.apply_overrides(spec, scale=scale,
                                   **_overrides_from(args))
        if args.cached_only:
            results = api.load_sweep(spec, scale=scale)
        else:
            results = api.run_sweep(spec, scale=scale, runner=runner)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.cached_only:
        expected = spec.cell_count(scale)
        if not results:
            print("run %s: no cached cells (run the sweep first, or "
                  "drop --cached-only)" % spec.name, file=sys.stderr)
            return 1
        if len(results) < expected:
            # A partial grid must never pass silently for analysis.
            print("run %s: partial grid — only %d of %d cells cached"
                  % (spec.name, len(results), expected), file=sys.stderr)
    if args.format == "json":
        text = results.to_json(indent=2) + "\n"
    elif args.format == "csv":
        text = results.to_csv()
    else:
        text = "".join(
            ["%s — %s (%d cells)\n" % (spec.name, spec.title, len(results))]
            + ["  %-40s %s\n" % (key_str(record.key), record.summary())
               for record in results])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print("wrote %d records to %s" % (len(results), args.output),
              file=sys.stderr)
    else:
        print(text, end="")
    if runner is not None:
        _print_runner_stats(runner)
    return 0


def cmd_figures(args):
    from repro.report.build import validate_selection
    from repro.report.figures import REPORT_FIGURES

    try:
        names = validate_selection(args.names)
    except ValueError as exc:
        raise SystemExit(str(exc))
    scale = _scale(args)
    runner = _runner_from(args)
    for name in names:
        figure = REPORT_FIGURES[name]
        spec = results = None
        if figure.sweep is not None:
            spec = _get_spec(figure.sweep)
            results = api.run_sweep(spec, scale=scale, runner=runner)
        print(figure.text(results, spec, scale))
        print()
    return 0


def cmd_report(args):
    from repro.report.build import generate_report, validate_selection

    # Usage errors exit cleanly here; anything generate_report raises
    # beyond this point is a real bug and must keep its traceback.
    try:
        validate_selection(args.names, sample=args.sample,
                           scale=args.scale)
    except ValueError as exc:
        raise SystemExit(str(exc))
    runner = None if args.cached_only else _runner_from(args)
    summary = generate_report(
        args.names or None, args.output,
        cached_only=args.cached_only,
        scale=args.scale, runner=runner, sample=args.sample)
    tally = summary["verdicts"]
    # No trailing runner-stats line: GridRunner.last_stats only covers
    # the final sweep; the per-figure report lines above already carry
    # cached/computed counts.
    print("wrote %s (%d figures: %s)" % (
        summary["out_dir"], len(summary["figures"]),
        ", ".join("%d %s" % (count, verdict)
                  for verdict, count in sorted(tally.items()))),
        file=sys.stderr)
    if args.strict and tally.get("FAIL"):
        return 1
    return 0


def cmd_perf(args):
    from repro.perf import bench as bench_module
    from repro.perf.profile import SORT_KEYS, profile_cell

    if args.profile:
        text, __ = profile_cell(args.profile, cell=args.cell,
                                scale=args.scale or 1.0, top=args.top,
                                sort=args.sort)
        print(text)
        return 0

    reference = None
    baseline = None
    try:
        baseline = bench_module.load_baseline(args.baseline)
        reference = baseline.get("reference")
    except (OSError, ValueError):
        if args.check:
            raise SystemExit("perf --check: no readable baseline at %r"
                             % args.baseline)
    document = bench_module.run_bench(quick=args.quick,
                                      repetitions=args.repetitions,
                                      reference=reference)
    print(bench_module.render_summary(document))
    # --check compares before anything is written, and a bare --check
    # never rewrites the committed baseline it compares against; pass
    # --output explicitly to keep the fresh measurement.
    passed = True
    if args.check:
        passed = bench_module.check_regression(document, baseline,
                                               tolerance=args.tolerance)
    output = args.output
    if output is None:
        output = "" if args.check else bench_module.DEFAULT_OUTPUT
    if output:
        path = bench_module.write_bench(document, output)
        print("wrote %s" % path, file=sys.stderr)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------
def _add_runner_arguments(parser):
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: REPRO_WORKERS or "
                             "all cores; 1 = serial in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--progress", action="store_true",
                        help="per-cell progress/ETA lines on stderr")
    parser.add_argument("--scale", type=float, default=None,
                        help="fidelity multiplier (default: REPRO_SCALE)")


def _add_override_arguments(parser):
    parser.add_argument("--workloads", help="comma-separated workload labels "
                                            "(subset of the sweep's axis)")
    parser.add_argument("--buffers", help="comma-separated buffer sizes in "
                                          "packets; DOWN:UP pairs allowed")
    parser.add_argument("--discipline", help="comma-separated queue "
                                             "disciplines "
                                             "(droptail/red/codel)")
    parser.add_argument("--duration", type=float, default=None,
                        help="measurement window override, simulated seconds")
    parser.add_argument("--warmup", type=float, default=None,
                        help="warm-up override, simulated seconds")
    parser.add_argument("--seed", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's experiment grids (and extensions) "
                    "from the declarative sweep registry.")
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser(
        "list", help="catalog of registered sweeps")
    list_parser.add_argument("--json", action="store_true",
                             help="machine-readable output")
    list_parser.add_argument("--scale", type=float, default=None)
    list_parser.set_defaults(fn=cmd_list)

    describe = sub.add_parser(
        "describe", help="show one sweep's full scale-resolved spec")
    describe.add_argument("name")
    describe.add_argument("--json", action="store_true")
    describe.add_argument("--hashes", action="store_true",
                          help="also print each cell's content hash")
    describe.add_argument("--scale", type=float, default=None)
    describe.set_defaults(fn=cmd_describe)

    run = sub.add_parser("run", help="execute (or, with --cached-only, "
                                     "load) a sweep and print per-cell "
                                     "summaries, CSV or JSON")
    run.add_argument("name")
    _add_runner_arguments(run)
    _add_override_arguments(run)
    run.add_argument("--format", choices=("table", "csv", "json"),
                     default="table",
                     help="output format (default: table)")
    run.add_argument("--output", "-o", default=None,
                     help="write to FILE instead of stdout")
    run.add_argument("--cached-only", action="store_true",
                     help="load cached cells only; never simulate "
                          "(repro.api.load_sweep)")
    run.set_defaults(fn=cmd_run)

    figures = sub.add_parser(
        "figures", help="print the text view of the report's figures "
                        "and tables (see `report` for the SVG + "
                        "fidelity view)")
    figures.add_argument("names", nargs="*",
                         help="report figures to print (default: all)")
    _add_runner_arguments(figures)
    figures.set_defaults(fn=cmd_figures)

    report = sub.add_parser(
        "report", help="build the SVG reproduction report: index.md + "
                       "per-figure SVGs + fidelity.json verdicts vs the "
                       "paper's digitized values")
    report.add_argument("names", nargs="*",
                        help="figures to include (default: all "
                             "reportable figures)")
    report.add_argument("--output", "-o", default="report",
                        help="report directory (default: report/)")
    report.add_argument("--cached-only", action="store_true",
                        help="render from cached cells only; never "
                             "simulate (partial grids are reported, "
                             "not fatal)")
    report.add_argument("--sample", action="store_true",
                        help="regenerate the pinned tiny sample "
                             "(docs/sample_report/): fixed figures, "
                             "axes and durations, scale 1.0")
    report.add_argument("--strict", action="store_true",
                        help="exit 1 if any figure verdict is FAIL")
    _add_runner_arguments(report)
    report.set_defaults(fn=cmd_report)

    perf = sub.add_parser(
        "perf", help="sim-core benchmark (BENCH_simcore.json) and "
                     "cell profiler")
    perf.add_argument("--quick", action="store_true",
                      help="CI smoke mode: scale-0.25 cells, 2 reps")
    perf.add_argument("--repetitions", type=int, default=None,
                      help="best-of-N timing (default: 3, quick: 2)")
    perf.add_argument("--output", default=None,
                      help="where to write the bench JSON (default: "
                           "BENCH_simcore.json, or nothing under "
                           "--check; '' always skips)")
    perf.add_argument("--baseline", default="BENCH_simcore.json",
                      help="committed baseline for --check and the "
                           "pre-overhaul reference block")
    perf.add_argument("--check", action="store_true",
                      help="exit 1 if events/sec regressed more than "
                           "--tolerance vs the baseline")
    perf.add_argument("--tolerance", type=float, default=0.30,
                      help="allowed fractional events/sec drop "
                           "(default 0.30)")
    perf.add_argument("--profile", metavar="SWEEP", default=None,
                      help="cProfile one registry cell instead of "
                           "benchmarking")
    perf.add_argument("--cell", type=int, default=0,
                      help="cell index for --profile (default 0)")
    perf.add_argument("--top", type=int, default=25,
                      help="rows to print for --profile")
    perf.add_argument("--sort", default="tottime",
                      help="profile sort key: tottime/cumulative/ncalls")
    perf.add_argument("--scale", type=float, default=None,
                      help="scale for --profile cells (default 1.0)")
    perf.set_defaults(fn=cmd_perf)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
