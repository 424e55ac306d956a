"""Shared helpers for the benchmark harness.

``bench_figures.py`` regenerates every report figure at a reduced
scale and gates it on its fidelity verdict; ``bench_fig1_wild.py`` and
the ``bench_ablation_*.py`` files print measured values next to the
paper's or the baseline's.  The grids themselves are declared once in
the sweep registry (:mod:`repro.core.registry`), so a benchmark,
``python -m repro run <name>`` and any other consumer execute the *same
cells* (bit-identical task hashes, shared result cache).

The file names do not match pytest's ``test_*.py`` pattern, so name
them on the command line.  ``REPRO_SCALE`` (float, default 1.0)
multiplies simulated durations / repetition counts and switches the
specs' reduced axes to the full paper grids; raise it for
higher-fidelity runs::

    REPRO_SCALE=4 python -m pytest benchmarks/bench_*.py --benchmark-only -s

Grids run through :class:`repro.runner.grid.GridRunner`: cells fan out
over ``REPRO_WORKERS`` processes and finished cells are cached under
``.repro_cache/``, so a repeat invocation (same scale/seed/code) skips
the simulations entirely.  Set ``REPRO_CACHE=0`` to force recomputation
and ``REPRO_PROGRESS=1`` for per-cell progress/ETA lines.
"""

from repro import api
from repro.core.registry import resolve_scale


def run_registered(name):
    """Run a registered sweep through the stable facade.

    Returns the typed :class:`repro.results.set.ResultSet`, indexed by
    cell key (``results[(workload, buffer)]``).  Same tasks, same cache
    entries as ``python -m repro run <name>``.
    """
    return api.run_sweep(name)


def scaled_duration(base, minimum=4.0):
    """Simulated seconds for a measurement window at the current scale."""
    return max(minimum, base * resolve_scale())


def scaled_count(base, minimum=1):
    """Repetition count at the current scale."""
    return max(minimum, int(round(base * resolve_scale())))


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations — repeating them
    measures nothing new and multiplies runtime.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def comparison_table(title, headers, rows):
    """Print an aligned paper-vs-measured table (shown with ``-s``)."""
    widths = [len(h) for h in headers]
    str_rows = [[str(c) for c in row] for row in rows]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["", "=== %s ===" % title]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in str_rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    text = "\n".join(lines)
    print(text)
    return text
