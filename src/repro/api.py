"""Stable public facade: run sweeps, get typed :class:`ResultSet`s.

This module is the one entry point everything user-facing goes through —
the CLI, the benchmarks, the examples and downstream analysis code::

    from repro import api

    results = api.run_sweep("fig7b")                 # ResultSet
    results.pivot("scenario", "buffer", "talks")     # heatmap dict
    results.to_csv("fig7b.csv")

    for record in api.iter_sweep("fig5"):            # streaming
        print(record.key, record.summary())

    cached = api.load_sweep("fig5")                  # cache-only, no sims

    api.generate_report(out_dir="report")            # SVG figures +
                                                     # fidelity verdicts

Sweeps are named registry entries (``python -m repro list``) or explicit
:class:`repro.core.registry.SweepSpec` objects (e.g. from
:func:`repro.core.registry.adhoc_sweep`).  ``overrides`` narrows or
retunes a sweep's axes without editing the registry — the same knobs the
``run``/``export`` CLI flags expose.  Results come back as typed records
in a :class:`repro.results.set.ResultSet`; the payload wire format and
cache schema underneath are exactly the runner's, so facade runs share
cache entries bit-identically with every other consumer.
"""

from dataclasses import replace

from repro.core import registry
from repro.core.registry import SweepSpec, resolve_scale
from repro.results.set import ResultSet
from repro.runner import GridRunner
from repro.runner.cache import ResultCache
from repro.runner.task import DISCIPLINES


def resolve_spec(name_or_spec):
    """A :class:`SweepSpec` from a registry name (or pass one through)."""
    if isinstance(name_or_spec, SweepSpec):
        return name_or_spec
    return registry.get(name_or_spec)


def apply_overrides(spec, scale=None, workloads=None, buffers=None,
                    duration=None, warmup=None, seed=None,
                    disciplines=None):
    """Resolve ``spec``'s axes at ``scale`` and apply ad-hoc overrides.

    ``workloads`` restricts the scenario axis to the given cell-key
    labels; ``buffers`` replaces the buffer axis (packet counts or
    ``(down, up)`` pairs); ``duration``/``warmup`` are literal simulated
    seconds (a duration override bypasses scale stretching);
    ``disciplines`` replaces the queue-discipline axis.  This is the
    one check on override values: unknown workload labels or
    disciplines, an empty workload/buffer/discipline list, a buffer
    size below one packet (either half of ``(down, up)``), a duration
    that is not positive and a negative warmup raise ValueError naming
    the value.  Overridden runs use different cache keys than the
    registered grid, by design.
    """
    for name, axis in (("workload", workloads), ("buffer", buffers),
                       ("discipline", disciplines)):
        if axis is not None and len(axis) == 0:
            raise ValueError("empty %s list" % name)
    for size in buffers or ():
        if any(part < 1 for part in (
                size if isinstance(size, (tuple, list)) else (size,))):
            raise ValueError("buffer size %r is below one packet"
                             % (size,))
    if duration is not None and duration <= 0:
        raise ValueError("duration %r must be positive" % (duration,))
    if warmup is not None and warmup < 0:
        raise ValueError("warmup %r must not be negative" % (warmup,))
    scale = resolve_scale() if scale is None else scale
    scenarios = spec.scenario_axis(scale)
    buffer_axis = spec.buffer_axis(scale)
    if workloads:
        wanted = tuple(workloads)
        unknown = set(wanted) - {s.key for s in scenarios}
        if unknown:
            raise ValueError("unknown workload label(s) %s (have: %s)" % (
                ", ".join(sorted(unknown)),
                ", ".join(s.key for s in scenarios)))
        scenarios = tuple(s for s in scenarios if s.key in wanted)
    if buffers:
        buffer_axis = tuple(tuple(b) if isinstance(b, list) else b
                            for b in buffers)
    changes = {"scenarios": scenarios, "scenarios_small": None,
               "buffers": buffer_axis, "buffers_small": None}
    if duration is not None:
        # A literal window at any scale: the floor alone carries the
        # value, so resolved_duration == duration even at REPRO_SCALE > 1.
        changes["duration"] = 0.0
        changes["duration_min"] = duration
    if warmup is not None:
        changes["warmup"] = warmup
    if seed is not None:
        changes["seed"] = seed
    if disciplines:
        disciplines = tuple(disciplines)
        unknown = set(disciplines) - set(DISCIPLINES)
        if unknown:
            raise ValueError("unknown discipline(s) %s (have: %s)" % (
                ", ".join(sorted(unknown)), ", ".join(DISCIPLINES)))
        changes["disciplines"] = disciplines
    return replace(spec, **changes)


def _prepare(name_or_spec, scale, overrides):
    spec = resolve_spec(name_or_spec)
    scale = resolve_scale() if scale is None else scale
    if overrides:
        spec = apply_overrides(spec, scale=scale, **overrides)
    return spec, scale


def iter_sweep(name_or_spec, *, scale=None, overrides=None, runner=None):
    """Stream one sweep's records as cells complete.

    Yields typed :mod:`repro.results.record` values (cache hits first,
    then pool completions), each carrying its sweep cell ``key`` and
    task ``index``.  Feed the stream to
    :meth:`repro.results.set.ResultSet.from_stream` to collect, or to a
    :class:`repro.results.set.StreamAggregator` for constant-memory
    aggregation over huge grids.
    """
    spec, scale = _prepare(name_or_spec, scale, overrides)
    runner = runner or GridRunner()
    tasks = spec.tasks(scale)
    keys = spec.cells(scale)
    for __, record in runner.iter_run(tasks, keys=keys):
        yield record


def run_sweep(name_or_spec, *, scale=None, overrides=None, runner=None):
    """Execute one sweep; returns a :class:`ResultSet` in task order.

    ``runner`` defaults to a fresh env-driven
    :class:`repro.runner.GridRunner` (parallel + cached).  The result
    equals collecting :func:`iter_sweep` — ``run`` is just the batch
    spelling.
    """
    return ResultSet.from_stream(
        iter_sweep(name_or_spec, scale=scale, overrides=overrides,
                   runner=runner))


def load_sweep(name_or_spec, *, scale=None, overrides=None, cache=None,
               strict=False):
    """Build a :class:`ResultSet` from cached cells only — no simulation.

    Cells missing from the cache are skipped (``strict=False``), or
    raise KeyError naming the first missing cell (``strict=True``).
    Useful for re-analyzing or exporting finished grids without paying
    for a runner, e.g. on a machine that only holds the cache.
    """
    spec, scale = _prepare(name_or_spec, scale, overrides)
    cache = cache or ResultCache()
    records = []
    from repro.results.record import record_from_payload

    for index, (task, key) in enumerate(zip(spec.tasks(scale),
                                            spec.cells(scale))):
        payload = cache.get(task)
        if payload is None:
            if strict:
                raise KeyError("cell %s of sweep %r is not cached"
                               % ("/".join(str(p) for p in key), spec.name))
            continue
        records.append(record_from_payload(task, payload, key=key,
                                           index=index))
    return ResultSet(records)


def generate_report(names=None, out_dir="report", **kwargs):
    """Build the SVG reproduction report (stable facade entry point).

    Thin passthrough to :func:`repro.report.build.generate_report` —
    ``index.md`` + one SVG per paper figure + ``fidelity.json`` with
    PASS/WARN/FAIL verdicts against the digitized paper data; accepts
    the same ``cached_only``/``scale``/``runner``/``sample`` keywords.
    Imported lazily so ``repro.api`` stays cheap for runner workers.
    """
    from repro.report.build import generate_report as _generate

    return _generate(names, out_dir, **kwargs)
