"""Fidelity scoring: reproduced grids vs the paper's digitized values.

The digitized numbers in :mod:`repro.core.paper_data` have sat next to
the benchmarks for human eyeballing; this module turns them into a
machine-checked verdict per figure.  For every reportable sweep a
:class:`FigureCheck` declares which paper grid each reproduced column is
compared against and which thresholds gate the verdict; calling
:func:`evaluate` with the sweep's :class:`repro.results.set.ResultSet`
produces a :class:`FigureFidelity` carrying the metrics and a
``PASS``/``WARN``/``FAIL`` verdict (``SKIP`` when there is no digitized
data or no overlapping cells).

Metrics
-------
``max_abs_deviation`` / ``mean_abs_deviation``
    Cell-wise ``|reproduced - paper|`` in the figure's own units (MOS,
    SSIM, seconds of page-load time, percentage points of utilization,
    ms of queueing delay).
``rank_correlation``
    Spearman's rho between the paper's values and ours over **all**
    compared cells — does the reproduction order the cells the way the
    paper does?  This is the primary scientific gate: the paper's
    conclusions are about *which* configurations are better, not about
    third decimals.
``buffer_rank_correlation``
    Mean Spearman's rho along the buffer axis, per workload row, over
    rows whose paper series is not flat (range >= ``flat_epsilon``) and
    has at least three overlapping sizes.  ``None`` when no row
    qualifies — flat paper rows carry no ordering signal.
``trend_agreement``
    Fraction of qualifying rows whose end-to-end direction (value at
    the largest highlighted buffer minus the smallest — the paper's
    discussion anchors, see
    :data:`repro.core.paper_data.HIGHLIGHT_BUFFERS`) matches the
    paper's sign.
``monotonicity``
    For checks with :class:`MonotoneSpec` expectations (Figure 5):
    the minimum per-row Spearman's rho of the reproduced series against
    its expected direction across the buffer axis.

Shape checks
------------
Each :class:`Shape` of a check is one qualitative expectation on the
reproduction alone ("noBG/64 talks > 3.9", "delay at 256 > 4 x delay
at 8"), graded as its own gate keyed by the shape's label: PASS when
its operator holds on every selected cell, FAIL otherwise (no WARN
band).  A shape none of whose cells is present is undefined.

Verdict rule: every *gated* metric is graded PASS/WARN/FAIL against its
thresholds and the figure verdict is the worst grade.  Metrics and
shapes whose value is undefined (``None``) never gate.  Threshold
values are calibrated against full-scale (``REPRO_SCALE=4``)
reproduction runs — see ``docs/REPORTING.md`` for each figure's
measured margins.
"""

import math
import operator
from dataclasses import dataclass, field

from repro.core import paper_data
from repro.qoe.scales import G114_ACCEPTABLE_MS, G114_PROBLEMATIC_MS

PASS, WARN, FAIL, SKIP = "PASS", "WARN", "FAIL", "SKIP"

#: Severity order for combining per-gate grades into one verdict.
_SEVERITY = {PASS: 0, WARN: 1, FAIL: 2}


# ---------------------------------------------------------------------------
# Rank statistics (dependency-free).
# ---------------------------------------------------------------------------
def _ranks(values):
    """Average ranks (1-based) with ties sharing their mean rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        stop = start
        while (stop + 1 < len(order)
               and values[order[stop + 1]] == values[order[start]]):
            stop += 1
        mean_rank = (start + stop) / 2.0 + 1.0
        for position in range(start, stop + 1):
            ranks[order[position]] = mean_rank
        start = stop + 1
    return ranks


def spearman(xs, ys):
    """Spearman's rank correlation; None for n < 2 or a constant side."""
    if len(xs) != len(ys):
        raise ValueError("length mismatch: %d vs %d" % (len(xs), len(ys)))
    if len(xs) < 2:
        return None
    rank_x, rank_y = _ranks(list(xs)), _ranks(list(ys))
    mean_x = sum(rank_x) / len(rank_x)
    mean_y = sum(rank_y) / len(rank_y)
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(rank_x, rank_y))
    sxx = sum((a - mean_x) ** 2 for a in rank_x)
    syy = sum((b - mean_y) ** 2 for b in rank_y)
    if sxx == 0.0 or syy == 0.0:
        return None  # a constant series carries no ordering signal
    return sxy / math.sqrt(sxx * syy)


# ---------------------------------------------------------------------------
# Check declarations.
# ---------------------------------------------------------------------------
def _default_map_key(key):
    """Sweep cell key -> paper grid key: ``(workload, buffer)``."""
    return (key[0], key[1])


def _split_label_key(key):
    """table1-access keys: ``("short-few/up", (64, 8))`` -> paper key."""
    return tuple(key[0].split("/", 1))


def _workload_key(key):
    """table1-backbone keys: ``("long", 749)`` -> ``"long"``."""
    return key[0]


@dataclass(frozen=True)
class Thresholds:
    """Verdict gates for one figure (all in the figure's units).

    A ``None`` pass bound disables that gate entirely; a metric whose
    measured value is ``None`` (undefined) never gates either way.
    """

    max_deviation_pass: float = None
    max_deviation_warn: float = None
    rank_pass: float = None
    rank_warn: float = None
    trend_pass: float = None
    trend_warn: float = None
    #: Paper rows with a value range below this are "flat" and excluded
    #: from buffer-axis rank / trend statistics.
    flat_epsilon: float = 0.0


@dataclass(frozen=True)
class SeriesSpec:
    """One reproduced column compared against one digitized paper grid."""

    label: str  # series name, e.g. "talks" / "uplink" / "SD"
    paper: dict  # {paper key: digitized value}
    column: str  # record column (repro.results record.value name)
    factor: float = 1.0  # repro value -> figure units (e.g. 100 for %)
    filters: tuple = ()  # ((column, value), ...) pre-filters on the set
    map_key: callable = _default_map_key


@dataclass(frozen=True)
class MonotoneSpec:
    """A qualitative expectation: ``column`` is monotone in the buffer
    size (``direction`` +1 rising / -1 falling) for every workload row.
    Used where the paper shows a trend but no digitizable per-cell
    numbers (Figure 5's utilization boxplots).  On sweeps with extra
    cell axes (resolution, discipline), ``filters`` must pin them to a
    single variant — mixed variants in one row raise rather than
    silently corrupting the per-row statistic."""

    label: str
    column: str
    direction: int = 1
    factor: float = 1.0
    filters: tuple = ()  # ((column, value), ...) pre-filters on the set


#: Shape operators.
_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge}
_REDUCERS = {"min": min, "max": max}


@dataclass(frozen=True)
class Shape:
    """A qualitative expectation: selected cells of ``column`` compare
    with ``op`` against a literal ``bound``, or against the ``than``
    cell as ``factor * than + offset``.

    ``cells`` and ``than`` are cell-key patterns where ``"*"`` matches
    every value present on that axis; a ``"*"`` in ``than`` takes the
    left cell's value.  ``reduce`` names ``"min"``/``"max"`` for the
    left side and, with ``than``, for the right side: the shape then
    compares those two numbers instead of cell pairs.  ``column`` is a
    record column name, or a function of the record.
    """

    label: str
    column: object
    cells: tuple
    op: str  # "<", "<=", ">" or ">="
    bound: float = None
    than: tuple = None
    factor: float = 1.0
    offset: float = 0.0
    reduce: tuple = ()


@dataclass(frozen=True)
class FigureCheck:
    """Everything needed to score one figure's reproduction."""

    figure: str
    units: str  # unit of the deviation metrics ("MOS", "pp", "s", ...)
    series: tuple = ()  # SeriesSpec entries
    monotone: tuple = ()  # MonotoneSpec entries
    thresholds: Thresholds = field(default_factory=Thresholds)
    shapes: tuple = ()  # Shape entries
    notes: str = ""


@dataclass
class FigureFidelity:
    """The scored comparison of one figure (see module docstring)."""

    figure: str
    verdict: str
    units: str = ""
    compared: int = 0
    metrics: dict = field(default_factory=dict)
    gates: dict = field(default_factory=dict)
    series: list = field(default_factory=list)
    worst: list = field(default_factory=list)
    notes: str = ""

    def to_json(self):
        """Plain-JSON dict (the ``fidelity.json`` per-figure shape)."""
        return {
            "figure": self.figure,
            "verdict": self.verdict,
            "units": self.units,
            "compared": self.compared,
            "metrics": dict(self.metrics),
            "gates": {name: dict(gate) for name, gate in self.gates.items()},
            "series": [dict(entry) for entry in self.series],
            "worst": [list(entry) for entry in self.worst],
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------
def _series_pairs(spec, results):
    """Aligned ``{paper key: (paper value, repro value)}`` for one series."""
    filters = dict(spec.filters)
    grid = results.value_map(spec.column, **filters)
    pairs = {}
    for cell_key, repro_value in grid.items():
        key = spec.map_key(cell_key)
        if key in spec.paper and repro_value is not None:
            pairs[key] = (float(spec.paper[key]),
                          float(repro_value) * spec.factor)
    return pairs


#: The paper's discussion anchors, flattened across both testbeds;
#: trend agreement compares the endpoints at the smallest/largest
#: highlighted size present in a row (falling back to the row's own
#: extremes when a partial grid holds no highlighted cell).
_HIGHLIGHTS = frozenset(size for sizes in
                        paper_data.HIGHLIGHT_BUFFERS.values()
                        for size in sizes)


def _buffer_rows(pairs):
    """Group series pairs by workload row: ``{row: [(buffer, p, r)]}``.

    Only keys of the ``(workload, numeric buffer)`` shape contribute —
    table-style paper keys carry no buffer axis.
    """
    rows = {}
    for key, (paper_value, repro_value) in pairs.items():
        if not (isinstance(key, tuple) and len(key) == 2
                and isinstance(key[1], (int, float))):
            continue
        rows.setdefault(key[0], []).append((key[1], paper_value,
                                            repro_value))
    return {row: sorted(points) for row, points in rows.items()}


def _trend_endpoints(points):
    """The two (buffer, paper, repro) anchor points of one sorted row:
    the smallest and largest *highlighted* buffer size present
    (:data:`repro.core.paper_data.HIGHLIGHT_BUFFERS`), or the row's own
    extremes when no highlighted size overlaps."""
    highlighted = [point for point in points if point[0] in _HIGHLIGHTS]
    anchors = highlighted if len(highlighted) >= 2 else points
    return anchors[0], anchors[-1]


def _grade(value, pass_bound, warn_bound, higher_is_better):
    if higher_is_better:
        if value >= pass_bound:
            return PASS
        if warn_bound is not None and value >= warn_bound:
            return WARN
        return FAIL
    if value <= pass_bound:
        return PASS
    if warn_bound is not None and value <= warn_bound:
        return WARN
    return FAIL


def _matches(pattern, key):
    if len(pattern) != len(key):
        return False
    for part, value in zip(pattern, key):
        if part != "*" and part != value:
            return False
    return True


def _bound_gate(value, bound, holds):
    """A pass/fail gate: no WARN band."""
    return {"value": value, "pass": bound, "warn": None,
            "level": PASS if holds else FAIL}


def _shape_pairs(shape, results):
    """The ``(left, right-hand side)`` pairs one :class:`Shape` compares."""
    def select(pattern):
        if "*" in pattern:
            records = [record for record in results
                       if _matches(pattern, record.key)]
        else:
            records = [results[pattern]] if pattern in results else []
        selected = {}
        for record in records:
            value = (shape.column(record) if callable(shape.column)
                     else record.value(shape.column))
            if value is not None:
                selected[record.key] = float(value)
        return selected

    def right(value):
        return shape.factor * value + shape.offset

    left = select(shape.cells)
    if shape.than is None:
        if shape.reduce and left:
            return [(_REDUCERS[shape.reduce[0]](left.values()), shape.bound)]
        return [(value, shape.bound) for value in left.values()]
    than = select(shape.than)
    if shape.reduce:
        if not (left and than):
            return []
        return [(_REDUCERS[shape.reduce[0]](left.values()),
                 right(_REDUCERS[shape.reduce[1]](than.values())))]
    pairs = []
    for key, value in left.items():
        partner = tuple(part_of_key if part == "*" else part
                        for part, part_of_key in zip(shape.than, key))
        if partner in than:
            pairs.append((value, right(than[partner])))
    return pairs


def _shape_gate(shape, results):
    """Grade one :class:`Shape`; None when no selected cell is present.

    The gate value is the worst selected value against a literal bound,
    or the worst left - right difference against ``than`` (pass 0).
    """
    pairs = _shape_pairs(shape, results)
    if not pairs:
        return None
    compare = _OPS[shape.op]
    worst = max if shape.op in ("<", "<=") else min
    holds = all(compare(left, right) for left, right in pairs)
    if shape.than is None:
        return _bound_gate(worst(left for left, __ in pairs), shape.bound,
                           holds)
    return _bound_gate(worst(left - right for left, right in pairs), 0.0,
                       holds)


def evaluate(check, results):
    """Score one figure's :class:`ResultSet` against its check."""
    thresholds = check.thresholds
    fidelity = FigureFidelity(figure=check.figure, verdict=SKIP,
                              units=check.units, notes=check.notes)
    deviations = []  # (abs deviation, paper key, paper, repro)
    pooled_paper, pooled_repro = [], []
    row_rhos, trend_hits, trend_rows = [], 0, 0

    for spec in check.series:
        pairs = _series_pairs(spec, results)
        series_devs = [abs(r - p) for p, r in pairs.values()]
        fidelity.series.append({
            "label": spec.label,
            "column": spec.column,
            "compared": len(pairs),
            "paper_cells": len(spec.paper),
            "max_abs_deviation": max(series_devs) if series_devs else None,
        })
        for key, (paper_value, repro_value) in sorted(
                pairs.items(), key=lambda item: str(item[0])):
            deviations.append((abs(repro_value - paper_value),
                               "%s %s" % (spec.label, "/".join(
                                   str(part) for part in (
                                       key if isinstance(key, tuple)
                                       else (key,)))),
                               paper_value, repro_value))
            pooled_paper.append(paper_value)
            pooled_repro.append(repro_value)
        for row, points in sorted(_buffer_rows(pairs).items()):
            paper_series = [p for __, p, __ in points]
            repro_series = [r for __, __, r in points]
            if (len(points) < 3 or max(paper_series) - min(paper_series)
                    < thresholds.flat_epsilon):
                continue
            rho = spearman(paper_series, repro_series)
            if rho is not None:
                row_rhos.append(rho)
            trend_rows += 1
            low, high = _trend_endpoints(points)
            paper_delta = high[1] - low[1]
            repro_delta = high[2] - low[2]
            if paper_delta * repro_delta > 0 or (
                    paper_delta == 0 and repro_delta == 0):
                trend_hits += 1

    # Qualitative expectations evaluated on the reproduction alone.
    mono_rhos = []
    for spec in check.monotone:
        grid = results.value_map(spec.column, **dict(spec.filters))
        rows = {}
        for key, value in grid.items():
            if value is None or not isinstance(key[1], (int, float)):
                continue
            row = rows.setdefault(key[0], {})
            if key[1] in row:
                raise ValueError(
                    "monotone check %r on figure %r sees several cells "
                    "at (%r, %r) — pin the sweep's extra axes with "
                    "MonotoneSpec.filters" % (spec.label, check.figure,
                                              key[0], key[1]))
            row[key[1]] = float(value) * spec.factor
        for row, by_buffer in sorted(rows.items()):
            points = sorted(by_buffer.items())
            if len(points) < 3:
                continue
            rho = spearman([b for b, __ in points], [v for __, v in points])
            if rho is not None:
                mono_rhos.append(rho * spec.direction)

    shape_gates = {}
    for shape in check.shapes:
        shape_gate = _shape_gate(shape, results)
        if shape_gate is not None:
            shape_gates[shape.label] = shape_gate

    compared = len(deviations)
    fidelity.compared = compared
    if compared == 0 and not mono_rhos and not shape_gates:
        fidelity.notes = (fidelity.notes
                          or "no overlap between reproduced cells and "
                             "digitized paper data")
        return fidelity

    # Fewer than three pooled pairs make Spearman degenerate (always
    # exactly +/-1 — a sign test masquerading as a correlation), so the
    # metric is undefined and never gates (fig5 has only two anchors;
    # its ordering is gated by monotonicity instead).
    pooled_rho = (spearman(pooled_paper, pooled_repro)
                  if compared >= 3 else None)
    metrics = {
        "max_abs_deviation": (max(d for d, *__ in deviations)
                              if deviations else None),
        "mean_abs_deviation": (sum(d for d, *__ in deviations) / compared
                               if deviations else None),
        "rank_correlation": pooled_rho,
        "buffer_rank_correlation": (sum(row_rhos) / len(row_rhos)
                                    if row_rhos else None),
        "trend_agreement": (trend_hits / trend_rows if trend_rows
                            else None),
        "monotonicity": min(mono_rhos) if mono_rhos else None,
    }
    fidelity.metrics = metrics
    fidelity.worst = [
        [label, paper_value, round(repro_value, 4)]
        for __, label, paper_value, repro_value in sorted(
            deviations, key=lambda item: (-item[0], item[1]))[:3]]

    # -- gates ----------------------------------------------------------
    gates = {}

    def gate(name, value, pass_bound, warn_bound, higher_is_better):
        if value is None or pass_bound is None:
            return
        gates[name] = {
            "value": value,
            "pass": pass_bound,
            "warn": warn_bound,
            "level": _grade(value, pass_bound, warn_bound,
                            higher_is_better),
        }

    gate("max_abs_deviation", metrics["max_abs_deviation"],
         thresholds.max_deviation_pass, thresholds.max_deviation_warn,
         higher_is_better=False)
    rank_value = metrics["buffer_rank_correlation"]
    if rank_value is None:
        rank_value = metrics["rank_correlation"]
    gate("rank_correlation", rank_value, thresholds.rank_pass,
         thresholds.rank_warn, higher_is_better=True)
    gate("trend_agreement", metrics["trend_agreement"],
         thresholds.trend_pass, thresholds.trend_warn,
         higher_is_better=True)
    gate("monotonicity", metrics["monotonicity"], thresholds.rank_pass,
         thresholds.rank_warn, higher_is_better=True)
    gates.update(shape_gates)
    fidelity.gates = gates
    if gates:
        fidelity.verdict = max((g["level"] for g in gates.values()),
                               key=_SEVERITY.get)
    else:
        fidelity.verdict = SKIP
        fidelity.notes = fidelity.notes or ("not enough overlapping data "
                                            "to gate any metric")
    return fidelity


# ---------------------------------------------------------------------------
# The per-figure check catalog.
#
# Threshold calibration: the PASS/WARN bounds below were set against a
# full-scale (REPRO_SCALE=4) reproduction run with comfortable headroom
# over the measured deviation (see docs/REPORTING.md for the measured
# values per figure).  Tightening a bound is a deliberate act: do it
# only with a fresh full-scale run in hand.
# ---------------------------------------------------------------------------
_MOS_THRESHOLDS = Thresholds(
    max_deviation_pass=1.5, max_deviation_warn=2.5,
    rank_pass=0.6, rank_warn=0.3,
    trend_pass=0.5, trend_warn=0.25,
    flat_epsilon=0.5)


def _table1_access_series():
    """Utilization/loss series from Table 1's access half."""
    columns = (("up utilization", 0, "up_utilization", 100.0),
               ("down utilization", 1, "down_utilization", 100.0),
               ("up loss", 2, "up_loss", 100.0),
               ("down loss", 3, "down_loss", 100.0))
    return tuple(
        SeriesSpec(label, {key: row[index] for key, row
                           in paper_data.TABLE1_ACCESS.items()},
                   column, factor=factor, map_key=_split_label_key)
        for label, index, column, factor in columns)


def _table1_backbone_series():
    columns = (("down utilization", 0, "down_utilization", 100.0),
               ("loss", 2, "down_loss", 100.0))
    return tuple(
        SeriesSpec(label, {key: row[index] for key, row
                           in paper_data.TABLE1_BACKBONE.items()},
                   column, factor=factor, map_key=_workload_key)
        for label, index, column, factor in columns)


def _ms(column):
    """A seconds column in milliseconds, converted the way
    :func:`repro.qoe.scales.g114_class` converts it."""
    def in_ms(record):
        return record.value(column) * 1000.0
    return in_ms


def _median(boxplot):
    """The median of a QoS record's utilization boxplot method (what
    :class:`repro.report.figures.Boxes` draws as Figure 5's line)."""
    def median(record):
        return getattr(record, boxplot)()[2]
    return median


def _fig5_anchor(index):
    """Table 1's long-many/bidir utilization, anchored at the 64-packet
    downlink-BDP buffer of the fig5 sweep."""
    return {("long-many", 64):
            paper_data.TABLE1_ACCESS[("long-many", "bidir")][index]}


CHECKS = {
    "fig4-up": FigureCheck(
        figure="fig4-up", units="ms",
        series=(SeriesSpec("uplink", paper_data.FIG4_UP_ONLY_UPLINK,
                           "up_mean_delay", factor=1000.0),),
        thresholds=Thresholds(
            max_deviation_pass=1500.0, max_deviation_warn=2500.0,
            rank_pass=0.9, rank_warn=0.6,
            trend_pass=0.99, trend_warn=0.5,
            flat_epsilon=50.0),
        # The staircase crosses from G.114 "acceptable" to "bad"; the
        # axis ends are 8 and 256 packets at every scale.
        shapes=(Shape("delay at 256 > 4 x at 8", "up_mean_delay",
                      ("*", 256), ">", than=("*", 8), factor=4.0),
                Shape("delay at 8 G.114 acceptable [ms]",
                      _ms("up_mean_delay"), ("*", 8), "<=",
                      G114_ACCEPTABLE_MS),
                Shape("delay at 256 G.114 bad [ms]", _ms("up_mean_delay"),
                      ("*", 256), ">", G114_PROBLEMATIC_MS)),
        notes="the bufferbloat staircase: ordering and growth trend are "
              "the signal, absolute ms deviations are secondary"),
    "fig4-down": FigureCheck(
        figure="fig4-down", units="ms",
        shapes=(Shape("down delay < 200 ms [s]", "down_mean_delay",
                      ("long-many", "*"), "<",
                      paper_data.FIG4_DOWN_ONLY_DOWNLINK_MAX_MS / 1000.0),
                Shape("up delay < 50 ms [s]", "up_mean_delay",
                      ("long-many", "*"), "<", 0.05)),
        notes="Figure 4a digitizes ambiguously; the paper's qualitative "
              "envelope (mean downlink delay < 200 ms everywhere, the "
              "ACK-only uplink near zero) is checked instead"),
    "fig5": FigureCheck(
        figure="fig5", units="pp",
        series=(SeriesSpec("up utilization", _fig5_anchor(0),
                           "up_utilization", factor=100.0),
                SeriesSpec("down utilization", _fig5_anchor(1),
                           "down_utilization", factor=100.0)),
        monotone=(MonotoneSpec("down utilization grows with the buffer",
                               "down_utilization", direction=1),),
        thresholds=Thresholds(
            max_deviation_pass=25.0, max_deviation_warn=40.0,
            rank_pass=0.8, rank_warn=0.5),
        # The uplink is pinned near 100%; the downlink suffers at some
        # sizes and not at others.
        shapes=(Shape("up median > 0.8",
                      _median("up_utilization_boxplot"),
                      ("long-many", "*"), ">", 0.8),
                Shape("max down median > 0.55",
                      _median("down_utilization_boxplot"),
                      ("long-many", "*"), ">", 0.55, reduce=("max",)),
                Shape("min down median < max",
                      _median("down_utilization_boxplot"),
                      ("long-many", "*"), "<", than=("long-many", "*"),
                      reduce=("min", "max"))),
        notes="Figure 5's boxplots are not digitized; the check anchors "
              "on Table 1's long-many/bidir utilizations at the 64-packet "
              "BDP buffer plus the figure's monotone downlink trend"),
    "table1-access": FigureCheck(
        figure="table1-access", units="pp",
        series=_table1_access_series(),
        thresholds=Thresholds(
            max_deviation_pass=35.0, max_deviation_warn=50.0,
            rank_pass=0.6, rank_warn=0.3),
        shapes=(Shape("short-few/up up utilization > 0.9",
                      "up_utilization", ("short-few/up", "*"), ">", 0.9),),
        notes="Harpoon session behaviour is calibrated, not specified "
              "(see docs/SCENARIOS.md), so utilization/loss columns "
              "carry wide tolerances"),
    "table1-backbone": FigureCheck(
        figure="table1-backbone", units="pp",
        series=_table1_backbone_series(),
        thresholds=Thresholds(
            max_deviation_pass=25.0, max_deviation_warn=40.0,
            rank_pass=0.6, rank_warn=0.3),
        # Load ordering: low < medium < high, and high saturates.
        shapes=(Shape("short-low utilization < short-medium",
                      "down_utilization", ("short-low", "*"), "<",
                      than=("short-medium", "*")),
                Shape("short-medium utilization < short-high",
                      "down_utilization", ("short-medium", "*"), "<",
                      than=("short-high", "*")),
                Shape("short-high utilization > 0.9", "down_utilization",
                      ("short-high", "*"), ">", 0.9))),
    "fig7a": FigureCheck(
        figure="fig7a", units="MOS",
        series=(SeriesSpec("listens", paper_data.FIG7A_LISTENS, "listens"),
                SeriesSpec("talks", paper_data.FIG7A_TALKS, "talks")),
        thresholds=Thresholds(
            max_deviation_pass=1.5, max_deviation_warn=2.5,
            rank_pass=0.6, rank_warn=0.3,
            trend_pass=0.5, trend_warn=0.25,
            # Figure 7a is the paper's near-flat figure (download
            # activity barely moves MOS): every row's range is < 0.8
            # MOS, so per-row buffer ordering is noise and the pooled
            # rank correlation carries the gate instead.
            flat_epsilon=0.8),
        # Download congestion hurts listening, not talking.
        shapes=(Shape("long-many/64 talks > 3.5", "talks",
                      ("long-many", 64), ">", 3.5),
                Shape("long-many/64 listens < noBG/64", "listens",
                      ("long-many", 64), "<", than=("noBG", 64)))),
    "fig7b": FigureCheck(
        figure="fig7b", units="MOS",
        series=(SeriesSpec("listens", paper_data.FIG7B_LISTENS, "listens"),
                SeriesSpec("talks", paper_data.FIG7B_TALKS, "talks")),
        thresholds=_MOS_THRESHOLDS,
        shapes=(Shape("noBG/64 talks > 3.9", "talks", ("noBG", 64), ">",
                      3.9),
                Shape("long-many/256 talks < 1.8", "talks",
                      ("long-many", 256), "<", 1.8),
                Shape("long-many/256 listens < 3.3", "listens",
                      ("long-many", 256), "<", 3.3),
                Shape("long-many/8 talks > long-many/256", "talks",
                      ("long-many", 8), ">", than=("long-many", 256))),
        notes="the headline bufferbloat collapse: MOS must fall with the "
              "uplink buffer in both call directions"),
    "fig8": FigureCheck(
        figure="fig8", units="MOS",
        series=(SeriesSpec("listens", paper_data.FIG8, "listens"),),
        thresholds=_MOS_THRESHOLDS,
        # Workload, not buffer size, sets the quality.
        shapes=(Shape("noBG listens > 4.0", "listens", ("noBG", "*"), ">",
                      4.0),
                Shape("long/7490 listens < 3.0", "listens", ("long", 7490),
                      "<", 3.0),
                Shape("long/7490 listens < long/749", "listens",
                      ("long", 7490), "<", than=("long", 749)))),
    "fig9a": FigureCheck(
        figure="fig9a", units="SSIM",
        series=(SeriesSpec("SD", paper_data.FIG9A_SD, "ssim",
                           filters=(("resolution", "SD"),)),
                SeriesSpec("HD", paper_data.FIG9A_HD, "ssim",
                           filters=(("resolution", "HD"),))),
        thresholds=Thresholds(
            max_deviation_pass=0.35, max_deviation_warn=0.6,
            rank_pass=0.5, rank_warn=0.2, flat_epsilon=0.1),
        # Binary: clean without congestion, broken under long-many at
        # every size; HD weathers loss slightly better than SD.
        shapes=(Shape("noBG SD ssim > 0.99", "ssim", ("noBG", "*", "SD"),
                      ">", 0.99),
                Shape("long-many SD ssim < 0.75", "ssim",
                      ("long-many", "*", "SD"), "<", 0.75),
                Shape("long-few/64 HD >= SD - 0.05", "ssim",
                      ("long-few", 64, "HD"), ">=",
                      than=("long-few", 64, "SD"), offset=-0.05)),
        notes="our stream recovers at large buffers under short-few "
              "where the paper's stays degraded — expect WARN"),
    "fig9b": FigureCheck(
        figure="fig9b", units="SSIM",
        series=(SeriesSpec("SD", paper_data.FIG9B_SD, "ssim",
                           filters=(("resolution", "SD"),)),
                SeriesSpec("HD", paper_data.FIG9B_HD, "ssim",
                           filters=(("resolution", "HD"),))),
        thresholds=Thresholds(
            max_deviation_pass=0.45, max_deviation_warn=0.6,
            rank_pass=0.5, rank_warn=0.2, flat_epsilon=0.1),
        shapes=(Shape("noBG SD ssim > 0.99", "ssim", ("noBG", "*", "SD"),
                      ">", 0.99),
                Shape("long/749 SD ssim < noBG/749", "ssim",
                      ("long", 749, "SD"), "<", than=("noBG", 749, "SD")))),
    "fig10a": FigureCheck(
        figure="fig10a", units="s",
        series=(SeriesSpec("median PLT", paper_data.FIG10A, "median_plt"),),
        thresholds=Thresholds(
            max_deviation_pass=4.0, max_deviation_warn=8.0,
            rank_pass=0.4, rank_warn=0.0, flat_epsilon=1.0),
        shapes=(Shape("noBG/64 PLT < 1.0", "median_plt", ("noBG", 64), "<",
                      1.0),
                Shape("long-many/64 PLT > 2.0", "median_plt",
                      ("long-many", 64), ">", 2.0),
                Shape("long-few/256 PLT > long-few/8", "median_plt",
                      ("long-few", 256), ">", than=("long-few", 8)))),
    "fig10b": FigureCheck(
        figure="fig10b", units="s",
        series=(SeriesSpec("median PLT", paper_data.FIG10B, "median_plt"),),
        thresholds=Thresholds(
            max_deviation_pass=12.0, max_deviation_warn=20.0,
            rank_pass=0.5, rank_warn=0.2, flat_epsilon=1.0),
        # Upload congestion wrecks the page load; a small uplink buffer
        # keeps long-few tolerable.
        shapes=(Shape("long-few/8 PLT < 3.0", "median_plt",
                      ("long-few", 8), "<", 3.0),
                Shape("long-few/256 PLT > 4.0", "median_plt",
                      ("long-few", 256), ">", 4.0),
                Shape("short-many/64 PLT > 4.0", "median_plt",
                      ("short-many", 64), ">", 4.0))),
    "fig11": FigureCheck(
        figure="fig11", units="s",
        series=(SeriesSpec("median PLT", paper_data.FIG11, "median_plt"),),
        thresholds=Thresholds(
            max_deviation_pass=5.0, max_deviation_warn=10.0,
            rank_pass=0.4, rank_warn=0.0, flat_epsilon=1.0),
        shapes=(Shape("noBG/749 PLT < 1.2", "median_plt", ("noBG", 749),
                      "<", 1.2),
                Shape("short-medium/749 PLT < 1.5", "median_plt",
                      ("short-medium", 749), "<", 1.5),
                Shape("long/7490 PLT > noBG/7490", "median_plt",
                      ("long", 7490), ">", than=("noBG", 7490)))),
}


def check_for(figure):
    """The :class:`FigureCheck` for a figure name, or None (=> SKIP)."""
    return CHECKS.get(figure)


def table2_fidelity():
    """Score the closed-form Table 2 (no sweep results involved).

    Compares :mod:`repro.core.buffers`'s analytic maximum queueing
    delays against the paper's printed values; the paper rounds to
    whole (access) / tenth (backbone) milliseconds, so a 10% relative
    deviation gate is generous while still catching any topology-rate
    regression.  Two strict per-side gates bound the access testbed's
    worst uplink (< 0.15) and downlink (< 0.25) deviation.
    """
    from repro.core.buffers import (access_buffer_delays,
                                    backbone_buffer_delays)

    deviations = []
    access_sides = {"up": [], "down": []}
    for packets, up_delay, down_delay in access_buffer_delays():
        paper = paper_data.TABLE2_ACCESS.get(packets)
        if paper is None:
            continue
        for computed, printed, side in ((up_delay * 1000.0, paper[0], "up"),
                                        (down_delay * 1000.0, paper[1],
                                         "down")):
            deviation = abs(computed - printed) / max(printed, 1.0)
            access_sides[side].append(deviation)
            deviations.append((deviation, "access %d %s" % (packets, side),
                               printed, computed))
    for packets, delay in backbone_buffer_delays():
        printed = paper_data.TABLE2_BACKBONE.get(packets)
        if printed is None:
            continue
        computed = delay * 1000.0
        deviations.append((abs(computed - printed) / max(printed, 0.1),
                           "backbone %d" % packets, printed, computed))
    fidelity = FigureFidelity(figure="table2", verdict=SKIP,
                              units="relative",
                              notes="closed-form check: analytic max "
                                    "queueing delays vs the printed "
                                    "Table 2")
    if not deviations:
        return fidelity
    worst = max(d for d, *__ in deviations)
    fidelity.compared = len(deviations)
    fidelity.metrics = {
        "max_abs_deviation": worst,
        "mean_abs_deviation": sum(d for d, *__ in deviations)
        / len(deviations),
    }
    fidelity.gates = {"max_abs_deviation": {
        "value": worst, "pass": 0.1, "warn": 0.25,
        "level": _grade(worst, 0.1, 0.25, higher_is_better=False)}}
    for side, bound in (("up", 0.15), ("down", 0.25)):
        if access_sides[side]:
            side_worst = max(access_sides[side])
            fidelity.gates["access %slink deviation < %g" % (side, bound)] \
                = _bound_gate(side_worst, bound, side_worst < bound)
    fidelity.verdict = max((gate["level"] for gate in fidelity.gates.values()),
                           key=_SEVERITY.get)
    fidelity.worst = [
        [label, printed, round(computed, 4)]
        for __, label, printed, computed in sorted(
            deviations, key=lambda item: (-item[0], item[1]))[:3]]
    return fidelity


def skip(figure, notes="no digitized paper data for this sweep"):
    """A SKIP :class:`FigureFidelity` for sweeps without paper data."""
    return FigureFidelity(figure=figure, verdict=SKIP, notes=notes)


def score(figure, results):
    """The :class:`FigureFidelity` of one report figure: Table 2's
    closed form, its check evaluated on ``results`` (the figure's sweep
    :class:`ResultSet`), or SKIP without a check or cells."""
    if figure == "table2":
        return table2_fidelity()
    check = check_for(figure)
    if check is None:
        return skip(figure)
    if results is None or len(results) == 0:
        return skip(figure, "no reproduced cells available (cold cache?)")
    return evaluate(check, results)
