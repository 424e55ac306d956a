"""Every reportable paper artifact, described once, drawn two ways.

Each entry of :data:`REPORT_FIGURES` names the registered sweep that
feeds it (``sweep`` — None for the closed-form Table 2) and a drawing
description: a :class:`Heatmap` (per-(workload, buffer) grids with the
traffic-light colouring of :data:`repro.viz.heatmap.MARKER_COLORS`), a
:class:`Boxes` chart (Figure 5's per-buffer utilization boxplots) or a
:class:`Table`.  A description declares its axes, columns, unit
factor, number format, marker function and paper overlay a single
time; two generic views render it:

* ``svg(results, spec, scale)`` — the report figure, through
  :mod:`repro.report.svg`, with the digitized paper value (small,
  grey) overlaid in every cell :data:`repro.core.paper_data`
  transcribes;
* ``text(results, spec, scale)`` — the plain-text figure
  ``python -m repro figures`` prints, through
  :func:`repro.viz.heatmap.render_grid` / ``render_table``.

Where the two views differ (text headings next to SVG panel titles,
Figure 5's five-number rows next to the SVG's median line and
quartile band, Table 1's text-only sd/flows columns) the description
carries the difference as data.

Views tolerate partial results (``--cached-only`` on a cold cache):
cells absent from the set render as neutral empty boxes (SVG) or blank
cells (text), so a figure is always producible and visibly honest
about its coverage.
"""

from dataclasses import dataclass

from repro.core import paper_data
from repro.core.buffers import access_buffer_delays, backbone_buffer_delays
from repro.core.paper_data import DIGITIZED
from repro.qoe.scales import heat_marker_from_delay, heat_marker_from_mos
from repro.report import svg
from repro.sim.stats import five_number_summary
from repro.viz.heatmap import render_grid, render_table


def _axes(results, spec, scale):
    """Row/column labels: the spec's axes (so missing cells show as
    gaps), falling back to the result keys for ad-hoc specs."""
    rows = list(spec.workloads(scale))
    cols = list(spec.buffer_axis(scale))
    if not rows or not cols:
        keys = sorted({key[:2] for key in results.keys()})
        rows = sorted({row for row, __ in keys})
        cols = sorted({col for __, col in keys})
    return rows, cols


def _grid(results, column, filters):
    """``{(workload, buffer): value}`` for one column, remaining axes
    pinned by ``filters`` (missing cells are simply absent)."""
    return {key[:2]: value for key, value
            in results.value_map(column, **dict(filters)).items()}


def _paper(figure, series):
    """The digitized grid of one series of ``figure`` (or ``{}``)."""
    return DIGITIZED.get(figure, {}).get(series, {})


# ---------------------------------------------------------------------------
# Heatmaps.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Panel:
    """One heatmap panel: ``column`` (restricted by ``filters``) over the
    workload x buffer grid, with its digitized ``paper`` grid."""

    column: str
    title: str  # SVG panel title
    heading: str  # text-view block heading
    paper: dict
    filters: tuple = ()


@dataclass(frozen=True)
class Heatmap:
    """Per-(workload, buffer) heatmap panels.

    A cell shows ``value * factor`` printed with ``fmt``; its
    traffic-light marker is ``marker`` of the raw ``marker_column``
    value (default: the drawn column).  The text view appends ``unit``
    and the marker character to each cell.
    """

    title: str
    panels: tuple
    fmt: str
    marker: callable
    factor: float = 1.0
    marker_column: str = None
    unit: str = ""

    def _cells(self, results, panel):
        """``cell(row, col) -> (text, marker, paper text) | None``."""
        values = _grid(results, panel.column, panel.filters)
        markers = values if self.marker_column is None else _grid(
            results, self.marker_column, panel.filters)

        def cell(row, col):
            value = values.get((row, col))
            if value is None:
                return None
            marker = markers.get((row, col))
            if marker is not None:
                marker = self.marker(marker)
            paper = panel.paper.get((row, col))
            return (self.fmt % (value * self.factor), marker,
                    None if paper is None else self.fmt % paper)
        return cell

    def svg(self, results, spec, scale):
        rows, cols = _axes(results, spec, scale)
        return svg.heatmap_panels(self.title, [
            (panel.title, rows, cols, self._cells(results, panel))
            for panel in self.panels])

    def text(self, results, spec, scale):
        rows, cols = _axes(results, spec, scale)
        blocks = []
        for panel in self.panels:
            cell = self._cells(results, panel)

            def text_cell(row, col, cell=cell):
                drawn = cell(row, col)
                if drawn is None:
                    return None
                return drawn[0] + self.unit + (drawn[1] or "")

            blocks.append(render_grid(panel.heading, rows, cols, text_cell,
                                      col_header="workload\\buf"))
        return "\n\n".join(blocks)


def _fig4(direction):
    return Heatmap(
        "Figure 4 (%sstream congestion): mean queueing delay" % direction,
        tuple(Panel("%s_mean_delay" % side,
                    "mean %sLINK queueing delay [ms]" % side.upper(),
                    "Figure 4 (%s): mean %sLINK queueing delay [ms]"
                    % (direction, side.upper()),
                    _paper("fig4-%s" % direction, side + "link"))
              for side in ("up", "down")),
        "%.0f", heat_marker_from_delay, factor=1000.0)


def _voip(figure, title, headings):
    """``headings``: ``{call direction: text heading}``, in panel order."""
    return Heatmap(title, tuple(
        Panel(direction, "user %s — median MOS" % direction, heading,
              _paper(figure, direction))
        for direction, heading in headings.items()),
        "%.1f", heat_marker_from_mos)


def _video(figure, title, testbed):
    return Heatmap(title, tuple(
        Panel("ssim", "%s — median SSIM" % resolution,
              "Figure 9 (%s, %s): median SSIM (marker = MOS class)"
              % (testbed, resolution),
              _paper(figure, resolution), (("resolution", resolution),))
        for resolution in ("SD", "HD")),
        "%.2f", heat_marker_from_mos, marker_column="mos")


def _web(figure, title, heading):
    return Heatmap(title, (
        Panel("median_plt", "median page-load time [s] (colour: G.1030 "
                            "MOS)",
              heading + ": median page load time (marker = MOS class)",
              _paper(figure, "median PLT")),),
        "%.1f", heat_marker_from_mos, marker_column="mos", unit="s")


# ---------------------------------------------------------------------------
# Figure 5: per-buffer five-number summaries.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Boxes:
    """Per-buffer boxplots of one workload's per-second samples.

    ``series`` is ``(SVG label, text label, samples field)`` triples;
    each field is a payload list of per-second fractions, summarized as
    (min, q1, median, q3, max) and shown in percent.  The SVG view
    draws the median line plus the quartile band; the text view prints
    all five numbers per buffer and series.
    """

    title: str  # SVG title
    heading: str  # text-view table title
    series: tuple
    y_label: str
    y_range: tuple
    y_ticks: tuple

    def _boxes(self, results, spec, scale):
        """``[(buffer, [box or None per series])]`` along the axis."""
        rows, cols = _axes(results, spec, scale)
        workload = rows[0] if rows else None
        boxes = []
        for buffer_packets in cols:
            key = (workload, buffer_packets)
            record = results[key] if key in results else None
            boxes.append((buffer_packets, [
                None if record is None else
                [value * 100.0 for value
                 in five_number_summary(record.payload[samples])]
                for __, __, samples in self.series]))
        return boxes

    def svg(self, results, spec, scale):
        boxes = self._boxes(results, spec, scale)
        series = []
        for index, (label, __, __) in enumerate(self.series):
            per_buffer = [row[index] for __, row in boxes]
            series.append((label,
                           [box and box[2] for box in per_buffer],
                           [box and (box[1], box[3]) for box in per_buffer]))
        return svg.line_chart(
            self.title, [buffer_packets for buffer_packets, __ in boxes],
            series, y_label=self.y_label, y_range=self.y_range,
            y_ticks=self.y_ticks)

    def text(self, results, spec, scale):
        rows = []
        for buffer_packets, row in self._boxes(results, spec, scale):
            for (__, label, __), box in zip(self.series, row):
                if box is not None:
                    rows.append((buffer_packets, label)
                                + tuple("%.0f%%" % value for value in box))
        return render_table(
            self.heading,
            ("buffer", "link", "min", "q1", "median", "q3", "max"), rows)


# ---------------------------------------------------------------------------
# Tables 1 and 2 (measured next to the paper's numbers).
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Column:
    """One table column: ``field * factor`` printed with ``fmt``
    (``text_fmt`` in the text view, where it differs)."""

    field: str
    text_header: str
    header: str = None  # SVG header; None = a text-view-only column
    paper: int = None  # index into the row's paper tuple
    factor: float = 100.0
    fmt: str = "%.1f"
    text_fmt: str = None


@dataclass(frozen=True)
class Section:
    """A block of table rows.

    ``rows(results, spec, scale)`` yields ``(text labels, SVG label,
    get, paper)``: ``get(field)`` reads a column value and ``paper`` is
    the row's paper tuple (None when the paper has no such row).
    """

    heading: str  # text-view table title
    labels: tuple  # text-view label column headers
    rows: callable
    columns: tuple


@dataclass(frozen=True)
class Table:
    """Measured-vs-paper table.  The SVG view draws every section as
    one table (``measured / paper`` cells under the first section's
    headers); the text view prints one plain table per section."""

    title: str
    label: str  # SVG label column header
    note: str
    sections: tuple

    def svg(self, results, spec, scale):
        headers = (self.label,) + tuple(
            column.header for column in self.sections[0].columns
            if column.header)
        rows = []
        for section in self.sections:
            columns = [column for column in section.columns
                       if column.header]
            for __, label, get, paper in section.rows(results, spec, scale):
                cells = [label] + [
                    "%s / %s" % (column.fmt % (get(column.field)
                                               * column.factor),
                                 "—" if paper is None
                                 else column.fmt % paper[column.paper])
                    for column in columns]
                rows.append(cells + [""] * (len(headers) - len(cells)))
        return svg.table(self.title, headers, rows, note=self.note)

    def text(self, results, spec, scale):
        blocks = []
        for section in self.sections:
            rows = [labels + tuple(
                (column.text_fmt or column.fmt)
                % (get(column.field) * column.factor)
                for column in section.columns)
                for labels, __, get, __ in section.rows(results, spec,
                                                         scale)]
            blocks.append(render_table(
                section.heading, section.labels + tuple(
                    column.text_header for column in section.columns),
                rows))
        return "\n\n".join(blocks)


def _measured_rows(paper):
    """Table 1 rows in scenario-axis order; ``paper(label)`` looks the
    paper's row up."""
    def rows(results, spec, scale):
        for scenario_spec in spec.scenario_axis(scale):
            scenario = scenario_spec.build()
            for record in results:
                if record.key[0] == scenario_spec.key:
                    yield ((scenario.name, scenario.direction),
                           scenario_spec.key, record.value,
                           paper(scenario_spec.key))
    return rows


def _table1(testbed, title, paper, svg_columns):
    """``svg_columns``: ``{field: (SVG header, paper index)}``."""
    def column(field, text_header, **kwargs):
        header, index = svg_columns.get(field, (None, None))
        return Column(field, text_header, header, index, **kwargs)

    return Table(title, "workload", "each cell: reproduced value / paper "
                                    "value", (Section(
        "Table 1 (%s): measured workload characteristics at BDP buffers"
        % testbed, ("workload", "dir"), _measured_rows(paper), (
            column("up_utilization", "up util%"),
            column("down_utilization", "down util%"),
            column("up_utilization_sd", "up sd"),
            column("down_utilization_sd", "down sd"),
            column("up_loss", "up loss%", text_fmt="%.2f"),
            column("down_loss", "down loss%", text_fmt="%.2f"),
            column("concurrent_flows", "flows", factor=1.0, fmt="%.0f"),
        )),))


def _table2_access(results, spec, scale):
    for packets, up_delay, down_delay in access_buffer_delays():
        yield ((packets,), "access %d" % packets,
               {"up": up_delay, "down": down_delay}.get,
               paper_data.TABLE2_ACCESS.get(packets))


def _table2_backbone(results, spec, scale):
    for packets, delay in backbone_buffer_delays():
        paper = paper_data.TABLE2_BACKBONE.get(packets)
        yield ((packets,), "backbone %d" % packets, {"delay": delay}.get,
               None if paper is None else (paper,))


_TABLE2 = Table(
    "Table 2: maximum queueing delay per buffer size [ms]", "buffer",
    "closed-form (repro.core.buffers), no simulation involved; "
    "backbone rows have a single direction", (
        Section("Table 2 (access): buffer sizes and max queueing delay",
                ("packets",), _table2_access, (
                    Column("up", "uplink delay ms", "uplink / paper", 0,
                           factor=1000.0, fmt="%.0f"),
                    Column("down", "downlink delay ms", "downlink / paper",
                           1, factor=1000.0, fmt="%.0f"))),
        Section("Table 2 (backbone): buffer sizes and max queueing delay",
                ("packets",), _table2_backbone, (
                    Column("delay", "delay ms", "delay / paper", 0,
                           factor=1000.0),))))


# ---------------------------------------------------------------------------
# The figure catalog (report order).
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ReportFigure:
    """One report figure: its feeding sweep and its drawing."""

    name: str
    sweep: str  # registered sweep feeding it; None for closed-form
    title: str
    drawing: object  # Heatmap | Boxes | Table

    def svg(self, results, spec, scale):
        """The report's SVG markup for this figure."""
        return self.drawing.svg(results, spec, scale)

    def text(self, results, spec, scale):
        """The plain-text figure (``python -m repro figures``)."""
        return self.drawing.text(results, spec, scale)


REPORT_FIGURES = {figure.name: figure for figure in (
    ReportFigure("fig4-up", "fig4-up",
                 "Figure 4c: mean queueing delay, upstream congestion",
                 _fig4("up")),
    ReportFigure("fig4-down", "fig4-down",
                 "Figure 4a: mean queueing delay, downstream congestion",
                 _fig4("down")),
    ReportFigure("fig5", "fig5",
                 "Figure 5: link utilization, bidirectional long workload",
                 Boxes("Figure 5: per-second link utilization, "
                       "bidirectional long workload",
                       "Figure 5: link utilization, bidirectional long "
                       "workload (8 up/64 down)",
                       (("downlink", "down", "down_utilization_samples"),
                        ("uplink", "up", "up_utilization_samples")),
                       "utilization [%] (median, quartile band)",
                       (0.0, 102.0), (0, 25, 50, 75, 100))),
    ReportFigure("table1-access", "table1-access",
                 "Table 1 (access): workload characteristics",
                 _table1("access", "Table 1 (access): measured / paper at "
                                   "the BDP buffers (64/8)",
                         lambda label: paper_data.TABLE1_ACCESS.get(
                             tuple(label.split("/", 1))),
                         {"up_utilization": ("up util %", 0),
                          "down_utilization": ("down util %", 1),
                          "up_loss": ("up loss %", 2),
                          "down_loss": ("down loss %", 3)})),
    ReportFigure("table1-backbone", "table1-backbone",
                 "Table 1 (backbone): workload characteristics",
                 _table1("backbone", "Table 1 (backbone): measured / paper "
                                     "at the 749-packet BDP buffer",
                         paper_data.TABLE1_BACKBONE.get,
                         {"down_utilization": ("down util %", 0),
                          "down_loss": ("loss %", 2)})),
    ReportFigure("fig7a", "fig7a",
                 "Figure 7a: access VoIP MOS, download activity",
                 _voip("fig7a", "Figure 7a: access VoIP MOS, download "
                                "activity",
                       {"talks": "Figure 7 (down activity): median MOS, "
                                 "user TALKS",
                        "listens": "Figure 7 (down activity): median MOS, "
                                   "user LISTENS"})),
    ReportFigure("fig7b", "fig7b",
                 "Figure 7b: access VoIP MOS, upload activity (bufferbloat)",
                 _voip("fig7b", "Figure 7b: access VoIP MOS, upload "
                                "activity (bufferbloat)",
                       {"talks": "Figure 7 (up activity): median MOS, "
                                 "user TALKS",
                        "listens": "Figure 7 (up activity): median MOS, "
                                   "user LISTENS"})),
    ReportFigure("fig8", "fig8", "Figure 8: backbone VoIP MOS",
                 _voip("fig8", "Figure 8: backbone VoIP MOS",
                       {"listens": "Figure 8: backbone median MOS "
                                   "(server -> client audio)"})),
    ReportFigure("fig9a", "fig9a", "Figure 9a: access IPTV SSIM",
                 _video("fig9a", "Figure 9a: access IPTV SSIM, download "
                                 "activity", "access")),
    ReportFigure("fig9b", "fig9b", "Figure 9b: backbone IPTV SSIM",
                 _video("fig9b", "Figure 9b: backbone IPTV SSIM",
                        "backbone")),
    ReportFigure("fig10a", "fig10a",
                 "Figure 10a: access WebQoE, download activity",
                 _web("fig10a", "Figure 10a: access WebQoE, download "
                                "activity", "Figure 10 (down)")),
    ReportFigure("fig10b", "fig10b",
                 "Figure 10b: access WebQoE, upload activity",
                 _web("fig10b", "Figure 10b: access WebQoE, upload activity",
                      "Figure 10 (up)")),
    ReportFigure("fig11", "fig11", "Figure 11: backbone WebQoE",
                 _web("fig11", "Figure 11: backbone WebQoE",
                      "Figure 11 (backbone)")),
    ReportFigure("table2", None,
                 "Table 2: buffer sizes and maximum queueing delay", _TABLE2),
)}


def figure_names():
    """Reportable figure names in report order."""
    return list(REPORT_FIGURES)
