"""Dependency-free SVG primitives for the reproduction report.

A tiny element builder (:class:`Svg`) plus the three chart shapes the
paper's figures need: labelled heatmaps (:func:`heatmap_panels`), line
charts with optional quartile bands (:func:`line_chart`) and aligned
tables (:func:`table`).  No third-party plotting library is involved —
output is hand-assembled SVG 1.1 markup.

Determinism contract
--------------------
Rendering the same inputs must produce byte-identical markup on every
platform (the committed ``docs/sample_report/`` regenerates under
test).  Everything that could wobble is pinned: numbers are formatted
through :func:`fmt_num` (``%g``-style, locale-free), element attributes
are emitted in call order, and nothing reads the clock or any global
state.

Colour semantics come from :data:`repro.viz.heatmap.MARKER_COLORS` —
the same ``+``/``o``/``!`` traffic-light mapping the text view of a
figure prints — so a figure's SVG and text views always agree on which
cells are good/degraded/bad.
"""

from repro.viz.heatmap import MARKER_COLORS

#: Font stack used for every text element.
FONT = "Helvetica, Arial, sans-serif"

#: Neutral chart chrome.
AXIS_COLOR = "#444444"
GRID_COLOR = "#dddddd"
TEXT_COLOR = "#222222"
MUTED_COLOR = "#777777"
PAPER_COLOR = "#555555"  # digitized paper-value overlays

#: Fill used for heatmap cells with no marker (missing / neutral data).
NEUTRAL_FILL = "#f4f4f4"

#: Categorical series colours for line charts (down/up, SD/HD, ...).
SERIES_COLORS = ("#1565c0", "#c62828", "#2e7d32", "#6a1b9a")


def fmt_num(value):
    """Format a coordinate/number deterministically (no trailing zeros)."""
    if isinstance(value, float):
        text = "%.6g" % value
        return text
    return str(value)


def escape(text):
    """Escape a string for use in SVG text content or attributes."""
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


class Svg:
    """Accumulates SVG elements and serializes a standalone document."""

    def __init__(self, width, height):
        self.width = width
        self.height = height
        self._parts = []

    # -- primitives -----------------------------------------------------
    def _tag(self, name, text=None, **attrs):
        rendered = "".join(
            ' %s="%s"' % (key.replace("_", "-"), escape(value))
            for key, value in attrs.items() if value is not None)
        if text is None:
            self._parts.append("<%s%s/>" % (name, rendered))
        else:
            self._parts.append("<%s%s>%s</%s>"
                               % (name, rendered, escape(text), name))

    def rect(self, x, y, width, height, fill, stroke=None, stroke_width=None,
             rx=None):
        self._tag("rect", x=fmt_num(x), y=fmt_num(y), width=fmt_num(width),
                  height=fmt_num(height), fill=fill, stroke=stroke,
                  stroke_width=(fmt_num(stroke_width)
                                if stroke_width is not None else None),
                  rx=(fmt_num(rx) if rx is not None else None))

    def line(self, x1, y1, x2, y2, stroke, width=1.0, dash=None):
        self._tag("line", x1=fmt_num(x1), y1=fmt_num(y1), x2=fmt_num(x2),
                  y2=fmt_num(y2), stroke=stroke, stroke_width=fmt_num(width),
                  stroke_dasharray=dash)

    def polyline(self, points, stroke, width=1.5):
        encoded = " ".join("%s,%s" % (fmt_num(x), fmt_num(y))
                           for x, y in points)
        self._tag("polyline", points=encoded, fill="none", stroke=stroke,
                  stroke_width=fmt_num(width),
                  stroke_linejoin="round")

    def polygon(self, points, fill, opacity=None):
        encoded = " ".join("%s,%s" % (fmt_num(x), fmt_num(y))
                           for x, y in points)
        self._tag("polygon", points=encoded, fill=fill,
                  fill_opacity=(fmt_num(opacity)
                                if opacity is not None else None),
                  stroke="none")

    def circle(self, cx, cy, r, fill):
        self._tag("circle", cx=fmt_num(cx), cy=fmt_num(cy), r=fmt_num(r),
                  fill=fill)

    def text(self, x, y, content, size=12, anchor="start", fill=TEXT_COLOR,
             weight=None, style=None):
        self._tag("text", text=content, x=fmt_num(x), y=fmt_num(y),
                  font_family=FONT, font_size=fmt_num(size),
                  text_anchor=anchor, fill=fill, font_weight=weight,
                  font_style=style)

    # -- document -------------------------------------------------------
    def to_string(self):
        header = ('<svg xmlns="http://www.w3.org/2000/svg" '
                  'width="%s" height="%s" viewBox="0 0 %s %s">'
                  % (fmt_num(self.width), fmt_num(self.height),
                     fmt_num(self.width), fmt_num(self.height)))
        body = "\n".join("  " + part for part in self._parts)
        return "%s\n%s\n</svg>\n" % (header, body)


# ---------------------------------------------------------------------------
# Heatmaps (the paper's dominant figure shape).
# ---------------------------------------------------------------------------
#: Heatmap cell geometry (pixels).
CELL_W = 86
CELL_H = 40
LABEL_W = 130
TITLE_H = 34
HEADER_H = 24
LEGEND_H = 26
PANEL_GAP = 18
MARGIN = 12


def _marker_colors(marker):
    """(fill, text colour) for one quality marker; neutral when unknown."""
    if marker in MARKER_COLORS:
        __, fill, text_color = MARKER_COLORS[marker]
        return fill, text_color
    return NEUTRAL_FILL, MUTED_COLOR


_LEGEND_NOTE = "small grey value = digitized paper value"


def _legend_extent():
    """Pixel width of the legend row (must fit inside the SVG width)."""
    x = MARGIN
    for marker in "+o!":
        label = MARKER_COLORS[marker][0]
        x += 19 + 8 * len(label) + 18
    return x + 5.2 * len(_LEGEND_NOTE)


def heatmap_panels(title, panels, legend=True):
    """Render one or more labelled heatmap panels as a single SVG.

    ``panels`` is a list of ``(panel title, row labels, col labels,
    cell_fn)``; ``cell_fn(row, col)`` returns ``None`` (no data) or a
    ``(text, marker, subtext)`` triple — ``marker`` selects the
    traffic-light fill (:data:`repro.viz.heatmap.MARKER_COLORS`) and
    ``subtext`` (may be None) is drawn small and grey under the value,
    which the report uses for the digitized paper value.
    """
    width = (MARGIN * 2
             + max(LABEL_W + len(panel[2]) * CELL_W for panel in panels))
    if legend:
        # Narrow heatmaps must not clip the legend caption.
        width = max(width, _legend_extent() + MARGIN)
    height = MARGIN * 2 + TITLE_H
    for panel in panels:
        height += HEADER_H + len(panel[1]) * CELL_H + PANEL_GAP + 20
    if legend:
        height += LEGEND_H
    svg = Svg(width, height)
    svg.rect(0, 0, width, height, fill="#ffffff")
    svg.text(MARGIN, MARGIN + 16, title, size=15, weight="bold")
    y = MARGIN + TITLE_H
    for panel_title, row_labels, col_labels, cell_fn in panels:
        svg.text(MARGIN, y + 12, panel_title, size=12, weight="bold",
                 fill=AXIS_COLOR)
        y += 20
        # Column headers.
        for col_index, col in enumerate(col_labels):
            x = MARGIN + LABEL_W + col_index * CELL_W + CELL_W / 2.0
            svg.text(x, y + HEADER_H - 8, str(col), size=11,
                     anchor="middle", fill=AXIS_COLOR)
        y += HEADER_H
        for row_index, row in enumerate(row_labels):
            row_y = y + row_index * CELL_H
            svg.text(MARGIN + LABEL_W - 8, row_y + CELL_H / 2.0 + 4,
                     str(row), size=11, anchor="end", fill=AXIS_COLOR)
            for col_index, col in enumerate(col_labels):
                x = MARGIN + LABEL_W + col_index * CELL_W
                cell = cell_fn(row, col)
                if cell is None:
                    svg.rect(x, row_y, CELL_W - 2, CELL_H - 2,
                             fill=NEUTRAL_FILL, stroke=GRID_COLOR,
                             stroke_width=1)
                    continue
                text, marker, subtext = cell
                fill, text_color = _marker_colors(marker)
                svg.rect(x, row_y, CELL_W - 2, CELL_H - 2, fill=fill,
                         stroke=GRID_COLOR, stroke_width=1)
                value_y = (row_y + CELL_H / 2.0
                           + (0 if subtext else 4))
                svg.text(x + CELL_W / 2.0 - 1, value_y, text, size=12,
                         anchor="middle", fill=text_color, weight="bold")
                if subtext:
                    svg.text(x + CELL_W / 2.0 - 1, row_y + CELL_H - 8,
                             subtext, size=9, anchor="middle",
                             fill=PAPER_COLOR)
        y += len(row_labels) * CELL_H + PANEL_GAP
    if legend:
        x = MARGIN
        for marker in "+o!":
            label, fill, text_color = MARKER_COLORS[marker]
            svg.rect(x, y + 4, 14, 14, fill=fill, stroke=GRID_COLOR,
                     stroke_width=1)
            svg.text(x + 19, y + 15, label, size=11, fill=AXIS_COLOR)
            x += 19 + 8 * len(label) + 18
        svg.text(x, y + 15, _LEGEND_NOTE, size=10, fill=MUTED_COLOR,
                 style="italic")
    return svg.to_string()


# ---------------------------------------------------------------------------
# Line charts (Figure 5's utilization-vs-buffer shape).
# ---------------------------------------------------------------------------
PLOT_W = 460
PLOT_H = 260
PLOT_LEFT = 64
PLOT_TOP = 46


def line_chart(title, x_labels, series, y_label="", y_range=None,
               y_ticks=None):
    """A categorical-x line chart.

    ``series`` is a list of ``(label, values, band)`` where ``values``
    aligns with ``x_labels`` (None for missing points) and ``band`` is
    an optional aligned list of ``(low, high)`` pairs drawn as a
    translucent quartile band.  ``y_range`` defaults to the data hull.
    """
    width = PLOT_LEFT + PLOT_W + 24
    height = PLOT_TOP + PLOT_H + 64
    svg = Svg(width, height)
    svg.rect(0, 0, width, height, fill="#ffffff")
    svg.text(MARGIN, MARGIN + 16, title, size=15, weight="bold")

    flat = [v for __, values, band in series for v in values
            if v is not None]
    for __, __, band in series:
        if band:
            flat.extend(v for pair in band if pair is not None
                        for v in pair)
    if y_range is None:
        low, high = (min(flat), max(flat)) if flat else (0.0, 1.0)
        if low == high:
            low, high = low - 0.5, high + 0.5
        pad = (high - low) * 0.08
        y_range = (low - pad, high + pad)
    y_low, y_high = y_range

    def x_pos(index):
        step = PLOT_W / float(max(len(x_labels), 1))
        return PLOT_LEFT + step * (index + 0.5)

    def y_pos(value):
        span = float(y_high - y_low) or 1.0
        return PLOT_TOP + PLOT_H * (1.0 - (value - y_low) / span)

    # Frame, grid and ticks.
    svg.rect(PLOT_LEFT, PLOT_TOP, PLOT_W, PLOT_H, fill="none",
             stroke=AXIS_COLOR, stroke_width=1)
    ticks = y_ticks if y_ticks is not None else [
        y_low + (y_high - y_low) * k / 4.0 for k in range(5)]
    for tick in ticks:
        y = y_pos(tick)
        svg.line(PLOT_LEFT, y, PLOT_LEFT + PLOT_W, y, stroke=GRID_COLOR)
        svg.text(PLOT_LEFT - 6, y + 4, fmt_num(round(tick, 4)), size=10,
                 anchor="end", fill=AXIS_COLOR)
    for index, label in enumerate(x_labels):
        svg.text(x_pos(index), PLOT_TOP + PLOT_H + 16, str(label), size=10,
                 anchor="middle", fill=AXIS_COLOR)
    if y_label:
        svg.text(MARGIN + 2, PLOT_TOP - 10, y_label, size=11,
                 fill=AXIS_COLOR)

    # Bands first (under the lines), then lines and markers.
    for order, (label, values, band) in enumerate(series):
        color = SERIES_COLORS[order % len(SERIES_COLORS)]
        if band:
            upper = [(x_pos(i), y_pos(pair[1]))
                     for i, pair in enumerate(band) if pair is not None]
            lower = [(x_pos(i), y_pos(pair[0]))
                     for i, pair in enumerate(band) if pair is not None]
            if upper and lower:
                svg.polygon(upper + lower[::-1], fill=color, opacity=0.15)
    legend_x = PLOT_LEFT + 8
    for order, (label, values, band) in enumerate(series):
        color = SERIES_COLORS[order % len(SERIES_COLORS)]
        points = [(x_pos(i), y_pos(v)) for i, v in enumerate(values)
                  if v is not None]
        if len(points) > 1:
            svg.polyline(points, stroke=color, width=2)
        for x, y in points:
            svg.circle(x, y, 3, fill=color)
        svg.line(legend_x, PLOT_TOP + PLOT_H + 38, legend_x + 18,
                 PLOT_TOP + PLOT_H + 38, stroke=color, width=2)
        svg.text(legend_x + 23, PLOT_TOP + PLOT_H + 42, label, size=11,
                 fill=AXIS_COLOR)
        legend_x += 23 + 7 * len(label) + 22
    return svg.to_string()


# ---------------------------------------------------------------------------
# Tables (Tables 1 and 2).
# ---------------------------------------------------------------------------
ROW_H = 26


def table(title, headers, rows, note=None):
    """An aligned table: ``headers`` strings, ``rows`` of cell strings.

    Column widths derive from content length (monospace-ish estimate);
    a ``note`` line is rendered small and muted under the table.
    """
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = []
    for index, header in enumerate(headers):
        cells = [len(header)] + [len(row[index]) for row in str_rows]
        widths.append(max(cells) * 7.2 + 18)
    width = MARGIN * 2 + sum(widths)
    height = (MARGIN * 2 + TITLE_H + ROW_H * (len(str_rows) + 1)
              + (22 if note else 0))
    svg = Svg(width, height)
    svg.rect(0, 0, width, height, fill="#ffffff")
    svg.text(MARGIN, MARGIN + 16, title, size=15, weight="bold")
    y = MARGIN + TITLE_H
    svg.rect(MARGIN, y, sum(widths), ROW_H, fill="#eceff1")
    x = MARGIN
    for index, header in enumerate(headers):
        svg.text(x + 9, y + 17, header, size=11, weight="bold",
                 fill=AXIS_COLOR)
        x += widths[index]
    y += ROW_H
    for row_index, row in enumerate(str_rows):
        if row_index % 2:
            svg.rect(MARGIN, y, sum(widths), ROW_H, fill="#fafafa")
        x = MARGIN
        for index, cell in enumerate(row):
            svg.text(x + 9, y + 17, cell, size=11)
            x += widths[index]
        y += ROW_H
    svg.line(MARGIN, y, MARGIN + sum(widths), y, stroke=AXIS_COLOR)
    if note:
        svg.text(MARGIN, y + 16, note, size=10, fill=MUTED_COLOR,
                 style="italic")
    return svg.to_string()
