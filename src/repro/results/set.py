"""Columnar result collections and streaming aggregation.

A :class:`ResultSet` is an ordered list of typed records (see
:mod:`repro.results.record`) with a lazily-built column index, so
cross-sweep analysis — the paper's whole point — is a handful of
``filter``/``group_by``/``pivot`` calls instead of hand-rolled dict
plumbing at every call site.

For grids too large to hold in memory, :class:`StreamAggregator` folds
the records of :meth:`repro.runner.grid.GridRunner.iter_run` into
per-group running statistics (count/sum/mean/min/max) in constant
memory; :meth:`ResultSet.from_stream` is the collecting counterpart and
restores task order, so a collected stream equals the batch
:func:`repro.api.run_sweep` result exactly.
"""

import csv
import io
import json

from repro.results.record import CellResult, record_from_payload


def _unwrap(item):
    """Accept both bare records and the (task, record) pairs iter_run yields."""
    if isinstance(item, CellResult):
        return item
    __, record = item
    return record


class ResultSet:
    """An ordered, queryable collection of cell records."""

    __slots__ = ("_records", "_columns", "_by_key")

    def __init__(self, records=()):
        self._records = [_unwrap(record) for record in records]
        self._columns = {}  # lazy column cache: name -> list of values
        self._by_key = None  # lazy cell-key index

    # -- construction ----------------------------------------------------
    @classmethod
    def from_payloads(cls, tasks, payloads, keys=None):
        """Build records from aligned task/payload lists (batch results)."""
        tasks = list(tasks)
        if keys is None:
            keys = [None] * len(tasks)
        return cls(record_from_payload(task, payload, key=key, index=index)
                   for index, (task, payload, key)
                   in enumerate(zip(tasks, payloads, keys)))

    @classmethod
    def from_stream(cls, stream):
        """Collect a record stream (e.g. ``GridRunner.iter_run``).

        Records arrive in completion order; when they carry task indices
        (every runner/facade stream does) the set is re-ordered to task
        order, whatever order the cells completed in.
        """
        records = [_unwrap(item) for item in stream]
        if records and all(record.index is not None for record in records):
            records.sort(key=lambda record: record.index)
        return cls(records)

    # -- basic protocol --------------------------------------------------
    @property
    def records(self):
        return list(self._records)

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __eq__(self, other):
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self._records == other._records

    def __getitem__(self, selector):
        """``rs[2]``/slices index by position; anything else is a cell key."""
        if isinstance(selector, int):
            return self._records[selector]
        if isinstance(selector, slice):
            return ResultSet(self._records[selector])
        return self._key_index()[selector]

    def __contains__(self, key):
        return key in self._key_index()

    def keys(self):
        """Cell keys in record order (requires sweep-built records)."""
        return [record.key for record in self._records]

    def _key_index(self):
        if self._by_key is None:
            index = {}
            for record in self._records:
                if record.key is None:
                    raise KeyError(
                        "records carry no cell keys — build the set "
                        "through repro.api.run_sweep (or pass keys= to "
                        "from_payloads) to index by key")
                index[record.key] = record
            self._by_key = index
        return self._by_key

    # -- columnar access -------------------------------------------------
    def column(self, name):
        """All values of one column (axis, param or metric), in order."""
        if name not in self._columns:
            self._columns[name] = [record.value(name)
                                   for record in self._records]
        return list(self._columns[name])

    def value_map(self, column, **filters):
        """``{cell key: column value}`` for records matching ``filters``.

        The grid shape the report layer consumes: one value per sweep
        cell key, optionally restricted by equality filters first (e.g.
        ``value_map("ssim", resolution="SD")``).  Requires sweep-built
        records (every facade result has keys); duplicate keys after
        filtering raise ValueError instead of silently overwriting.
        """
        subset = self.filter(**filters) if filters else self
        grid = {}
        for record in subset:
            if record.key is None:
                raise KeyError("records carry no cell keys — build the "
                               "set through repro.api.run_sweep")
            if record.key in grid:
                raise ValueError("duplicate cell key %r in value_map() — "
                                 "pin the remaining axes with filters"
                                 % (record.key,))
            grid[record.key] = record.value(column)
        return grid

    # -- relational verbs ------------------------------------------------
    def filter(self, predicate=None, **columns):
        """Records matching ``predicate`` and every column constraint.

        A column constraint is an equality test, or membership when the
        given value is a list/tuple/set/frozenset.
        """
        def match(record):
            if predicate is not None and not predicate(record):
                return False
            for name, wanted in columns.items():
                value = record.value(name)
                if isinstance(wanted, (list, tuple, set, frozenset)):
                    if value not in wanted:
                        return False
                elif value != wanted:
                    return False
            return True

        return ResultSet(record for record in self._records
                         if match(record))

    def group_by(self, *names):
        """``{group value(s): ResultSet}`` in first-seen order."""
        groups = {}
        for record in self._records:
            value = tuple(record.value(name) for name in names)
            if len(names) == 1:
                value = value[0]
            groups.setdefault(value, []).append(record)
        return {value: ResultSet(records)
                for value, records in groups.items()}

    def aggregate(self, value, agg="mean", by=()):
        """Aggregate one column, optionally per group.

        ``agg`` is ``count``/``sum``/``mean``/``min``/``max``/``median``
        or a callable over the value list.  Returns a scalar, or a
        ``{group: scalar}`` dict when ``by`` columns are given.
        """
        if isinstance(by, str):
            by = (by,)
        if by:
            return {group: subset.aggregate(value, agg=agg)
                    for group, subset in self.group_by(*by).items()}
        values = self.column(value)
        return _AGGREGATIONS[agg](values) if not callable(agg) \
            else agg(values)

    def pivot(self, rows, cols, value, agg="mean"):
        """``{(row value, col value): aggregated value}`` — heatmap shape.

        ``rows``/``cols``/``value`` are column names; cells with several
        records (e.g. extra axes left unpinned) are reduced with ``agg``.
        """
        buckets = {}
        for record in self._records:
            cell = (record.value(rows), record.value(cols))
            buckets.setdefault(cell, []).append(record.value(value))
        reduce = _AGGREGATIONS[agg] if not callable(agg) else agg
        return {cell: reduce(values) for cell, values in buckets.items()}

    def sort(self, *names, reverse=False):
        """New set ordered by the given columns."""
        return ResultSet(sorted(
            self._records,
            key=lambda record: tuple(record.value(name) for name in names),
            reverse=reverse))

    def merge(self, *others):
        """New set with the records of ``self`` and every other set."""
        records = list(self._records)
        for other in others:
            records.extend(other)
        return ResultSet(records)

    # -- exporters -------------------------------------------------------
    def to_rows(self):
        """Flat row dicts with a consistent, first-seen column order."""
        return [record.to_row() for record in self._records]

    def _fieldnames(self, rows):
        names = []
        for row in rows:
            for name in row:
                if name not in names:
                    names.append(name)
        return names

    def to_csv(self, path=None):
        """CSV text of :meth:`to_rows` (optionally also written to ``path``).

        Floats are written with ``str()`` (which round-trips exactly in
        Python 3); columns absent from a row are left empty.
        """
        rows = self.to_rows()
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=self._fieldnames(rows),
                                restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text

    def to_json(self, path=None, indent=None):
        """JSON text: one object per record, payload wire format intact."""
        document = [{
            "kind": record.kind,
            "key": (list(record.key) if record.key is not None else None),
            "scenario": record.scenario,
            "buffer_packets": (list(record.buffer_packets)
                               if isinstance(record.buffer_packets, tuple)
                               else record.buffer_packets),
            "seed": record.seed,
            "discipline": record.discipline,
            "params": {name: (list(value) if isinstance(value, tuple)
                              else value)
                       for name, value in record.params_dict.items()},
            "payload": record.payload,
        } for record in self._records]
        text = json.dumps(document, indent=indent)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text


def _median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty column")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


_AGGREGATIONS = {
    "count": len,
    "sum": sum,
    "mean": lambda values: sum(values) / len(values),
    "min": min,
    "max": max,
    "median": _median,
}


class StreamAggregator:
    """Constant-memory running aggregation over a record stream.

    Accepts the ``(task, record)`` pairs of
    :meth:`repro.runner.grid.GridRunner.iter_run` (or bare records) and
    keeps only per-group counters — never the records — so arbitrarily
    large grids aggregate in O(groups) memory::

        agg = StreamAggregator("mos", by=("scenario",))
        agg.consume(api.iter_sweep("fig7b"))
        agg.result()  # {"noBG": {"count": ..., "mean": ..., ...}, ...}
    """

    def __init__(self, value, by=()):
        self.value = value
        self.by = (by,) if isinstance(by, str) else tuple(by)
        self._groups = {}

    def add(self, item):
        record = _unwrap(item)
        group = tuple(record.value(name) for name in self.by)
        if len(self.by) == 1:
            group = group[0]
        value = record.value(self.value)
        state = self._groups.get(group)
        if state is None:
            self._groups[group] = [1, value, value, value]
        else:
            state[0] += 1
            state[1] += value
            state[2] = min(state[2], value)
            state[3] = max(state[3], value)
        return self

    def consume(self, stream):
        for item in stream:
            self.add(item)
        return self

    def result(self):
        """``{group: {count, sum, mean, min, max}}`` (or one flat dict
        when no ``by`` columns were given).  An empty group-less stream
        reports ``count 0`` with ``mean/min/max`` of None — 'no data'
        must not read as an all-zero aggregate."""
        out = {group: {"count": count, "sum": total,
                       "mean": total / count, "min": low, "max": high}
               for group, (count, total, low, high) in self._groups.items()}
        if not self.by:
            return out.get((), {"count": 0, "sum": 0.0, "mean": None,
                                "min": None, "max": None})
        return out


def aggregate_stream(stream, value, by=()):
    """One-shot helper: fold a stream and return the aggregate result."""
    return StreamAggregator(value, by=by).consume(stream).result()
