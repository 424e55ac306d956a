"""Ordered, exportable collections of cell records.

A :class:`ResultSet` is an ordered list of typed records (see
:mod:`repro.results.record`), indexable by position or by sweep cell
key.  It has two read verbs — :meth:`ResultSet.filter` and
:meth:`ResultSet.value_map`, the ``{cell key: value}`` grid the report
layer consumes — and one writer per format (:meth:`ResultSet.to_csv`,
:meth:`ResultSet.to_json`).  Anything else is a comprehension over
records and :meth:`repro.results.record.CellResult.value`.

:meth:`ResultSet.from_stream` collects the records of
:meth:`repro.runner.grid.GridRunner.iter_run` and restores task order,
so a collected stream equals the batch :func:`repro.api.run_sweep`
result exactly.
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

    __slots__ = ("_records", "_by_key")

    def __init__(self, records=()):
        self._records = [_unwrap(record) for record in records]
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

    # -- queries ---------------------------------------------------------
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
