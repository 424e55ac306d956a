"""Unified typed results layer.

Every grid cell's JSON payload (the wire format the runner produces and
caches — untouched by this package) is wrapped in a frozen typed record
(:mod:`repro.results.record`), and collections of records form an
exportable :class:`ResultSet` (:mod:`repro.results.set`).
:mod:`repro.results.convert` holds the canonical payload→JSON plumbing
that used to be duplicated across the runner and the CLI.

The stable entry points for running sweeps and obtaining ``ResultSet``s
live one level up, in :mod:`repro.api`.
"""

from repro.results.convert import (
    flatten_metrics,
    format_buffer,
    jsonify,
    key_str,
)
from repro.results.record import (
    RECORD_TYPES,
    CellResult,
    QosResult,
    VideoResult,
    VoipResult,
    WebResult,
    record_from_payload,
)
from repro.results.set import ResultSet

__all__ = [
    "CellResult",
    "QosResult",
    "RECORD_TYPES",
    "ResultSet",
    "VideoResult",
    "VoipResult",
    "WebResult",
    "flatten_metrics",
    "format_buffer",
    "jsonify",
    "key_str",
    "record_from_payload",
]
