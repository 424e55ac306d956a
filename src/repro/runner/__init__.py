"""Parallel experiment runner with on-disk result caching.

The paper's figures and tables are grids of independent
(scenario x buffer size x seed) cells.  This package declares those
cells (:class:`CellTask`), executes them over a process pool with a
serial fallback (:class:`GridRunner`) and memoizes finished cells in a
JSON cache under ``.repro_cache/`` (:class:`ResultCache`) keyed by task
content hash plus a fingerprint of the package sources.

Knobs (environment variables):

* ``REPRO_WORKERS`` — worker process count, an integer of at least one
  (default: all cores); anything else raises ValueError.
* ``REPRO_CACHE`` — set to ``0`` to disable the result cache (in code:
  ``GridRunner(cache=ResultCache(enabled=False))``).
* ``REPRO_CACHE_DIR`` — cache directory (default ``.repro_cache``).
* ``REPRO_PROGRESS`` — set to ``1`` for per-cell progress/ETA lines.
"""

from repro.runner.cache import ResultCache, code_fingerprint
from repro.runner.execute import execute_task
from repro.runner.grid import GridRunner, resolve_workers
from repro.runner.task import CellTask

__all__ = [
    "CellTask",
    "GridRunner",
    "ResultCache",
    "code_fingerprint",
    "execute_task",
    "resolve_workers",
]
