"""The layered query engine: traversal / stages / sinks.

Public surface of :mod:`repro.core.engine`:

* :class:`QueryEngine` — the executor; ``run()`` / ``run_single()``
  accept an optional :class:`ResultSink`;
* the sink implementations (:class:`MemorySink`,
  :class:`ThreadFileSink`, :class:`BoundedSink`,
  :class:`PaginatedSink`);
* the shared datatypes (:class:`QuerySpec`, :class:`QueryResult`,
  :class:`QueryPermissionError`, :func:`spec_label`);
* the layer classes themselves (:class:`Traversal`,
  :class:`StageRunner`, :class:`MergeRunner`) for extension;
* :class:`ScatterGatherEngine` / :func:`plan_shards` — the
  multi-process scatter-gather front end behind ``processes > 1``;
* :class:`ResultCache` / :class:`CaptureSink` — the materialized
  query-result cache behind ``result_cache=`` (changefeed-driven
  invalidation; see :mod:`repro.core.engine.resultcache`).
"""

from .engine import QueryEngine
from .resultcache import CacheEntry, CaptureSink, ResultCache
from .scatter import ScatterGatherEngine, ShardPlan, plan_shards
from .sinks import (
    BoundedSink,
    MemorySink,
    PaginatedSink,
    ResultSink,
    Row,
    SinkSummary,
    ThreadFileSink,
)
from .stages import MergeRunner, StageRunner
from .traversal import (
    CancelToken,
    QueryCancelled,
    StageGates,
    Traversal,
    normalize_path,
    path_depth,
)
from .types import (
    QueryPermissionError,
    QueryResult,
    QuerySpec,
    spec_label,
)

__all__ = [
    "BoundedSink",
    "CacheEntry",
    "CancelToken",
    "CaptureSink",
    "MemorySink",
    "MergeRunner",
    "PaginatedSink",
    "QueryCancelled",
    "QueryEngine",
    "QueryPermissionError",
    "QueryResult",
    "QuerySpec",
    "ResultCache",
    "ResultSink",
    "Row",
    "ScatterGatherEngine",
    "ShardPlan",
    "SinkSummary",
    "StageGates",
    "StageRunner",
    "ThreadFileSink",
    "Traversal",
    "normalize_path",
    "path_depth",
    "plan_shards",
    "spec_label",
]
