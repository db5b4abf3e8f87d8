"""The layered query engine: traversal / stages / sinks.

Public surface of :mod:`repro.core.engine`:

* :class:`QueryEngine` — the executor; ``run()`` / ``run_single()``
  accept an optional :class:`ResultSink`;
* the sink implementations (:class:`MemorySink`,
  :class:`ThreadFileSink`, :class:`BoundedSink`,
  :class:`PaginatedSink`, :class:`PageSink`);
* the shared datatypes (:class:`QuerySpec`, :class:`QueryResult`,
  :class:`QueryPermissionError`, :func:`spec_label`);
* the layer classes themselves (:class:`Traversal`,
  :class:`StageRunner`, :class:`MergeRunner`) for extension;
* :class:`ScatterGatherEngine` / :func:`plan_shards` — the
  multi-process scatter-gather front end behind ``processes > 1``,
  whose planner is a dry run of the query's own :class:`Traversal`;
* :class:`ResultCache` / :class:`CaptureSink` — the materialized
  query-result cache behind ``result_cache=`` (changefeed-driven
  invalidation; see :mod:`repro.core.engine.resultcache`);
* :func:`replay_only` / :class:`NotCached` / :func:`small_entry` — the
  mode in which a run only replays an entry the write clock vouches
  for and the mode admits (the serving layer's event loop).
"""

from .engine import NotCached, QueryEngine, replay_only, small_entry
from .resultcache import CacheEntry, CaptureSink, ResultCache
from .scatter import ScatterGatherEngine, plan_shards
from .sinks import (
    BoundedSink,
    MemorySink,
    PageSink,
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
    "NotCached",
    "PageSink",
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
    "SinkSummary",
    "StageGates",
    "StageRunner",
    "ThreadFileSink",
    "Traversal",
    "normalize_path",
    "path_depth",
    "plan_shards",
    "replay_only",
    "small_entry",
    "spec_label",
]
