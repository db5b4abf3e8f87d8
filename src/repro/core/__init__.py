"""The Grand Unified File Index: schema, builders, rollup, tree
summaries, the parallel query engine, and the user-facing tools.
"""

from repro.store.layout import DB_NAME
from repro.store.schema import (
    RECTYPE_GROUP,
    RECTYPE_OVERALL,
    RECTYPE_USER,
    pack_xattr_names,
    pack_xattrs,
    unpack_xattrs,
)

from .build import (
    PARTIAL_SUFFIX,
    BuildOptions,
    BuildResult,
    build_dir_db,
    build_from_stanzas,
    dir2index,
    trace2index,
)
from .changefeed import ApplyResult, changefeed2index, reduce_events
from .checkpoint import (
    JOURNAL_NAME,
    BuildJournal,
    ChangefeedCheckpoint,
    JournalEntry,
)
from .compose import (
    CompositionError,
    ensure_dir_db,
    ValidationReport,
    graft,
    prune,
    validate,
)
from .engine import (
    BoundedSink,
    MemorySink,
    PaginatedSink,
    QueryEngine,
    ResultSink,
    SinkSummary,
    ThreadFileSink,
)
from .index import DirMeta, DirMetaCache, DirStats, GUFIIndex, IndexError_
from .plan import QueryPlan, plan_for
from .query import (
    Q1_LIST_NAMES,
    Q1_LIST_PATHS,
    Q2_DIR_SIZES,
    Q3_DU_SUMMARIES,
    Q4_DU_TSUMMARY,
    QueryPermissionError,
    QueryResult,
    QuerySpec,
)
from .refresh import (
    IndexDiff,
    IndexRefresher,
    RefreshRecord,
    diff_indexes,
)
from .rollup import (
    RollupStats,
    largest_visible_db_bytes,
    rollup,
    rollup_compatible,
    rollup_dir,
    unrollup_dir,
    visible_db_bytes,
    visible_db_count,
)
from .search import SearchQuery, SearchSyntaxError, parse as parse_search
from .session import ThreadStatePool
from .sqltext import like_pattern, quote_literal
from .stats import IndexStats, collect_stats, render_stats
from .server import (
    ALLOWED_TOOLS,
    AuthenticationError,
    GUFIServer,
    IdentityProvider,
    InvocationLog,
    QueryPortal,
    ToolNotAllowed,
)
from .tools import FindFilters, GUFITools
from .tsummary import TSummaryResult, build_tsummary, drop_tsummary
from .update import UpdateResult, update_directory
from .xattrs import (
    GID_NONE,
    UID_NONE,
    XattrShards,
    accessible_side_dbs,
    shard_xattrs,
    side_db_name,
    side_db_protection,
)

__all__ = [
    "diff_indexes",
    "RefreshRecord",
    "IndexRefresher",
    "IndexDiff",
    "render_stats",
    "parse_search",
    "collect_stats",
    "SearchSyntaxError",
    "SearchQuery",
    "IndexStats",
    "validate",
    "prune",
    "ensure_dir_db",
    "graft",
    "ValidationReport",
    "ToolNotAllowed",
    "QueryPortal",
    "InvocationLog",
    "IdentityProvider",
    "GUFIServer",
    "CompositionError",
    "AuthenticationError",
    "ALLOWED_TOOLS",
    "ApplyResult",
    "BuildJournal",
    "BuildOptions",
    "ChangefeedCheckpoint",
    "changefeed2index",
    "reduce_events",
    "BuildResult",
    "DB_NAME",
    "JOURNAL_NAME",
    "JournalEntry",
    "PARTIAL_SUFFIX",
    "DirMeta",
    "DirMetaCache",
    "DirStats",
    "QueryPlan",
    "plan_for",
    "ThreadStatePool",
    "BoundedSink",
    "MemorySink",
    "PaginatedSink",
    "QueryEngine",
    "ResultSink",
    "SinkSummary",
    "ThreadFileSink",
    "like_pattern",
    "quote_literal",
    "FindFilters",
    "GID_NONE",
    "GUFIIndex",
    "GUFITools",
    "IndexError_",
    "Q1_LIST_NAMES",
    "Q1_LIST_PATHS",
    "Q2_DIR_SIZES",
    "Q3_DU_SUMMARIES",
    "Q4_DU_TSUMMARY",
    "QueryPermissionError",
    "QueryResult",
    "QuerySpec",
    "RECTYPE_GROUP",
    "RECTYPE_OVERALL",
    "RECTYPE_USER",
    "RollupStats",
    "TSummaryResult",
    "UID_NONE",
    "UpdateResult",
    "XattrShards",
    "accessible_side_dbs",
    "build_dir_db",
    "build_from_stanzas",
    "build_tsummary",
    "dir2index",
    "drop_tsummary",
    "largest_visible_db_bytes",
    "pack_xattr_names",
    "pack_xattrs",
    "rollup",
    "rollup_compatible",
    "rollup_dir",
    "shard_xattrs",
    "side_db_name",
    "side_db_protection",
    "trace2index",
    "unpack_xattrs",
    "unrollup_dir",
    "update_directory",
    "visible_db_bytes",
    "visible_db_count",
]
