"""Shared engine datatypes: the query spec and result contracts.

These are the vocabulary every layer speaks — traversal produces work
the stage layer executes, sinks absorb rows, and the engine folds
everything into a :class:`QueryResult`. They live in their own module
so no layer has to import another just for a type.

:class:`QuerySpec` keeps ``gufi_query``'s flag names verbatim (paper
§III-C2): the mapping from tool flags to pipeline stages *is* the
public interface this reproduction preserves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scan.walker import WalkStats


#: a ``db.db`` :func:`~repro.store.layout.file_stamp` (None: no
#: database when the walk looked)
DbStamp = tuple[int, int, int] | None
#: an index directory's :func:`~repro.store.layout.dir_stamp` (None: the
#: walk read no listing there)
DirStamp = tuple[int, int] | None
#: a run's validity token: every directory it read -> the stamps it
#: read under, each taken before the read
Token = dict[str, tuple[DbStamp, DirStamp]]


class QueryPermissionError(PermissionError):
    """The query root (or an ancestor of it) is not searchable."""


@dataclass
class QuerySpec:
    """One query, in ``gufi_query`` flag terms."""

    I: str | None = None  # noqa: E741 - matches the tool's flag name
    T: str | None = None
    S: str | None = None
    E: str | None = None
    J: str | None = None
    G: str | None = None
    #: build the per-user temporary xattr views for E queries
    xattrs: bool = False
    #: stop T-pruning (process tsummary but keep descending)
    t_no_prune: bool = False

    def per_dir_stages(self) -> bool:
        """Whether any per-directory stage (T/S/E) is present."""
        return bool(self.T or self.S or self.E)


@dataclass
class QueryResult:
    rows: list[tuple]
    elapsed: float
    dirs_visited: int
    dirs_denied: int
    dbs_opened: int
    #: directories skipped because their database was corrupt/unreadable
    dirs_errored: int = 0
    #: directories whose stage execution the query plan skipped
    #: (stats gate proved no row can match, or depth window excluded
    #: the level)
    dirs_pruned_by_plan: int = 0
    #: plan-pruned directories that never attached their database at
    #: all (warm cache answered permission + matchability)
    attaches_elided: int = 0
    #: the files a file sink wrote (``SinkSummary.files``)
    output_files: list[str] | None = None
    #: True when the result sink hit its row cap and dropped rows
    #: (bounded/paginated sinks; see :mod:`repro.core.engine.sinks`)
    truncated: bool = False
    walk_stats: WalkStats | None = None
    #: wall-clock seconds spent per SQL stage (T/S/E summed across
    #: worker threads, J/G once), populated only when the process
    #: metrics recorder is enabled (see :mod:`repro.obs`)
    stage_seconds: dict[str, float] | None = None
    #: every source path the walk touched (visited, denied, pruned,
    #: elided, errored, absent) and every ancestor of the start, with
    #: the stamps it read them under — the run's validity token,
    #: collected only when a result cache needs one (see
    #: engine/resultcache.py); None otherwise
    visited_paths: Token | None = None
    #: the directories whose stages ran to completion, collected with
    #: ``visited_paths`` for a run whose cache entry could later donate
    #: their rows to its own re-run; None otherwise
    ran_paths: list[str] | None = None
    #: True when this result was replayed from the materialized result
    #: cache instead of a traversal
    cached: bool = False

    def scalar(self) -> object:
        """Convenience for single-value results."""
        if not self.rows or not self.rows[0]:
            return None
        return self.rows[0][0]


#: QueryResult counters carried verbatim from one run to another (a
#: scatter worker's shard, a result-cache replay)
_COUNTER_FIELDS = (
    "dirs_visited",
    "dirs_denied",
    "dbs_opened",
    "dirs_errored",
    "dirs_pruned_by_plan",
    "attaches_elided",
)


def spec_label(spec: QuerySpec) -> str:
    """Compact one-line description of a spec, for the slow-query log
    and trace attributes (SQL whitespace-collapsed and truncated)."""
    parts = []
    for flag in ("I", "T", "S", "E", "J", "G"):
        sql = getattr(spec, flag)
        if sql:
            sql = " ".join(sql.split())
            parts.append(f"{flag}={sql[:60]}")
    return "; ".join(parts) or "<empty spec>"
