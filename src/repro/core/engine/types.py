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

# What one directory's step decided, recorded by a stream-shaped run
# (``QueryResult.outcomes``) so the run that replaces its cache entry
# can replay it: a kind in the low two bits, plus two flags.
#: permission refused: nothing else happened there
DENIED = 1
#: under a plan, no stage survives: nothing to attach (warm, elided)
NO_STAGE = 2
#: stages ran; the rows they emitted, if any, are the directory's batch
RAN = 3
#: the kind's bits
KIND = 3
#: the plan dropped a requested stage here
PLAN_PRUNED = 4
#: descent went on into the directory's listing
DESCENDED = 8


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

    def names_users(self) -> bool:
        """Whether a stage names ``uidtouser()``, whose answer follows
        the identity directory's name map as it is now: a result cache
        never holds such rows."""
        stages = (self.I, self.T, self.S, self.E, self.J, self.G)
        return any("uidtouser" in sql.lower() for sql in stages if sql)


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
    #: every directory the walk decided (not the errored or absent
    #: ones) -> what it decided there (:data:`DENIED`, :data:`NO_STAGE`
    #: or :data:`RAN`, with :data:`PLAN_PRUNED` and :data:`DESCENDED`),
    #: collected with ``visited_paths`` for a run whose cache entry
    #: could later donate those decisions to its own re-run; None
    #: otherwise
    outcomes: dict[str, int] | None = None
    #: True when this result was replayed from the materialized result
    #: cache instead of a traversal
    cached: bool = False
    #: the memo of the result-cache entry holding these rows (a replay,
    #: or a run whose capture was stored), None when no entry does.
    #: Through a sink that keeps rows in memory, ``rows`` is the
    #: entry's row sequence cut at the sink's cap, so a value derived
    #: from it may be kept there for the entry's next replay (see
    #: ``CacheEntry.memo``)
    memo: dict | None = None

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
