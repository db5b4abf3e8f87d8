"""Summary-statistics query planning (paper §III-A2, Figs 7-8).

Per-directory ``summary`` rows exist precisely so queries can be
answered from — or *gated by* — aggregate statistics instead of
scanning ``entries``. The real ``gufi_query`` exploits this with
summary-gated entries queries and ``-y``/``-z`` level pruning; this
module is that planner for the reproduction's engine.

A :class:`QueryPlan` is compiled from :class:`~repro.core.tools
.FindFilters` (the ``find``/search-bar predicate set). Two independent
prunes fall out of it:

* **stats gates** — size / mtime-window / uid / gid / type predicates
  evaluated against each directory's cached
  :class:`~repro.core.index.DirStats` bounds. When a directory
  *provably* cannot contain a matching row, the engine skips the ``E``
  stage for it; on a warm cache it skips the SQLite attach entirely
  and descends off the cached child listing. Name globs and xattr
  predicates are conservatively non-prunable (summary rows carry no
  name or xattr-name bounds) — they simply contribute no gate, while
  the other AND-ed terms still do.
* **depth window** — ``min_level``/``max_level`` mirror
  ``gufi_query -y/-z``: directories outside the window (levels
  relative to the query start) are traversed but not processed, and
  nothing below ``max_level`` is visited at all. When a directory
  carries a tsummary, its subtree ``maxdepth`` additionally cuts whole
  subtrees that provably cannot reach ``min_level``.

Correctness discipline (the rollup security theorem's, applied to
planning): gates only ever *widen* the processed set on uncertainty.
A ``None`` bound (NULL summary column, corrupted record, no
:class:`DirStats` at all) disables that gate rather than guessing, so
a planned run returns byte-identical rows to an unplanned run for
every credential — root and unprivileged alike. The depth window is
the one *semantic* knob: it changes which directories are processed by
definition, exactly as ``-y``/``-z`` do.

Bound fine print, encoded in :meth:`QueryPlan.dir_can_match`:

* ``minsize``/``maxsize`` bound **regular files only**. A size gate is
  therefore only sound when symlink rows are out of the picture —
  either the query's type filter is ``f`` or the directory holds no
  links (``totlinks == 0``); a ``type:l`` query never size-gates.
* ``minmtime``/``maxmtime`` and the uid/gid bounds cover *all* entries
  rows (files and links), so they gate unconditionally.
* count gates: a type filter with a zero matching count, or an empty
  directory under an entries-shaped query, cannot match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, overload

from .index import DirMeta


@dataclass(frozen=True)
class QueryPlan:
    """Compiled prunability facts for one query. Immutable and
    engine-agnostic: evaluation takes a :class:`DirMeta` (and relative
    depths) and answers "can this directory possibly matter?"."""

    #: predicates with summary-derived bounds (all optional)
    min_size: int | None = None
    max_size: int | None = None
    mtime_before: int | None = None
    mtime_after: int | None = None
    uid: int | None = None
    gid: int | None = None
    ftype: str | None = None
    #: depth window relative to the query start (gufi_query -y/-z)
    min_level: int | None = None
    max_level: int | None = None
    #: the ``E`` stage reads only entries-derived rows
    #: (pentries/vrpentries/xpentries), so the stats gates — including
    #: the empty-directory gate — are sound. False for depth-only plans
    #: wrapped around raw user SQL, whose ``E`` may read anything.
    entries_shaped: bool = True

    # ------------------------------------------------------------------
    # Stats gate
    # ------------------------------------------------------------------
    def dir_can_match(self, meta: DirMeta) -> bool:
        """Could the directory's database contain an entries row
        matching every predicate? ``True`` unless provably not —
        missing stats or any ``None`` bound pass conservatively."""
        if not self.entries_shaped:
            return True
        stats = meta.stats
        if stats is None:
            return True
        # count gates: no candidate rows at all
        if stats.totfiles is not None and stats.totlinks is not None:
            if self.ftype == "f" and stats.totfiles == 0:
                return False
            if self.ftype == "l" and stats.totlinks == 0:
                return False
            if stats.totfiles + stats.totlinks == 0:
                return False
        # size bounds cover files only: sound iff links are excluded by
        # the type filter or absent from the directory
        size_gate_ok = self.ftype == "f" or (
            self.ftype != "l" and stats.totlinks == 0
        )
        if size_gate_ok:
            if (
                self.min_size is not None
                and stats.maxsize is not None
                and stats.maxsize < self.min_size
            ):
                return False
            if (
                self.max_size is not None
                and stats.minsize is not None
                and stats.minsize > self.max_size
            ):
                return False
        # mtime window covers every entries row
        if (
            self.mtime_before is not None
            and stats.minmtime is not None
            and stats.minmtime >= self.mtime_before
        ):
            return False
        if (
            self.mtime_after is not None
            and stats.maxmtime is not None
            and stats.maxmtime <= self.mtime_after
        ):
            return False
        # ownership bounds cover every entries row
        if (
            self.uid is not None
            and stats.minuid is not None
            and stats.maxuid is not None
            and not (stats.minuid <= self.uid <= stats.maxuid)
        ):
            return False
        if (
            self.gid is not None
            and stats.mingid is not None
            and stats.maxgid is not None
            and not (stats.mingid <= self.gid <= stats.maxgid)
        ):
            return False
        return True

    # ------------------------------------------------------------------
    # Depth window
    # ------------------------------------------------------------------
    def wants_level(self, rel_depth: int) -> bool:
        """Should a directory at this level (relative to the query
        start) be *processed* (T/S/E run against it)?"""
        if self.min_level is not None and rel_depth < self.min_level:
            return False
        if self.max_level is not None and rel_depth > self.max_level:
            return False
        return True

    def descend_allowed(
        self, rel_depth: int, subtree_rel_maxdepth: int | None = None
    ) -> bool:
        """Should the walk continue *below* a directory at this level?

        ``subtree_rel_maxdepth`` is the deepest level the subtree
        reaches (relative to the query start, from a tsummary
        ``maxdepth`` when one exists): when even the deepest descendant
        sits above ``min_level``, the whole subtree is cut."""
        if self.max_level is not None and rel_depth >= self.max_level:
            return False
        if (
            self.min_level is not None
            and subtree_rel_maxdepth is not None
            and subtree_rel_maxdepth < self.min_level
        ):
            return False
        return True


@overload
def plan_for(filters, planned: Literal[True] = True) -> QueryPlan:
    ...


@overload
def plan_for(filters, planned: bool) -> QueryPlan | None:
    ...


def plan_for(filters, planned: bool = True) -> QueryPlan | None:
    """Compile a :class:`QueryPlan` from ``find``-style filters (a
    :class:`~repro.core.tools.FindFilters`). Name and xattr predicates
    contribute no gate (non-prunable); everything else maps 1:1.

    ``planned=False`` (``--no-plan``) switches the stats gates off and
    nothing else: the depth window is *semantic* — it changes which
    levels are processed — so it survives as a window-only plan
    (``entries_shaped=False``); with no window there is no plan."""
    if not planned:
        if filters.min_level is None and filters.max_level is None:
            return None
        return QueryPlan(
            min_level=filters.min_level,
            max_level=filters.max_level,
            entries_shaped=False,
        )
    return QueryPlan(
        min_size=filters.min_size,
        max_size=filters.max_size,
        mtime_before=filters.mtime_before,
        mtime_after=filters.mtime_after,
        uid=filters.uid,
        gid=filters.gid,
        ftype=filters.ftype,
        min_level=filters.min_level,
        max_level=filters.max_level,
    )
