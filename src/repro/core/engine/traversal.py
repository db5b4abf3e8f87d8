"""Layer 1 — traversal: who may go where, and what descends.

This layer owns every decision that happens *before* SQL runs in a
directory (and the one after — descent):

* **permission enforcement** (paper §III-A5): every ancestor of the
  query root must grant search (``x``); each visited directory must
  grant search *and* read to the caller's credentials, judged against
  the preserved mode/uid/gid in its summary record;
* **plan gating** (:mod:`repro.core.plan`): the depth window and the
  summary-statistics matchability gates, including the decision to
  *elide* a directory's SQLite attach entirely when the warm
  :class:`~repro.core.index.DirMetaCache` already answers permission
  and matchability;
* **descent control**: tsummary pruning and rollup cuts stop the walk
  (a rolled-up database already contains its subtree, §III-C3), the
  plan's ``max_level`` / subtree-``maxdepth`` bounds cut whole
  subtrees, and child work units come from the index's cached
  subdirectory listings;
* **cooperative cancellation**: a :class:`CancelToken` (a deadline, a
  caller-side kill, or both) is observed once per directory, *before*
  any work for that directory happens, so a query past its deadline
  stops traversing instead of finishing the tree and reporting late —
  the enforcement half of the slow-query machinery the serving layer
  needs (:mod:`repro.serve`).

The layer never touches a SQLite connection: it reads only the
(mtime+inode-validated) metadata cache. Everything that needs the
database lives in :mod:`repro.core.engine.stages`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.fs.permissions import (
    Credentials,
    can_read_dir,
    can_search_dir,
)
from repro.scan.walker import FatalWalkError

from ..index import DirMeta, GUFIIndex
from ..plan import QueryPlan
from .types import DirStamp, QueryPermissionError, QuerySpec, Token


class QueryCancelled(FatalWalkError):
    """The run's :class:`CancelToken` fired mid-walk.

    Subclassing :class:`~repro.scan.walker.FatalWalkError` is what
    makes cancellation *prompt*: the walker's abort path drains the
    remaining work queue without processing it, so every worker thread
    stops within one directory of the flag being raised, and the
    exception propagates out of :meth:`QueryEngine.run`.
    """


class CancelToken:
    """Cooperative cancel flag, optionally with a monotonic deadline.

    Worker threads poll it (one attribute read plus, when a deadline is
    set, one clock read) once per directory; nothing sleeps on it. The
    flag is a plain bool written once — atomic under the GIL — so the
    token is safely shared between an asyncio serving thread and the
    engine's walker threads without locking.
    """

    __slots__ = ("_cancelled", "deadline")

    def __init__(self, deadline: float | None = None) -> None:
        #: absolute ``time.monotonic()`` deadline (None: manual only)
        self.deadline = deadline
        self._cancelled = False

    @classmethod
    def after(cls, seconds: float) -> "CancelToken":
        """A token that trips ``seconds`` from now."""
        return cls(deadline=time.monotonic() + seconds)

    def cancel(self) -> None:
        """Trip the flag (idempotent; callable from any thread)."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled or (
            self.deadline is not None and time.monotonic() >= self.deadline
        )

    def remaining(self) -> float | None:
        """Seconds until the deadline (None when deadline-less)."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()


def normalize_path(path: str) -> str:
    """Collapse a user path to the canonical ``/a/b`` form."""
    return "/" + "/".join(p for p in path.split("/") if p)


def path_depth(path: str) -> int:
    """Absolute depth of a canonical path (``/`` is 0)."""
    return 0 if path == "/" else path.count("/")


def proper_ancestors(path: str) -> list[str]:
    """Every proper ancestor of a path, ``/`` first (none for ``/``
    itself): the directories whose search bits gate reaching
    ``path`` — what :meth:`Traversal.check_start` asks and
    what a cached result's validity token records."""
    parts = [p for p in path.split("/") if p]
    return ["/" + "/".join(parts[:i]) for i in range(len(parts))]


@dataclass
class StageGates:
    """Which per-directory stages survive gating for one directory."""

    run_t: bool
    run_s: bool
    run_e: bool
    #: True when the plan dropped at least one requested stage here
    plan_pruned: bool


class Traversal:
    """One run's traversal policy: credentials + plan + spec flags.

    Construction is cheap; the engine builds one per ``run()`` /
    ``run_single()`` call. A plan that cannot matter (no per-directory
    stage to skip) is normalised away up front so the per-directory
    path tests a plain ``None``.
    """

    def __init__(
        self,
        index: GUFIIndex,
        creds: Credentials,
        spec: QuerySpec,
        plan: QueryPlan | None,
        start_depth: int = 0,
        cancel: CancelToken | None = None,
    ) -> None:
        self.index = index
        self.creds = creds
        self.spec = spec
        self.plan = plan if spec.per_dir_stages() else None
        self.start_depth = start_depth
        self.cancel = cancel

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Raise :class:`QueryCancelled` if the run's token fired.

        Called once per directory before any per-directory work, so
        the cancellation granularity — and therefore how far past its
        deadline a query can run — is bounded by the cost of a single
        directory, not of the whole tree."""
        token = self.cancel
        if token is not None and token.cancelled:
            raise QueryCancelled(
                "query cancelled"
                + (
                    " (deadline exceeded)"
                    if token.deadline is not None
                    and time.monotonic() >= token.deadline
                    else ""
                )
            )

    # ------------------------------------------------------------------
    # Permission enforcement
    # ------------------------------------------------------------------
    def check_start(self, start: str) -> Token:
        """The query root must be reachable — every proper ancestor,
        ``/`` first, grants search (x): the kernel's path-walk rule,
        reproduced for the index — and indexed. With a warm cache this
        is one dictionary lookup (plus a validating stat) per ancestor,
        not one database open per ancestor. Returns each ancestor's
        ``db.db`` stamp, the one its permission bits were read under
        (no listing: the walk reads none there)."""
        token: Token = {}
        for cur in proper_ancestors(start):
            meta = self.index.cached_dir_meta(cur)
            if meta is None:
                raise FileNotFoundError(f"no index directory for {cur!r}")
            if not can_search_dir(meta.mode, meta.uid, meta.gid, self.creds):
                raise QueryPermissionError(
                    f"permission denied traversing {cur!r}"
                )
            token[cur] = (meta.stamp, None)
        if not self.index.db_path(start).exists():
            raise FileNotFoundError(f"no index directory for {start!r}")
        return token

    def permitted(self, meta: DirMeta) -> bool:
        """x on the directory (to pass through) and r (to enumerate):
        the two bits one visited directory must grant."""
        return can_search_dir(
            meta.mode, meta.uid, meta.gid, self.creds
        ) and can_read_dir(meta.mode, meta.uid, meta.gid, self.creds)

    # ------------------------------------------------------------------
    # Plan gating
    # ------------------------------------------------------------------
    def wants_level(self, rel_depth: int) -> bool:
        return self.plan.wants_level(rel_depth) if self.plan else True

    def stage_gates(self, meta: DirMeta, rel_depth: int) -> StageGates:
        """Effective stages for one directory. Outside the depth window
        nothing runs; the stats gate (sound only for entries-shaped E)
        can further drop E. Under a plan, a directory where no stage
        survives is never attached: warm, the engine elides it."""
        spec = self.spec
        process_level = self.wants_level(rel_depth)
        run_t = bool(spec.T) and process_level
        run_s = bool(spec.S) and process_level
        run_e = bool(spec.E) and process_level
        plan_pruned = False
        if self.plan is not None:
            if run_e and not self.plan.dir_can_match(meta):
                run_e = False
            if (
                (bool(spec.T) and not run_t)
                or (bool(spec.S) and not run_s)
                or (bool(spec.E) and not run_e)
            ):
                plan_pruned = True
        return StageGates(
            run_t=run_t, run_s=run_s, run_e=run_e, plan_pruned=plan_pruned
        )

    # ------------------------------------------------------------------
    # Descent control
    # ------------------------------------------------------------------
    def t_prunes(self, meta: DirMeta, rel_depth: int) -> bool:
        """Does a tsummary answer this directory's subtree? Where ``T``
        runs (inside the plan's depth window) on tree-summary rows, and
        ``t_no_prune`` is off, ``S``/``E`` are skipped and descent
        stops (Fig 10's 230× query 4)."""
        spec = self.spec
        return bool(
            spec.T
            and meta.tsummary
            and not spec.t_no_prune
            and self.wants_level(rel_depth)
        )

    def descend(
        self, source_path: str, meta: DirMeta, rel_depth: int
    ) -> tuple[DirStamp, list[str]]:
        """The directory's child work units, or nothing when descent
        stops here: a tsummary answered the subtree (:meth:`t_prunes`),
        a rolled-up database already contains it, the plan's depth
        window is exhausted, or the cached subtree ``maxdepth`` proves
        ``min_level`` is unreachable. Returned with the stamp the
        listing was read under — ``None`` where none was read."""
        if meta.rolledup or self.t_prunes(meta, rel_depth):
            return None, []
        if self.plan is not None:
            sub_max = None
            stats = meta.stats
            if stats is not None and stats.maxdepth is not None:
                sub_max = stats.maxdepth - self.start_depth
            if not self.plan.descend_allowed(rel_depth, sub_max):
                return None, []
        prefix = "" if source_path == "/" else source_path
        stamp, names = self.index.cached_subdir_names(source_path)
        return stamp, [f"{prefix}/{name}" for name in names]
