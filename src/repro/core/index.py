"""On-disk GUFI index layout.

A GUFI index is *just files and directories* (paper §III-A1): the
source tree's directory structure is recreated under an index root,
and each directory holds one ``db.db`` plus any per-user/per-group
xattr side databases. That property — the index is manageable with
ordinary file tools, snapshotable, rsyncable, composable — is load-
bearing, so this module puts real directories and real SQLite files on
the local file system rather than abstracting them away.

Directory ownership and permission bits from the source tree are
preserved in each directory's ``summary`` record (rectype 0,
``isroot=1``). In the paper the bits are also applied to the physical
index directories so the kernel enforces them; we apply ``chmod``
best-effort for fidelity, but enforcement is performed by the query
engine against the summary record (see DESIGN.md substitutions — a
single-uid container cannot rely on kernel checks for other uids).
"""

from __future__ import annotations

import functools
import json
import os
import sqlite3
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.store import connect, layout, schema
from repro.store.layout import DirStore, StampBracket, is_side_artifact


META_FILE = "gufi_index.json"


@dataclass(frozen=True)
class DirStats:
    """Aggregate bounds over every entries row a directory's database
    can return, read from its ``summary`` record(s) — the planner's
    input (paper §III-A2: summary rows exist so queries can be *gated*
    by aggregates instead of scanning entries).

    For a rolled-up database the bounds are aggregated across **all**
    rectype-0 summary rows (the directory's own ``isroot=1`` record
    plus every rolled-in ``isroot=0`` copy), so they cover the merged
    ``pentries`` rows too. ``minsize``/``maxsize`` bound regular files
    only — symlink rows are outside them, which the planner must (and
    does) account for via ``totlinks``. Any field may be ``None``
    (no such rows, or a NULL in the backing columns); ``None`` always
    means "no bound" — the conservative-on-NULL rule.
    """

    totfiles: int | None
    totlinks: int | None
    minsize: int | None
    maxsize: int | None
    minmtime: int | None
    maxmtime: int | None
    minuid: int | None
    maxuid: int | None
    mingid: int | None
    maxgid: int | None
    #: deepest *absolute* directory depth in the subtree, from a
    #: tsummary row when one exists (None otherwise)
    maxdepth: int | None


@dataclass(frozen=True)
class DirMeta:
    """The traversal-relevant metadata of one index directory, read
    from its summary record — the moral equivalent of ``stat`` on the
    directory during descent. ``stats`` carries the summary aggregates
    the query planner gates on; a warm :class:`DirMetaCache` therefore
    holds enough to decide matchability without touching SQLite.

    A record comes in two shapes (see :meth:`GUFIIndex.read_dir_meta`).
    The **full** one is everything above. The **lean** one is the six
    own-record fields and nothing else — ``stats`` is ``None`` and
    ``tsummary`` is ``None``, *unknown*, not ``False`` — read by a walk
    that has no plan and no ``T`` stage and so can use neither. Only
    such a walk ever holds a lean record: :meth:`DirMetaCache.get_meta`
    never answers a full lookup with one."""

    inode: int
    mode: int
    uid: int
    gid: int
    rolledup: bool
    rollup_entries: int
    stats: DirStats | None = None
    #: the database holds tree-summary rows (``bfti`` was asked here):
    #: the ``T`` stage runs, and prunes, exactly where this is set.
    #: ``None`` marks a lean record: nobody looked.
    tsummary: bool | None = False

    @property
    def lean(self) -> bool:
        """Read without bounds and without the tree-summary probe."""
        return self.tsummary is None


class IndexError_(Exception):
    """Raised for structurally invalid indexes."""


_NO_SUMMARY = "index database has no directory summary record"


@functools.cache
def _meta_sql(alias: str) -> str:
    """The one per-directory metadata statement: every rectype-0
    ``summary`` row — own-record columns first, then the ten bound
    columns in :class:`DirStats` order — and whether the database has
    a ``tsummary`` table at all (few do)."""
    return (
        "SELECT isroot, inode, mode, uid, gid, rolledup, rollup_entries, "
        "totfiles, totlinks, minsize, maxsize, minmtime, maxmtime, "
        f"minuid, maxuid, mingid, maxgid, {schema.has_tsummary_sql(alias)} "
        f"FROM {alias}.summary WHERE rectype = {schema.RECTYPE_OVERALL}"
    )


@functools.cache
def _lean_meta_sql(alias: str) -> str:
    """The metadata statement of a walk with no plan and no ``T``: the
    directory's own record — one row even in a rolled-up database —
    and only columns every format version has."""
    return (
        "SELECT isroot, inode, mode, uid, gid, rolledup, rollup_entries "
        f"FROM {alias}.summary "
        f"WHERE rectype = {schema.RECTYPE_OVERALL} AND isroot = 1"
    )


@functools.cache
def _tsummary_sql(alias: str) -> str:
    """Asked only of a database that has the table: its row count and
    the subtree ``maxdepth`` of its overall record."""
    return (
        "SELECT COUNT(*), "
        f"MAX(CASE WHEN rectype = {schema.RECTYPE_OVERALL} THEN maxdepth END) "
        f"FROM {alias}.tsummary"
    )


def _fold_stats(rows: list[tuple], maxdepth: int | None) -> DirStats | None:
    """Fold :func:`_meta_sql` rows into the planner's bounds with SQL's
    aggregate rules: totals add, ``MIN``/``MAX`` skip NULLs.

    Conservative on NULL: if any row carries a NULL in a column the
    bounds depend on while claiming entries exist, the whole stats
    record is dropped (``None``) and the planner cannot gate this
    directory — a missing stat must widen, never narrow, the set of
    directories processed."""
    totfiles = totlinks = 0
    for r in rows:
        tf, tl = r[7], r[8]
        if (
            tf is None
            or tl is None
            or (tf > 0 and (r[9] is None or r[10] is None))
            or (tf + tl > 0 and None in r[11:17])
        ):
            return None
        totfiles += tf
        totlinks += tl
    bounds = []
    for i in range(9, 17):  # odd columns hold minima, even maxima
        vals = [r[i] for r in rows if r[i] is not None]
        bounds.append((min if i % 2 else max)(vals) if vals else None)
    return DirStats(
        totfiles, totlinks, *bounds,
        maxdepth=int(maxdepth) if maxdepth is not None else None,
    )


class DirMetaCache:
    """In-memory cache of per-directory :class:`DirMeta`, of child
    directory listings, and of tree-summary contributions (what one
    database adds to any ``tsummary`` above it, see
    :mod:`repro.core.tsummary`), shared by every query and every
    tree-summary build on one index handle.

    Entries are validated on every lookup against a stat-derived stamp
    of the backing file ((inode, mtime_ns, size) for ``db.db``,
    (inode, mtime_ns) for the directory), so out-of-band rewrites are
    caught by construction: the update path renames a new file over
    the database, changing the inode regardless of timestamp granularity.
    Writers inside this codebase (update, refresh, rollup/unrollup)
    additionally call the explicit ``invalidate*`` hooks — the
    authoritative mechanism, since DirMeta carries the §III-A security
    metadata (mode/uid/gid/rolledup) and a stale entry would mean a
    stale permission decision.

    Plain dict operations are atomic under the GIL, so concurrent
    worker threads need no lock; the hit/miss counters are advisory.
    """

    def __init__(self) -> None:
        self._meta: dict[str, tuple[tuple, DirMeta]] = {}
        self._subdirs: dict[str, tuple[tuple, list[str]]] = {}
        #: source path -> (db.db stamp, db.db path, contribution); the
        #: path string rides along so a warm lookup is one ``os.stat``
        self._contribs: dict[str, tuple[tuple, str, Any]] = {}
        self.meta_hits = 0
        self.meta_misses = 0
        self.subdir_hits = 0
        self.subdir_misses = 0
        self.contribution_hits = 0
        self.contribution_misses = 0
        self.invalidations = 0
        #: invalidation listeners: ``cb(path | None, subtree: bool)``,
        #: called after entries are dropped. The result cache hangs off
        #: this so every writer that announces itself here invalidates
        #: materialized results too (see engine/resultcache.py).
        self._listeners: list = []

    def add_listener(self, cb) -> None:
        """Subscribe to the ``invalidate*`` hooks. ``cb(path, subtree)``
        fires after each explicit invalidation: ``(path, False)`` for
        one directory, ``(path, True)`` for a subtree, ``(None, True)``
        for a full clear."""
        self._listeners.append(cb)

    def remove_listener(self, cb) -> None:
        """Unsubscribe a listener registered with :meth:`add_listener`.
        Unknown callbacks are ignored (unbind is idempotent)."""
        try:
            self._listeners.remove(cb)
        except ValueError:
            pass

    def _notify(self, path: str | None, subtree: bool) -> None:
        for cb in list(self._listeners):
            cb(path, subtree)

    # -- stamp peeks (no validation, no stat) -------------------------
    def peek_stamp(self, source_path: str) -> tuple | None:
        """The db.db stamp a cached DirMeta was validated against, or
        None when nothing is cached. Lets the result cache cross-check
        its store-time stamps against what the walk actually read."""
        entry = self._meta.get(source_path)
        return entry[0] if entry is not None else None

    def peek_subdir_stamp(self, source_path: str) -> tuple | None:
        """The directory stamp a cached child listing was validated
        against, or None when nothing is cached."""
        entry = self._subdirs.get(source_path)
        return entry[0] if entry is not None else None

    # -- DirMeta -------------------------------------------------------
    def get_meta(
        self, source_path: str, db_path: Path | str, lean: bool = False
    ) -> DirMeta | None:
        """The validated record, or ``None`` (a counted miss). A
        ``lean`` lookup — the caller reads mode/uid/gid/rolledup only —
        is served by either shape of record. A full lookup is never
        served by a lean record: it misses, the caller takes the cold
        path with the full statement, and what it publishes replaces
        the lean record. This is the one place that rule lives."""
        entry = self._meta.get(source_path)
        if entry is not None and (lean or not entry[1].lean):
            stamp = layout.file_stamp(db_path)
            if stamp is not None and stamp == entry[0]:
                self.meta_hits += 1
                return entry[1]
            self._meta.pop(source_path, None)
        self.meta_misses += 1
        return None

    def put_meta(self, source_path: str, stamp: tuple, meta: DirMeta) -> None:
        """Publish a record read under ``stamp``. A lean record never
        displaces a full one of the same file (two runs racing on one
        handle): the full one answers both kinds of lookup."""
        if meta.lean:
            entry = self._meta.get(source_path)
            if entry is not None and entry[0] == stamp and not entry[1].lean:
                return
        self._meta[source_path] = (stamp, meta)

    # -- subdir listings ----------------------------------------------
    def get_subdirs(self, source_path: str, dir_path: Path | str) -> list[str] | None:
        entry = self._subdirs.get(source_path)
        if entry is not None:
            stamp = layout.dir_stamp(dir_path)
            if stamp is not None and stamp == entry[0]:
                self.subdir_hits += 1
                return entry[1]
            self._subdirs.pop(source_path, None)
        self.subdir_misses += 1
        return None

    def put_subdirs(self, source_path: str, stamp: tuple, names: list[str]) -> None:
        self._subdirs[source_path] = (stamp, names)

    # -- tree-summary contributions -----------------------------------
    def get_contribution(self, source_path: str) -> Any | None:
        entry = self._contribs.get(source_path)
        if entry is not None:
            if layout.file_stamp(entry[1]) == entry[0]:
                self.contribution_hits += 1
                return entry[2]
            self._contribs.pop(source_path, None)
        self.contribution_misses += 1
        return None

    def put_contribution(
        self, source_path: str, stamp: tuple, db_path: str, contribution: Any
    ) -> None:
        self._contribs[source_path] = (stamp, db_path, contribution)

    # -- invalidation hooks -------------------------------------------
    def invalidate(self, source_path: str) -> None:
        """Drop one directory's cached metadata, child listing and
        tree-summary contribution."""
        self._meta.pop(source_path, None)
        self._subdirs.pop(source_path, None)
        self._contribs.pop(source_path, None)
        self.invalidations += 1
        self._notify(source_path, False)

    def invalidate_subtree(self, source_path: str) -> None:
        """Drop everything at or below ``source_path`` (plus the
        parent's child listing, which may now name different dirs)."""
        if source_path == "/":
            self.clear()
            return
        prefix = source_path + "/"
        for table in (self._meta, self._subdirs, self._contribs):
            for key in [
                k for k in list(table) if k == source_path or k.startswith(prefix)
            ]:
                table.pop(key, None)
        parent = source_path.rsplit("/", 1)[0] or "/"
        self._subdirs.pop(parent, None)
        self.invalidations += 1
        self._notify(source_path, True)

    def clear(self) -> None:
        self._meta.clear()
        self._subdirs.clear()
        self._contribs.clear()
        self.invalidations += 1
        self._notify(None, True)

    def stats(self) -> dict[str, int]:
        return {
            "meta_hits": self.meta_hits,
            "meta_misses": self.meta_misses,
            "subdir_hits": self.subdir_hits,
            "subdir_misses": self.subdir_misses,
            "contribution_hits": self.contribution_hits,
            "contribution_misses": self.contribution_misses,
            "invalidations": self.invalidations,
            "meta_entries": len(self._meta),
            "subdir_entries": len(self._subdirs),
            "contribution_entries": len(self._contribs),
        }


class GUFIIndex:
    """Handle to an index rooted at a real directory.

    The index mirrors source paths: source ``/home/u1/x`` lives at
    ``<root>/home/u1/x/db.db``. ``root`` itself mirrors the source
    ``/``.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        #: shared DirMeta/subdir-listing cache for every query session
        #: holding this handle (see :class:`DirMetaCache`)
        self.cache = DirMetaCache()

    # ------------------------------------------------------------------
    # Creation / opening
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, root: Path | str, source_name: str = "") -> "GUFIIndex":
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        idx = cls(root)
        idx._write_meta(
            {
                "format": "gufi-repro-1",
                "source": source_name,
                "created_at": time.time(),
            }
        )
        return idx

    @classmethod
    def open(cls, root: Path | str) -> "GUFIIndex":
        root = Path(root)
        if not (root / META_FILE).exists():
            raise IndexError_(f"{root} is not a GUFI index (missing {META_FILE})")
        return cls(root)

    def _write_meta(self, meta: dict) -> None:
        (self.root / META_FILE).write_text(json.dumps(meta, indent=2))

    @property
    def meta(self) -> dict:
        return json.loads((self.root / META_FILE).read_text())

    # ------------------------------------------------------------------
    # Path mapping
    # ------------------------------------------------------------------
    def index_dir(self, source_path: str) -> Path:
        """Index directory for a source path (``/`` maps to the root)."""
        rel = source_path.lstrip("/")
        return self.root / rel if rel else self.root

    def index_path(self, source_path: str) -> str:
        """:meth:`index_dir` as a plain string, for the per-directory
        readers (no ``Path`` on any walk's path)."""
        rel = source_path.strip("/")
        return f"{self.root}/{rel}" if rel else str(self.root)

    def source_path(self, index_dir: Path) -> str:
        """Inverse of :meth:`index_dir`."""
        rel = index_dir.relative_to(self.root)
        return "/" + str(rel) if str(rel) != "." else "/"

    def db_path(self, source_path: str) -> Path:
        return self.store(source_path).db_path

    def store(self, source_path: str) -> DirStore:
        """The store-layer handle for one directory's artifact set."""
        return DirStore(self.index_dir(source_path))

    # ------------------------------------------------------------------
    # Enumeration / statistics
    # ------------------------------------------------------------------
    def iter_index_dirs(self, start: str = "/") -> Iterator[Path]:
        """All index directories (depth-first) containing a ``db.db``."""
        for source_path, _names in self.iter_tree(start):
            yield self.index_dir(source_path)

    def iter_tree(self, start: str = "/") -> Iterator[tuple[str, list[str]]]:
        """``(source path, sorted sub-directory names)`` for every
        index directory containing a ``db.db``, depth-first: the tree
        as one enumeration of plain strings, one ``scandir`` per
        directory, for passes that need both the directories and
        their child listings (rollup)."""
        root = str(self.root)
        stack = [self.index_path(start)]
        while stack:
            path = stack.pop()
            names = []
            has_db = False
            try:
                with os.scandir(path) as it:
                    for de in it:
                        if de.is_dir(follow_symlinks=False):
                            names.append(de.name)
                        elif de.name == layout.DB_NAME:
                            has_db = True
            except OSError:
                continue  # not there (any more): nothing to enumerate
            names.sort()
            if has_db:
                yield path[len(root):] or "/", names
            stack.extend(f"{path}/{name}" for name in reversed(names))

    def count_dbs(self, start: str = "/") -> int:
        return sum(1 for _ in self.iter_index_dirs(start))

    def total_db_bytes(self, start: str = "/", include_side_dbs: bool = True) -> int:
        """Total on-disk size of all database files — Fig 8b's
        numerator."""
        total = 0
        base = self.index_dir(start)
        for dirpath, _, filenames in os.walk(base):
            for fn in filenames:
                if fn == layout.DB_NAME or (
                    include_side_dbs and is_side_artifact(fn)
                ):
                    total += layout.artifact_bytes(os.path.join(dirpath, fn))
        return total

    def total_entries(self, start: str = "/") -> int:
        """Sum of original entries rows across the index (excludes
        rolled-up duplicates in pentries)."""
        total = 0
        for d in self.iter_index_dirs(start):
            conn = connect.open_ro(d / layout.DB_NAME)
            try:
                (n,) = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
                total += n
            finally:
                conn.close()
        return total

    # ------------------------------------------------------------------
    # Per-directory metadata
    # ------------------------------------------------------------------
    @staticmethod
    def read_dir_meta(
        conn: sqlite3.Connection, alias: str = "main", lean: bool = False
    ) -> DirMeta:
        """Read the directory's own summary record from an open
        connection (the descent-time 'stat') plus the planner's
        aggregate bounds, in **one** statement: every rectype-0
        ``summary`` row (so rolled-up databases are bounded over their
        merged subtree too), folded by :func:`_fold_stats`, with the
        presence of a ``tsummary`` table as a scalar sub-select. Only
        where the table exists does a second statement read it — its
        row count and subtree ``maxdepth``. ``alias`` qualifies the
        schema when the database is ATTACHed rather than main.

        ``lean`` reads what a walk with no plan and no ``T`` stage can
        use and no more: the own record's seven columns, no
        ``sqlite_master`` sub-select, no fold. The record it returns
        says so (:attr:`DirMeta.lean`); its six fields equal the full
        record's."""
        if lean:
            own = conn.execute(_lean_meta_sql(alias)).fetchone()
            if own is None:
                raise IndexError_(_NO_SUMMARY)
            _isroot, inode, mode, uid, gid, rolledup, rollup_entries = own
            return DirMeta(
                inode, mode, uid, gid, bool(rolledup), rollup_entries,
                tsummary=None,
            )
        rows = conn.execute(_meta_sql(alias)).fetchall()
        own = next((r for r in rows if r[0] == 1), None)
        if own is None:
            raise IndexError_(_NO_SUMMARY)
        n_ts = maxdepth = None
        if own[17]:
            n_ts, maxdepth = conn.execute(_tsummary_sql(alias)).fetchone()
        try:
            stats = _fold_stats(rows, maxdepth)
        except TypeError:  # a non-numeric bound bounds nothing
            stats = None
        _isroot, inode, mode, uid, gid, rolledup, rollup_entries = own[:7]
        return DirMeta(
            inode, mode, uid, gid, bool(rolledup), rollup_entries, stats,
            bool(n_ts),
        )

    def _dir_meta(self, source_path: str, strict: bool) -> DirMeta | None:
        """The one bracketed reader behind :meth:`dir_meta` (strict:
        errors raise) and :meth:`cached_dir_meta` (lenient: ``None``).
        The stamp is taken before the read and re-checked after it: an
        entry is published only when the file provably did not change
        across the read, so a write racing the read can never pin a
        stale DirMeta."""
        db_path = os.path.join(self.index_path(source_path), layout.DB_NAME)
        meta = self.cache.get_meta(source_path, db_path)
        if meta is not None:
            return meta
        bracket = StampBracket(db_path)
        if bracket.missing and not strict:
            return None
        try:
            conn = connect.open_ro(db_path)
            try:
                meta = self.read_dir_meta(conn)
            finally:
                conn.close()
        except (sqlite3.Error, OSError, IndexError_):
            if strict:
                raise
            return None
        if bracket.unchanged():
            self.cache.put_meta(source_path, bracket.stamp, meta)
        return meta

    def dir_meta(self, source_path: str) -> DirMeta:
        meta = self._dir_meta(source_path, strict=True)
        assert meta is not None
        return meta

    def cached_dir_meta(self, source_path: str) -> DirMeta | None:
        """Cache-first DirMeta read with the query engine's lenient
        semantics: ``None`` for a missing or unreadable database
        instead of an exception (a denied-by-absence answer)."""
        return self._dir_meta(source_path, strict=False)

    def invalidate_cache(self, source_path: str | None = None) -> None:
        """Explicit invalidation hook for writers: one directory, or
        everything when ``source_path`` is None."""
        if source_path is None:
            self.cache.clear()
        else:
            self.cache.invalidate(source_path)

    def cached_subdir_names(self, source_path: str) -> list[str]:
        """:meth:`subdir_names` through the mtime-validated cache."""
        # a plain string: this runs once per directory of every walk
        base = self.index_path(source_path)
        names = self.cache.get_subdirs(source_path, base)
        if names is not None:
            return names
        stamp = layout.dir_stamp(base)
        names = self.subdir_names(source_path)
        if stamp is not None:
            self.cache.put_subdirs(source_path, stamp, names)
        return names

    def subdir_names(self, source_path: str) -> list[str]:
        """Names of index sub-directories (the physical readdir the
        query engine performs during descent)."""
        out = []
        try:
            with os.scandir(self.index_path(source_path)) as it:
                for de in it:
                    if de.is_dir(follow_symlinks=False):
                        out.append(de.name)
        except FileNotFoundError:
            raise IndexError_(f"no index directory for {source_path!r}") from None
        return sorted(out)

    def apply_physical_mode(self, source_path: str, mode: int) -> None:
        """Best-effort chmod of the physical index directory, for
        fidelity with the paper's kernel-enforced layout."""
        try:
            os.chmod(self.index_dir(source_path), mode & 0o777 | 0o700)
        except OSError:
            pass  # enforcement is engine-side; physical bits are cosmetic
