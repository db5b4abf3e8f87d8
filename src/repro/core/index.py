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
import itertools
import json
import os
import sqlite3
import threading
import time
import weakref
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

from repro import obs
from repro.store import connect, layout, schema
from repro.store.layout import DirStore, StampBracket, is_side_artifact

if TYPE_CHECKING:
    from repro.store.watch import Watch


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
    #: the ``db.db`` :func:`~repro.store.layout.file_stamp` taken
    #: *before* the read: a cached record is valid while the file still
    #: has it, and a result-cache entry vouches for rows with it
    stamp: tuple[int, int, int] | None = field(default=None, compare=False)

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


def _at_or_below(keys: Iterable[str], tops: tuple[str, ...]) -> list[str]:
    """The source paths among ``keys`` at or below any of ``tops``
    (a snapshot: other threads may be adding keys)."""
    below = tuple(top + "/" for top in tops)
    return [k for k in list(keys) if k in tops or k.startswith(below)]


class _DbEntry(NamedTuple):
    """What was read of one ``db.db`` under ``stamp``: its record, its
    tree-summary contribution (and the file's path), or both."""

    stamp: tuple | None
    meta: DirMeta | None = None
    contrib: Any = None
    db_path: str = ""


class _Table(NamedTuple):
    """Stamped entries (``entry[0]``), the clean paths among them, and
    the :mod:`repro.store.layout` function that stamps their files."""

    stamp: str
    entries: dict[str, Any]
    clean: set[str]


#: what :meth:`DirMetaCache.counters` reports
_COUNTERS = (
    "meta_hits meta_misses subdir_hits subdir_misses contribution_hits "
    "contribution_misses invalidations validations_watch validations_stat"
).split()


class DirMetaCache:
    """In-memory cache of what was read of each index directory, shared
    by every query and every tree-summary build on one index handle:
    two stamped entries per directory. The ``db.db`` entry holds the
    :class:`DirMeta` and the tree-summary contribution (what the
    database adds to any ``tsummary`` above it), under the file's stamp
    (inode, mtime_ns, size); the listing entry holds the child names,
    under the directory's (inode, mtime_ns).

    One stamp rule (:meth:`_fresh`) says whether a file is still the
    one read: every lookup asks it (:meth:`_lookup`), and
    :meth:`current` asks it of the stamps a walk recorded. The update
    path renames a new file over the database, changing the inode
    whatever the timestamp granularity. Writers inside this codebase
    also call the ``invalidate*`` hooks — the authoritative mechanism,
    since DirMeta carries the §III-A security metadata: a stale entry
    would be a stale permission decision.

    **Watched lookups.** :attr:`epoch` is the handle's one change
    signal (``docs/ARCHITECTURE.md``). Where the handle's inotify watch
    is armed, each drained batch of events marks the directories it
    named dirty (:meth:`mark_dirty`). An entry is *clean* once a stamp
    check passed with no batch drained during it, until an event names
    its directory. A ``watched`` lookup — its caller drained the watch
    in the process that armed it (:meth:`GUFIIndex.sync`) — takes a
    clean entry with no ``stat``. Nothing cached before the watch armed
    is clean, nor is an entry put for another file since its check.

    Plain dict and set operations are atomic under the GIL, so
    concurrent worker threads need no lock: two puts racing on one
    entry may lose one half, a later miss; the counters are advisory.
    """

    def __init__(self) -> None:
        #: source path -> :class:`_DbEntry`
        self._db = _Table("file_stamp", {}, set())
        #: source path -> (directory stamp, child names)
        self._listings = _Table("dir_stamp", {}, set())
        self._tables = (self._db, self._listings)
        self.meta_hits = self.meta_misses = 0
        self.subdir_hits = self.subdir_misses = 0
        self.contribution_hits = self.contribution_misses = 0
        self.invalidations = 0
        #: lookups answered clean, with no stat, and by a stamp check
        self.validations_watch = self.validations_stat = 0
        #: the change counter, moved to a fresh tick by every batch
        #: :meth:`mark_dirty` applies and every ``invalidate*`` hook
        #: before it changes anything (racing writers never leave it at
        #: a value a reader saw): only equality counts
        self._ticks = itertools.count(1)
        self.epoch = 0
        #: ``cb(path | None, subtree: bool)``, called after a hook dropped
        #: entries: the result cache's invalidation (engine/resultcache.py)
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

    # -- the one stamp rule --------------------------------------------
    def _fresh(
        self, t: _Table, path: str, stamp: tuple | None, file: Any, watched: bool
    ) -> bool:
        """Is ``file`` still at ``stamp`` (``None``: still absent)? Yes,
        with no stat, for ``path``'s entry in ``t`` at ``stamp`` held
        clean under a drained watch (``watched``); else one stat says,
        marking a held entry clean (when watched) or dropping it."""
        entry = t.entries.get(path)
        held = stamp is not None and entry is not None and entry[0] == stamp
        if held and watched and path in t.clean:
            return True
        epoch = self.epoch
        if getattr(layout, t.stamp)(file) != stamp:
            if held:
                t.entries.pop(path, None)
            return False
        if held and watched:
            # marked first, checked second: a batch drained meanwhile
            # either moved the epoch already or marks the path after
            t.clean.add(path)
            if self.epoch != epoch:
                t.clean.discard(path)
        return True

    def _lookup(self, t: _Table, path: str, file: Any, watched: bool) -> Any:
        """The one lookup: ``path``'s entry in ``t`` while :meth:`_fresh`
        (a clean one first, with no stat: this runs per directory of
        every walk), else None; counted by the rule that answers."""
        entry = t.entries.get(path)
        if entry is None:
            return None
        if watched and path in t.clean:
            self.validations_watch += 1
            return entry
        self.validations_stat += 1
        return entry if self._fresh(t, path, entry[0], file, watched) else None

    def current(
        self, source_path: str, base: str, db_stamp: tuple | None,
        dir_stamp: tuple | None, watched: bool = False,
    ) -> bool:
        """Are ``source_path``'s ``db.db`` and — unless ``dir_stamp`` is
        None — its listing (index directory ``base``) still at the
        stamps a walk read them under? :meth:`_fresh`, uncounted."""
        db_path = f"{base}/{layout.DB_NAME}"
        return self._fresh(self._db, source_path, db_stamp, db_path, watched) and (
            dir_stamp is None
            or self._fresh(self._listings, source_path, dir_stamp, base, watched)
        )

    def _put(self, t: _Table, path: str, entry: tuple) -> None:
        """Hold ``entry``; one of another stamp is not clean."""
        held = t.entries.get(path)
        t.entries[path] = entry
        if held is None or held[0] != entry[0]:
            t.clean.discard(path)

    # -- the db.db entry: DirMeta and contribution ---------------------
    def get_meta(
        self,
        source_path: str,
        db_path: Path | str,
        lean: bool = False,
        watched: bool = False,
    ) -> DirMeta | None:
        """The validated record, or ``None`` (a counted miss). A
        ``lean`` lookup — the caller reads mode/uid/gid/rolledup only —
        is served by either shape of record. A full lookup is never
        served by a lean record: it misses, the caller takes the cold
        path with the full statement, and what it publishes replaces
        the lean record. This is the one place that rule lives.
        ``watched``: the caller drained the handle's watch."""
        entry = self._lookup(self._db, source_path, db_path, watched)
        meta = entry and entry.meta
        if meta and (lean or not meta.lean):
            self.meta_hits += 1
            return meta
        self.meta_misses += 1
        return None

    def put_meta(self, source_path: str, meta: DirMeta) -> None:
        """Publish a record read under ``meta.stamp``. A lean record
        never displaces a full one of the same file (two runs racing on
        one handle): the full one answers both kinds of lookup."""
        held = self._db.entries.get(source_path)
        if held is None or held.stamp != meta.stamp:
            held = _DbEntry(meta.stamp)
        elif meta.lean and held.meta is not None and not held.meta.lean:
            return
        self._put(self._db, source_path, held._replace(meta=meta))

    def get_contribution(self, source_path: str, watched: bool = False) -> Any:
        held = self._db.entries.get(source_path)
        if held is not None and held.contrib is not None:
            entry = self._lookup(self._db, source_path, held.db_path, watched)
            if entry is not None and entry.contrib is not None:
                self.contribution_hits += 1
                return entry.contrib
        self.contribution_misses += 1
        return None

    def put_contribution(
        self, source_path: str, stamp: tuple, db_path: str, contribution: Any
    ) -> None:
        held = self._db.entries.get(source_path)
        if held is None or held.stamp != stamp:
            held = _DbEntry(stamp)
        entry = held._replace(contrib=contribution, db_path=db_path)
        self._put(self._db, source_path, entry)

    # -- the listing entry ---------------------------------------------
    def get_subdirs(
        self, source_path: str, dir_path: Path | str, watched: bool = False
    ) -> tuple[tuple, list[str]] | None:
        """The validated ``(directory stamp, names)``, or ``None`` (a
        counted miss)."""
        entry = self._lookup(self._listings, source_path, dir_path, watched)
        if entry is not None:
            self.subdir_hits += 1
            return entry
        self.subdir_misses += 1
        return None

    def put_subdirs(self, source_path: str, stamp: tuple, names: list[str]) -> None:
        self._put(self._listings, source_path, (stamp, names))

    # -- the watch's dirty marks --------------------------------------
    def mark_dirty(self, paths: set[str], subtrees: list[str] | None) -> None:
        """One drained batch of watch events: ``paths`` and everything
        at or below each of ``subtrees`` are dirty — everything when
        ``subtrees`` is ``None`` (an overflow, a re-arm, a disarm). The
        entries stay; their next lookup checks their stamps. The epoch
        moves again once the marks are made, so a reading taken between
        the two never equals one taken after."""
        self.epoch = next(self._ticks)
        for t in self._tables:
            if subtrees is None:
                t.clean.clear()
                continue
            t.clean.difference_update(paths)
            if subtrees:
                t.clean.difference_update(_at_or_below(t.clean, tuple(subtrees)))
        self.epoch = next(self._ticks)

    # -- invalidation hooks -------------------------------------------
    def invalidate(self, source_path: str) -> None:
        """Drop one directory's ``db.db`` and listing entries."""
        self.epoch = next(self._ticks)
        for t in self._tables:
            t.entries.pop(source_path, None)
            t.clean.discard(source_path)
        self.invalidations += 1
        self._notify(source_path, False)

    def invalidate_subtree(self, source_path: str) -> None:
        """Drop everything at or below ``source_path`` (plus the
        parent's child listing, which may now name different dirs)."""
        if source_path == "/":
            self.clear()
            return
        self.epoch = next(self._ticks)
        for t in self._tables:
            for key in _at_or_below(t.entries, (source_path,)):
                t.entries.pop(key, None)
            t.clean.difference_update(_at_or_below(t.clean, (source_path,)))
        parent = source_path.rsplit("/", 1)[0] or "/"
        self._listings.entries.pop(parent, None)
        self._listings.clean.discard(parent)
        self.invalidations += 1
        self._notify(source_path, True)

    def clear(self) -> None:
        self.epoch = next(self._ticks)
        for t in self._tables:
            t.entries.clear()
            t.clean.clear()
        self.invalidations += 1
        self._notify(None, True)

    def counters(self) -> dict[str, int]:
        """The counters, in O(1): what a run's metrics fold reads."""
        return {name: getattr(self, name) for name in _COUNTERS}

    def stats(self) -> dict[str, int]:
        """:meth:`counters` and what the tables hold."""
        entries = list(self._db.entries.values())
        return {
            **self.counters(),
            "meta_entries": sum(e.meta is not None for e in entries),
            "subdir_entries": len(self._listings.entries),
            "contribution_entries": sum(e.contrib is not None for e in entries),
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
        #: the inotify watch over this handle's tree, once
        #: :meth:`arm_watch` armed one (see :mod:`repro.store.watch`)
        self.watch: Watch | None = None
        #: held while the one attempt to arm runs
        self._arm_lock = threading.Lock()
        self._arm_tried = False

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

    # ------------------------------------------------------------------
    # The watch: one change signal per handle
    # ------------------------------------------------------------------
    def arm_watch(self) -> None:
        """Arm this handle's watch, once: the first result-cache bind
        and ``serve``'s start-up ask, never :meth:`open`, so a one-shot
        CLI handle stays unarmed. The walk over the tree (≈19 µs a
        directory) runs under the handle's own one-shot lock, never a
        cache's; a tree over its share of the watch budget, or on a
        file system the watch cannot vouch for, stays unarmed. Its
        drained events mark :attr:`cache`'s entries dirty; the watch
        goes with the handle."""
        with self._arm_lock:
            if self._arm_tried:
                return
            self._arm_tried = True
            # imported here: a one-shot CLI run arms nothing and need
            # not load ctypes
            from repro.store import watch

            w = watch.arm(str(self.root), self.cache.mark_dirty)
            if w is not None:
                weakref.finalize(self, w.release)
            self.watch = w
        obs.metrics().gauge("gufi_index_watch_armed", self.watched)

    @property
    def watched(self) -> bool:
        """Is the watch armed, and this the process that armed it?"""
        w = self.watch
        return w is not None and w.armed and os.getpid() == w.pid

    def sync(self) -> bool:
        """Drain the watch into :attr:`cache` before a walk: True when
        the walk may take clean entries with no stat (the watch is
        armed, in this process, over the tree the root still names —
        one ``stat`` of the root, then the drain)."""
        w = self.watch
        return w is not None and w.sync()

    def _write_meta(self, meta: dict) -> None:
        tmp = self.root / f".{META_FILE}.tmp"
        tmp.write_text(json.dumps(meta, indent=2))
        layout.publish(tmp, self.root / META_FILE)

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
        conn: sqlite3.Connection,
        alias: str = "main",
        lean: bool = False,
        stamp: tuple[int, int, int] | None = None,
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
        record's. ``stamp`` is the database's stamp taken before the
        read (:attr:`DirMeta.stamp`)."""
        if lean:
            own = conn.execute(_lean_meta_sql(alias)).fetchone()
            if own is None:
                raise IndexError_(_NO_SUMMARY)
            _isroot, inode, mode, uid, gid, rolledup, rollup_entries = own
            return DirMeta(
                inode, mode, uid, gid, bool(rolledup), rollup_entries,
                tsummary=None, stamp=stamp,
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
            bool(n_ts), stamp,
        )

    def _dir_meta(
        self, source_path: str, strict: bool, watched: bool = False
    ) -> DirMeta | None:
        """The one bracketed reader behind :meth:`dir_meta` (strict:
        errors raise) and :meth:`cached_dir_meta` (lenient: ``None``).
        The stamp is taken before the read and re-checked after it: an
        entry is published only when the file provably did not change
        across the read, so a write racing the read can never pin a
        stale DirMeta. ``watched``: the caller drained the watch
        (:meth:`sync`)."""
        db_path = os.path.join(self.index_path(source_path), layout.DB_NAME)
        meta = self.cache.get_meta(source_path, db_path, watched=watched)
        if meta is not None:
            return meta
        bracket = StampBracket(db_path)
        if bracket.missing and not strict:
            return None
        try:
            conn = connect.open_ro(db_path)
            try:
                meta = self.read_dir_meta(conn, stamp=bracket.stamp)
            finally:
                conn.close()
        except (sqlite3.Error, OSError, IndexError_):
            if strict:
                raise
            return None
        if bracket.unchanged():
            self.cache.put_meta(source_path, meta)
        return meta

    def dir_meta(self, source_path: str) -> DirMeta:
        meta = self._dir_meta(source_path, strict=True)
        assert meta is not None
        return meta

    def cached_dir_meta(
        self, source_path: str, watched: bool = False
    ) -> DirMeta | None:
        """Cache-first DirMeta read with the query engine's lenient
        semantics: ``None`` for a missing or unreadable database
        instead of an exception (a denied-by-absence answer)."""
        return self._dir_meta(source_path, False, watched)

    def invalidate_cache(self, source_path: str | None = None) -> None:
        """Explicit invalidation hook for writers: one directory, or
        everything when ``source_path`` is None."""
        if source_path is None:
            self.cache.clear()
        else:
            self.cache.invalidate(source_path)

    def cached_subdir_names(
        self, source_path: str, watched: bool = False
    ) -> tuple[tuple[int, int] | None, list[str]]:
        """:meth:`subdir_names` through the mtime-validated cache, with
        the directory stamp the listing was validated or read under
        (taken before the read; ``None`` when the directory is gone).
        ``watched``: the caller drained the watch (:meth:`sync`)."""
        # a plain string: this runs once per directory of every walk
        base = self.index_path(source_path)
        entry = self.cache.get_subdirs(source_path, base, watched)
        if entry is not None:
            return entry
        stamp = layout.dir_stamp(base)
        names = self.subdir_names(source_path)
        if stamp is not None:
            self.cache.put_subdirs(source_path, stamp, names)
        return stamp, names

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
