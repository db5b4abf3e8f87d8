"""Index construction tools (paper §III-A3, §III-C1).

Two paths mirror GUFI's tool pair:

* :func:`dir2index` — in-situ: the parallel breadth-first scan of the
  source tree creates each directory's database as the directory is
  encountered (``gufi_dir2index``);
* :func:`trace2index` — post-processing: a previously written trace
  file (possibly from a faster custom scanner on another machine) is
  ingested in parallel (``gufi_trace2index``).

Both funnel into :func:`build_dir_db`, which writes one directory's
``entries`` rows, ``summary`` record(s), and xattr shards. It has one
writer and two producers of rows: a trace stanza's records are
converted with :func:`entry_row`; a live directory's inodes
(:func:`dir_rows` — ``dir2index``, and the single-directory rescans of
:mod:`repro.core.update` and :mod:`repro.core.changefeed`) become rows
directly, with a :class:`~repro.scan.trace.TraceRecord` only for the
directory and for the entries that carry xattrs.

Crash safety and resumability
-----------------------------

Mid-scan failures are routine on file systems with billions of
entries, so the build path is structured to survive them:

* **Atomic publish** — :func:`build_dir_db` stages every artifact
  under a ``.partial`` name and ``DirStore.publish`` renames the side
  databases first, ``db.db`` — the commit point — last: a crash
  leaves ``db.db`` new or as it was, never a hole. Side shards are
  not covered: a crash between the renames leaves the old ``db.db``
  reading a new shard.
* **Journal** — each published directory is appended to a
  :class:`~repro.core.checkpoint.BuildJournal`
  (``gufi_build.journal`` in the index root). A rerun with
  ``BuildOptions(resume=True)`` skips every directory whose journal
  stamp still matches the on-disk database and rebuilds the rest; the
  journal is deleted when a build completes with zero errors.
* **Retry, then record** — transient per-directory errors are retried
  with bounded backoff (:class:`~repro.scan.walker.RetryPolicy`);
  exhausted items land in ``BuildResult.errors`` as a structured
  partial-progress report instead of aborting the whole build.
* **Fault injection** — ``BuildOptions(faults=FaultPlan(...))``
  threads a deterministic :class:`~repro.scan.faults.FaultPlan`
  through the walker, :func:`build_dir_db`, and the xattr shard
  writer, so tests can kill a build at exactly the Nth directory and
  prove resume correctness.
"""

from __future__ import annotations

import dataclasses
import posixpath
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

from repro import obs
from repro.fs.inode import BLKSIZE, FileType, Inode
from repro.fs.tree import VFSTree
from repro.scan.faults import FaultPlan
from repro.scan.scanners import record_from_inode
from repro.scan.trace import DirStanza, TraceRecord, read_trace
from repro.scan.walker import FatalWalkError, ParallelTreeWalker, RetryPolicy
from repro.store import schema
from repro.store.layout import DB_NAME, DirStore, file_stamp

from .checkpoint import BuildJournal
from .index import DirMeta, GUFIIndex
from .tsummary import read_contribution
from .xattrs import shard_xattrs, write_xattr_shards


@dataclass
class BuildOptions:
    """Knobs for index construction."""

    nthreads: int = 8
    #: also write per-user and per-group summary records (rectype 1/2)
    per_user_group_summaries: bool = False
    #: skip directories already journaled by an interrupted build
    resume: bool = False
    #: transient-error policy for per-directory work; None disables
    #: retries entirely
    retry: RetryPolicy | None = field(default_factory=RetryPolicy)
    #: deterministic fault injection (tests, resilience experiments)
    faults: FaultPlan | None = None


@dataclass
class BuildResult:
    index: GUFIIndex
    seconds: float
    dirs_created: int
    entries_inserted: int
    side_dbs_created: int
    #: directories skipped because the resume journal proved them done
    dirs_skipped: int = 0
    #: retry attempts spent on transient per-directory failures
    dirs_retried: int = 0
    #: directories that failed after retries: (source path, exception).
    #: A non-empty list means the index is partial and the build
    #: journal was kept for a future ``resume=True`` run.
    errors: list[tuple[str, Exception]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def dirs_per_second(self) -> float:
        return self.dirs_created / self.seconds if self.seconds > 0 else 0.0

    @property
    def rows_per_second(self) -> float:
        total = self.dirs_created + self.entries_inserted
        return total / self.seconds if self.seconds > 0 else 0.0


#: getters of the ``entries`` columns a summary record aggregates
_TYPE, _UID, _GID, _SIZE, _ATIME, _MTIME, _XATTR_NAMES = (
    itemgetter(schema.ENTRIES_COLUMNS.index(c))
    for c in ("type", "uid", "gid", "size", "atime", "mtime", "xattr_names")
)


def _aggregates(rows: list[tuple]) -> tuple:
    """The §III-B aggregate columns of a summary record over ``entries``
    rows, in :data:`schema.SUMMARY_COLUMNS` order from ``totfiles`` to
    ``totxattr`` — ``totsubdirs`` (from the directory's ``nlink``) left
    out. Each column is pulled out of the rows once, in C
    (``map(itemgetter)``), and aggregated by builtins."""
    if not rows:
        return (0, 0, None, None, None, None, None, None, 0,
                None, None, None, None, 0)
    types = list(map(_TYPE, rows))
    uids = list(map(_UID, rows))
    gids = list(map(_GID, rows))
    sizes = list(map(_SIZE, rows))
    atimes = list(map(_ATIME, rows))
    mtimes = list(map(_MTIME, rows))
    nfiles = types.count("f")
    nlinks = types.count("l")
    if nfiles == len(types):
        fsizes = sizes
    else:
        fsizes = [s for t, s in zip(types, sizes) if t == "f"]
    # files and symlinks add their sizes (the only non-directory types)
    if nfiles + nlinks == len(types):
        totsize = sum(sizes)
    else:
        totsize = sum(s for t, s in zip(types, sizes) if t in ("f", "l"))
    return (
        nfiles,
        nlinks,
        min(uids),
        max(uids),
        min(gids),
        max(gids),
        min(fsizes) if fsizes else None,
        max(fsizes) if fsizes else None,
        totsize,
        min(mtimes),
        max(mtimes),
        min(atimes),
        max(atimes),
        # totxattr: the rows that name an xattr
        len(rows) - list(map(_XATTR_NAMES, rows)).count(""),
    )


def summary_rows(
    d: TraceRecord, rows: list[tuple], depth: int, per_user_group: bool
) -> list[tuple]:
    """Build the summary record(s) of directory ``d`` from its
    ``entries`` rows (:data:`schema.ENTRIES_COLUMNS` order).

    The overall (rectype 0) record carries the directory's own inode
    attributes — the query engine's permission source — plus the
    aggregates §III-B lists. Optional rectype 1/2 records restrict the
    aggregates to one uid/gid, making per-user/per-group queries a
    single-row read.

    ``name`` identifies what a record describes: the directory's own
    basename for the overall record (rollup and the rpath machinery
    key on it), and the principal slice — ``u<uid>`` / ``g<gid>`` —
    for per-user/per-group records, which describe a credential's view
    of the directory rather than the directory itself.
    """
    subdirs = max(0, d.nlink - 2)  # POSIX: nlink = 2 + subdir count

    def record(name: str, rectype: int, uid: int, gid: int, agg: tuple) -> tuple:
        return (
            name, rectype, 1,  # isroot
            d.ino, d.mode, d.nlink, uid, gid, d.size, d.blksize, d.blocks,
            d.atime, d.mtime, d.ctime,
            agg[0], agg[1], subdirs, *agg[2:],
            0,  # rolledup
            0,  # rollup_entries
            depth,
        )

    out = [record(d.name, schema.RECTYPE_OVERALL, d.uid, d.gid, _aggregates(rows))]
    if per_user_group:
        by_uid: dict[int, list[tuple]] = {}
        by_gid: dict[int, list[tuple]] = {}
        for r in rows:
            by_uid.setdefault(_UID(r), []).append(r)
            by_gid.setdefault(_GID(r), []).append(r)
        for uid, rs in sorted(by_uid.items()):
            out.append(record(f"u{uid}", schema.RECTYPE_USER, uid, d.gid,
                              _aggregates(rs)))
        for gid, rs in sorted(by_gid.items()):
            out.append(record(f"g{gid}", schema.RECTYPE_GROUP, d.uid, gid,
                              _aggregates(rs)))
    return out


_SUMMARY_INSERT = (
    "INSERT INTO summary ("
    + ", ".join(schema.SUMMARY_COLUMNS)
    + ") VALUES ("
    + ", ".join("?" * len(schema.SUMMARY_COLUMNS))
    + ")"
)

_ENTRIES_INSERT = (
    "INSERT INTO entries ("
    + ", ".join(schema.ENTRIES_COLUMNS)
    + ") VALUES ("
    + ", ".join("?" * len(schema.ENTRIES_COLUMNS))
    + ")"
)


def entry_row(rec: TraceRecord) -> tuple:
    """A trace record as its ``entries`` row
    (:data:`schema.ENTRIES_COLUMNS` order)."""
    return (
        rec.name,
        rec.ftype,
        rec.ino,
        rec.mode,
        rec.nlink,
        rec.uid,
        rec.gid,
        rec.size,
        rec.blksize,
        rec.blocks,
        rec.atime,
        rec.mtime,
        rec.ctime,
        rec.linkname,
        schema.pack_xattr_names(rec.xattrs),
    )


@dataclass
class DirRows:
    """One directory as the database writer takes it: the directory's
    own record, its ``entries`` rows (:data:`schema.ENTRIES_COLUMNS`
    order) and a record for every entry that carries xattrs — the only
    entries :func:`~repro.core.xattrs.shard_xattrs` looks at."""

    directory: TraceRecord
    rows: list[tuple] = field(default_factory=list)
    xattr_entries: list[TraceRecord] = field(default_factory=list)


_FILE, _SYMLINK = FileType.FILE, FileType.SYMLINK


def dir_rows(
    directory: TraceRecord, children: Iterable[tuple[str, Inode]]
) -> DirRows:
    """A live directory's :class:`DirRows`, built straight from the
    ``(name, Inode)`` pairs a READDIRPLUS returned
    (:meth:`~repro.fs.tree.VFSTree.readdir_plus`): one row per
    non-directory child, column for column what :func:`entry_row` makes
    of :func:`~repro.scan.scanners.record_from_inode`'s record, and a
    record only for the xattr-bearing children. ``directory`` is the
    caller's: whether it is taken before or after the listing bumps
    the directory's atime is the caller's to keep."""
    out = DirRows(directory)
    rows, xattr_entries = out.rows, out.xattr_entries
    prefix = "" if directory.path == "/" else directory.path
    for name, ino in children:
        # identity tests: an enum's ``.value`` is a Python-level
        # property, paid per entry
        ftype = ino.ftype
        if ftype is _FILE:
            code = "f"
        elif ftype is _SYMLINK:
            code = "l"
        else:
            continue  # a sub-directory: its own database describes it
        size = ino.size
        xattrs = ino.xattrs
        rows.append((
            name,
            code,
            ino.ino,
            ino.mode,
            ino.nlink,
            ino.uid,
            ino.gid,
            size,
            BLKSIZE,
            (size + 511) // 512,
            ino.atime,
            ino.mtime,
            ino.ctime,
            ino.symlink_target or "",
            schema.pack_xattr_names(xattrs) if xattrs else "",
        ))
        if xattrs:
            xattr_entries.append(record_from_inode(f"{prefix}/{name}", ino))
    return out


def build_dir_db(
    index: GUFIIndex,
    stanza: DirStanza | DirRows,
    opts: BuildOptions,
    faults: FaultPlan | None = None,
    journal: BuildJournal | None = None,
    handover: dict | None = None,
    contribution: bool = False,
) -> tuple[int, int]:
    """Create one directory's index database. Returns
    (entries inserted, side databases created).

    ``stanza`` is a trace stanza (its records converted with
    :func:`entry_row`) or the :class:`DirRows` a live rescan built
    (:func:`dir_rows`); either way one writer computes the summary
    record(s) from the rows and writes the database.

    Every artifact is staged and published by
    :meth:`~repro.store.layout.DirStore.publish`, over the previous
    database if there is one; what a crash leaves (side shards not
    covered) is stated there.

    ``handover`` is a caller-owned dict. When one is given, the rebuild
    reads the directory's full :class:`~repro.core.index.DirMeta`
    (:meth:`~repro.core.index.GUFIIndex.read_dir_meta`, one statement)
    and, with ``contribution``, its tree-summary contribution
    (:func:`~repro.core.tsummary.read_contribution`, two) on the
    staging connection before closing it, stamps the staged file — the
    rename that publishes it keeps inode, ``mtime_ns`` and size — and,
    once published, adds ``source path -> (DirMeta carrying that stamp,
    db.db path, contribution or None)``. The caller publishes those
    (``index.cache.put_meta`` / ``put_contribution``) after its
    ``invalidate_cache``: any later rewrite of the database changes the
    stamp, and the cached record misses. A crash before the publish
    adds nothing."""
    otr = obs.tracer()
    if otr.enabled:
        with otr.span("build.dir", path=stanza.directory.path):
            return _build_dir_db(
                index, stanza, opts, faults, journal, handover, contribution
            )
    return _build_dir_db(
        index, stanza, opts, faults, journal, handover, contribution
    )


def _build_dir_db(
    index: GUFIIndex,
    stanza: DirStanza | DirRows,
    opts: BuildOptions,
    faults: FaultPlan | None,
    journal: BuildJournal | None,
    handover: dict | None,
    contribution: bool,
) -> tuple[int, int]:
    if isinstance(stanza, DirStanza):
        stanza = DirRows(
            stanza.directory,
            [entry_row(r) for r in stanza.entries],
            [r for r in stanza.entries if r.xattrs],
        )
    directory, rows = stanza.directory, stanza.rows
    faults = faults if faults is not None else opts.faults
    src_path = directory.path
    if faults is not None:
        faults.fire("build_dir_db", src_path)
    # DirStore.open sweeps crash-leftover staging files before this
    # attempt stages its own.
    store = DirStore.open(index.index_dir(src_path))
    depth = 0 if src_path == "/" else src_path.count("/")
    conn = store.stage_primary()
    meta: DirMeta | None = None
    contrib = None
    try:
        conn.execute("BEGIN")
        conn.executemany(_ENTRIES_INSERT, rows)
        conn.executemany(
            _SUMMARY_INSERT,
            summary_rows(directory, rows, depth, opts.per_user_group_summaries),
        )
        conn.execute("COMMIT")
        if handover is not None:
            meta = GUFIIndex.read_dir_meta(conn, "main")
            if contribution:
                contrib = read_contribution(conn, "main")
        side_names = write_xattr_shards(
            store.index_dir, conn, shard_xattrs(directory, stanza.xattr_entries), faults
        )
    finally:
        conn.close()
    if handover is not None:
        stamp = file_stamp(store.partial_path(DB_NAME))
    if faults is not None:
        faults.fire("build_dir_db.commit", src_path)
    store.publish(side_names, faults)
    index.apply_physical_mode(src_path, directory.mode)
    if journal is not None:
        journal.record(src_path, store.stamp(), len(rows), len(side_names))
    if handover is not None and meta is not None and stamp is not None:
        handover[src_path] = (
            dataclasses.replace(meta, stamp=stamp), str(store.db_path), contrib
        )
    return len(rows), len(side_names)


def trace2index(
    trace_path: Path | str,
    index_root: Path | str,
    opts: BuildOptions | None = None,
    source_name: str = "",
) -> BuildResult:
    """Ingest a trace file into a new index, in parallel.

    Stanzas are independent units of work (their directory paths are
    created with ``makedirs``), so the ingest fans every stanza out to
    the thread pool — the paper's parallel ingest tool.
    """
    opts = opts or BuildOptions()
    stanzas = list(read_trace(Path(trace_path)))
    return build_from_stanzas(stanzas, index_root, opts, source_name)


class _BuildState:
    """Shared mutable counters + journal for one build run."""

    def __init__(self, index: GUFIIndex, opts: BuildOptions, source_name: str):
        self.index = index
        self.opts = opts
        self.journal = BuildJournal.open(
            index.root, resume=opts.resume, source=source_name
        )
        self.lock = threading.Lock()
        self.dirs = 0
        self.entries = 0
        self.side = 0
        self.skipped = 0

    def should_skip(self, source_path: str) -> bool:
        if not self.opts.resume:
            return False
        if not self.journal.is_complete(
            source_path, self.index.db_path(source_path)
        ):
            return False
        with self.lock:
            self.skipped += 1
        return True

    def build(self, stanza: DirStanza | DirRows) -> None:
        n, s = build_dir_db(
            self.index, stanza, self.opts,
            faults=self.opts.faults, journal=self.journal,
        )
        with self.lock:
            self.dirs += 1
            self.entries += n
            self.side += s

    def finish(
        self, stats, elapsed: float, errors: list[tuple[str, Exception]]
    ) -> BuildResult:
        # A clean, complete build needs no resume marker; anything
        # partial keeps the journal for the next resume=True run.
        if errors:
            self.journal.close()
        else:
            self.journal.finalize()
        rec = obs.metrics()
        if rec.enabled:
            rec.counter("gufi_build_runs_total")
            rec.counter("gufi_build_dirs_total", self.dirs)
            rec.counter("gufi_build_entries_total", self.entries)
            rec.counter("gufi_build_side_dbs_total", self.side)
            rec.counter("gufi_build_dirs_skipped_total", self.skipped)
            rec.counter("gufi_build_retries_total", stats.items_retried)
            rec.counter("gufi_build_errors_total", len(errors))
            rec.observe("gufi_build_seconds", elapsed)
        return BuildResult(
            index=self.index,
            seconds=elapsed,
            dirs_created=self.dirs,
            entries_inserted=self.entries,
            side_dbs_created=self.side,
            dirs_skipped=self.skipped,
            dirs_retried=stats.items_retried,
            errors=errors,
        )


def build_from_stanzas(
    stanzas: list[DirStanza],
    index_root: Path | str,
    opts: BuildOptions | None = None,
    source_name: str = "",
) -> BuildResult:
    """Build an index from in-memory stanzas (the in-situ fast path).

    Per-directory failures are retried under ``opts.retry`` and then
    reported in ``BuildResult.errors`` — partial progress survives and
    the journal stays on disk so ``resume=True`` can finish the job.
    A :class:`~repro.scan.faults.BuildCrash` (simulated process death)
    propagates after the journal is flushed and closed."""
    opts = opts or BuildOptions()
    index = GUFIIndex.create(index_root, source_name)
    state = _BuildState(index, opts, source_name)

    def expand(stanza: DirStanza) -> list:
        if not state.should_skip(stanza.directory.path):
            state.build(stanza)
        return []

    t0 = time.monotonic()
    walker = ParallelTreeWalker(opts.nthreads)
    with obs.tracer().span(
        "build.run", mode="stanzas", dirs=len(stanzas)
    ):
        try:
            stats = walker.walk(
                stanzas, expand, retry=opts.retry, faults=opts.faults
            )
        except FatalWalkError:
            state.journal.close()
            raise
    elapsed = time.monotonic() - t0
    errors = [(item.directory.path, exc) for item, exc in stats.errors]
    return state.finish(stats, elapsed, errors)


def dir2index(
    tree: VFSTree,
    index_root: Path | str,
    top: str = "/",
    opts: BuildOptions | None = None,
    source_name: str = "",
) -> BuildResult:
    """Scan a source tree and build its index in one pass
    (``gufi_dir2index``): each directory's database is written by the
    same thread that scanned it, skipping the trace stage entirely.

    With ``opts.resume`` the scan still descends every directory (the
    children of a finished directory may not be finished) but skips
    rebuilding databases the journal proves complete."""
    opts = opts or BuildOptions()
    index = GUFIIndex.create(index_root, source_name)
    state = _BuildState(index, opts, source_name)

    def expand(dirpath: str) -> list[str]:
        dir_inode = tree.get_inode(dirpath)
        children = tree.readdir_plus(dirpath)
        subdirs = [
            posixpath.join(dirpath, name)
            for name, inode in children
            if inode.ftype is FileType.DIRECTORY
        ]
        if not state.should_skip(dirpath):
            # the record is taken after the listing bumped the atime
            directory = record_from_inode(dirpath, dir_inode)
            state.build(dir_rows(directory, children))
        return subdirs

    t0 = time.monotonic()
    walker = ParallelTreeWalker(opts.nthreads)
    with obs.tracer().span("build.run", mode="dir2index", top=top):
        try:
            stats = walker.walk(
                [posixpath.normpath(top)], expand,
                retry=opts.retry, faults=opts.faults,
            )
        except FatalWalkError:
            state.journal.close()
            raise
    elapsed = time.monotonic() - t0
    errors = [(str(item), exc) for item, exc in stats.errors]
    return state.finish(stats, elapsed, errors)
