"""Index construction tools (paper §III-A3, §III-C1).

Two paths mirror GUFI's tool pair:

* :func:`dir2index` — in-situ: the parallel breadth-first scan of the
  source tree creates each directory's database as the directory is
  encountered (``gufi_dir2index``);
* :func:`trace2index` — post-processing: a previously written trace
  file (possibly from a faster custom scanner on another machine) is
  ingested in parallel (``gufi_trace2index``).

Both funnel into :func:`build_dir_db`, which writes one directory's
``entries`` rows, ``summary`` record(s), and xattr shards.

Crash safety and resumability
-----------------------------

Mid-scan failures are routine on file systems with billions of
entries, so the build path is structured to survive them:

* **Atomic publish** — :func:`build_dir_db` writes every artifact
  (``db.db`` and all xattr side databases) under a ``.partial``
  suffix, then renames side databases first and ``db.db`` last.
  ``db.db``'s existence is the commit point the query engine keys on,
  so a crash at any instant leaves either a fully published directory
  or what was there before (the previous database on a rebuild,
  nothing on a first build) — never a half-indexed directory that
  queries can observe, and never a hole where a directory was.
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

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.fs.tree import VFSTree
from repro.scan.faults import FaultPlan
from repro.scan.scanners import record_from_inode
from repro.scan.trace import DirStanza, TraceRecord, read_trace
from repro.scan.walker import FatalWalkError, ParallelTreeWalker, RetryPolicy
from repro.store import schema
from repro.store.layout import PARTIAL_SUFFIX, DirStore

from .checkpoint import BuildJournal
from .index import GUFIIndex
from .xattrs import shard_xattrs, write_xattr_shards


@dataclass
class BuildOptions:
    """Knobs for index construction."""

    nthreads: int = 8
    #: index xattr values (with per-user/per-group sharding)
    with_xattrs: bool = True
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


def summary_rows(
    stanza: DirStanza, depth: int, per_user_group: bool
) -> list[tuple]:
    """Build the summary record(s) for one directory.

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
    d = stanza.directory

    def aggregate(rows: list[TraceRecord], rectype: int, uid: int, gid: int) -> tuple:
        files = [r for r in rows if r.ftype == "f"]
        links = [r for r in rows if r.ftype == "l"]
        sizes = [r.size for r in files]
        mtimes = [r.mtime for r in rows]
        atimes = [r.atime for r in rows]
        uids = [r.uid for r in rows]
        gids = [r.gid for r in rows]
        totxattr = sum(1 for r in rows if r.xattrs)
        if rectype == schema.RECTYPE_USER:
            name = f"u{uid}"
        elif rectype == schema.RECTYPE_GROUP:
            name = f"g{gid}"
        else:
            name = d.name
        return (
            name,
            rectype,
            1,  # isroot
            d.ino,
            d.mode,
            d.nlink,
            uid,
            gid,
            d.size,
            d.blksize,
            d.blocks,
            d.atime,
            d.mtime,
            d.ctime,
            len(files),
            len(links),
            max(0, d.nlink - 2),  # POSIX: nlink = 2 + subdir count
            min(uids) if uids else None,
            max(uids) if uids else None,
            min(gids) if gids else None,
            max(gids) if gids else None,
            min(sizes) if sizes else None,
            max(sizes) if sizes else None,
            sum(r.size for r in files) + sum(r.size for r in links),
            min(mtimes) if mtimes else None,
            max(mtimes) if mtimes else None,
            min(atimes) if atimes else None,
            max(atimes) if atimes else None,
            totxattr,
            0,  # rolledup
            0,  # rollup_entries
            depth,
        )

    rows = [aggregate(stanza.entries, schema.RECTYPE_OVERALL, d.uid, d.gid)]
    if per_user_group:
        by_uid: dict[int, list[TraceRecord]] = {}
        by_gid: dict[int, list[TraceRecord]] = {}
        for r in stanza.entries:
            by_uid.setdefault(r.uid, []).append(r)
            by_gid.setdefault(r.gid, []).append(r)
        for uid, rs in sorted(by_uid.items()):
            rows.append(aggregate(rs, schema.RECTYPE_USER, uid, d.gid))
        for gid, rs in sorted(by_gid.items()):
            rows.append(aggregate(rs, schema.RECTYPE_GROUP, d.uid, gid))
    return rows


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


def build_dir_db(
    index: GUFIIndex,
    stanza: DirStanza,
    opts: BuildOptions,
    faults: FaultPlan | None = None,
    journal: BuildJournal | None = None,
) -> tuple[int, int]:
    """Create one directory's index database. Returns
    (entries inserted, side databases created).

    All writes are staged under :data:`PARTIAL_SUFFIX` and published
    by rename — side databases first, ``db.db`` last, over the
    directory's previous database if it has one — so a crash at any
    point leaves either the new directory or what was there before: the
    old database on a rebuild, none on a first build (queries treat a
    missing ``db.db`` as denied-by-absence, never as partial data)."""
    otr = obs.tracer()
    if otr.enabled:
        with otr.span("build.dir", path=stanza.directory.path):
            return _build_dir_db(index, stanza, opts, faults, journal)
    return _build_dir_db(index, stanza, opts, faults, journal)


def _build_dir_db(
    index: GUFIIndex,
    stanza: DirStanza,
    opts: BuildOptions,
    faults: FaultPlan | None,
    journal: BuildJournal | None,
) -> tuple[int, int]:
    faults = faults if faults is not None else opts.faults
    src_path = stanza.directory.path
    if faults is not None:
        faults.fire("build_dir_db", src_path)
    # DirStore.open sweeps crash-leftover staging files before this
    # attempt stages its own.
    store = DirStore.open(index.index_dir(src_path))
    depth = 0 if src_path == "/" else src_path.count("/")
    conn = store.stage_primary()
    side_names: list[str] = []
    try:
        conn.execute("BEGIN")
        conn.executemany(
            _ENTRIES_INSERT, [entry_row(r) for r in stanza.entries]
        )
        conn.executemany(
            _SUMMARY_INSERT,
            summary_rows(stanza, depth, opts.per_user_group_summaries),
        )
        conn.execute("COMMIT")
        if opts.with_xattrs:
            shards = shard_xattrs(stanza.directory, stanza.entries)
            side_names = write_xattr_shards(
                store.index_dir, conn, shards, suffix=PARTIAL_SUFFIX, faults=faults
            )
    finally:
        conn.close()
    if faults is not None:
        faults.fire("build_dir_db.commit", src_path)
    # Publish: xattr shards before db.db, which is the commit point
    # (see DirStore.publish).
    store.publish(side_names)
    index.apply_physical_mode(src_path, stanza.directory.mode)
    if journal is not None:
        journal.record(
            src_path,
            store.stamp(),
            len(stanza.entries),
            len(side_names),
        )
    return len(stanza.entries), len(side_names)


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

    def build(self, stanza: DirStanza) -> None:
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
    import posixpath

    def expand(dirpath: str) -> list[str]:
        dir_inode = tree.get_inode(dirpath)
        entries = tree.readdir(dirpath)
        subdirs = [
            posixpath.join(dirpath, e.name)
            for e in entries
            if e.ftype.value == "d"
        ]
        if state.should_skip(dirpath):
            return subdirs
        stanza = DirStanza(directory=record_from_inode(dirpath, dir_inode))
        for e in entries:
            if e.ftype.value != "d":
                child = posixpath.join(dirpath, e.name)
                stanza.entries.append(
                    record_from_inode(child, tree.get_inode(child))
                )
        state.build(stanza)
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
