"""Changefeed-driven incremental indexing.

The paper's production GUFI keeps indexes fresh by rebuilding them on
a pull interval (§III-A4: every 4 hours), so freshness costs O(tree)
per cycle no matter how little changed. Robinhood and Icicle instead
consume file-system changelogs and pay O(changes). This module is
that consumer: :func:`changefeed2index` drains a
:class:`~repro.fs.changelog.ChangeJournal` attached to the live
source tree and surgically updates an existing index. Steps 2–5 are
:func:`apply_delta`, which has three callers: this one,
:func:`~repro.core.update.update_directory` (dirty directories) and
:mod:`~repro.core.compose`'s graft and prune (one structural op) —

1. **Reduce** the drained events to (a) an *ordered* list of
   structural index operations (a directory rename is one physical
   index-subtree move, an ``rmdir`` one subtree delete) and (b) a set
   of *dirty directories* in current-namespace coordinates (each event
   dirties the directory whose database describes it: the parent for
   file events, the directory itself for directory-metadata events).
   Later renames remap, and removals drop, dirty paths recorded by
   earlier events, so the set is always expressed where the data lives
   *now*.
2. **Unroll** any rollups on the root→target path of every touched
   directory (a rolled-up ancestor holds merged copies of the data
   being changed), reusing :func:`repro.core.update.unroll_path_to`;
   each ancestor is checked once per apply, not once per target.
3. **Apply structural ops in event order.** Each op is idempotent —
   a move is skipped when its source index directory is missing or
   its destination already exists, a delete of a missing directory is
   a no-op — so replaying a batch after a crash converges instead of
   corrupting. Cross-depth moves leave descendant ``summary.depth`` /
   ``tsummary.maxdepth`` columns stale (they are absolute); a
   self-healing pass recomputes each database's depth delta from its
   own path and shifts the columns, and because the delta is derived
   (not remembered) it is zero on replay.
4. **Rebuild dirty directories** by rescanning the *live* tree and
   republishing through :func:`repro.core.build.build_dir_db`'s
   atomic ``.partial``+rename path — one directory, not the subtree;
   a dirty directory that is no longer live is removed like a
   structural delete. Rescanning the live tree is what makes replay
   exactly-once in effect: a directory rebuilt twice converges to the
   same rows. The rescan turns inodes into ``entries`` rows in one pass
   (:func:`~repro.core.update.scan_single_dir`). Every touched
   directory's :class:`~repro.core.index.DirMetaCache` entry (and the
   plan stats riding on it) is invalidated per event, not per stamp.
5. **Refresh tsummary roots** whose subtrees changed (only where
   tsummary rows already exist — tsummary is admin-triggered). The
   roots are recorded in the checkpoint *before* the rebuild phase
   can destroy the rows used to detect them. When there is a root to
   refresh, each rebuild of step 4 reads its directory's contribution
   on the staging connection and hands it to the handle, memoised
   under the published file's stamp; so on a long-lived handle the
   refresh re-reads only what the structural phase moved and the
   databases earlier refreshes wrote their rows into
   (:mod:`repro.core.tsummary` memoises every other directory's
   contribution on the handle) and stats the rest.
6. **Commit the cursor** through
   :class:`~repro.core.checkpoint.ChangefeedCheckpoint` (atomic
   rename, same discipline as the databases; an apply with no cursor
   writes it only to record, then settle, a refresh it owes) and only
   then :meth:`~repro.fs.changelog.ChangeJournal.release` the events.
   A crash anywhere earlier re-drains the same batch from the last
   committed cursor: nothing is dropped, and idempotent application
   means nothing is double-applied.

When the journal evicted events the consumer has not seen,
:class:`~repro.fs.changelog.ChangelogOverflow` propagates;
``IndexRefresher.refresh(mode="incremental")`` catches it and falls
back to a full rebuild.
"""

from __future__ import annotations

import os
import shutil
import sqlite3
import time
from dataclasses import dataclass, field, replace

from repro import obs
from repro.fs.changelog import (
    METADATA_OPS,
    ChangeEvent,
    ChangeJournal,
    ChangelogOverflow,
)
from repro.fs.inode import FileType
from repro.fs.tree import VFSTree
from repro.store import connect, schema

from .build import BuildOptions, build_dir_db
from .checkpoint import ChangefeedCheckpoint
from .index import GUFIIndex
from .tsummary import build_tsummary
from .update import scan_single_dir, unroll_path_to


@dataclass
class ApplyResult:
    """Outcome of one apply. Outside a :func:`changefeed2index` batch
    ``events_*`` are zero and ``cursor`` is the one committed before."""

    seconds: float
    cursor: int
    events_raw: int
    events_applied: int
    events_coalesced: int
    dirs_rebuilt: int
    dirs_moved: int
    dirs_removed: int
    entries_indexed: int
    tsummary_refreshed: int
    unrolled_dirs: list[str] = field(default_factory=list)
    #: databases the tsummary refreshes opened (the rest were folded
    #: from contributions memoised on the index handle)
    tsummary_dbs_opened: int = 0


def _parent(path: str) -> str:
    return path.rsplit("/", 1)[0] or "/"


def _remap(path: str, src: str, dst: str) -> str:
    """Rewrite ``path`` for a directory rename ``src`` → ``dst``."""
    if path == src:
        return dst
    if path.startswith(src + "/"):
        return dst + path[len(src):]
    return path


def _ancestors(path: str) -> list[str]:
    """Root-to-``path`` inclusive, e.g. ``/a/b`` → /, /a, /a/b."""
    parts = [p for p in path.split("/") if p]
    return ["/"] + ["/" + "/".join(parts[: i + 1]) for i in range(len(parts))]


def reduce_events(
    events: tuple[ChangeEvent, ...] | list[ChangeEvent],
) -> tuple[list[tuple[str, str, str | None]], set[str]]:
    """Fold an ordered event batch into (structural ops, dirty dirs).

    Structural ops — ``("move", src, dst)`` / ``("remove", path,
    None)`` — keep event order and event-time coordinates: applying
    them in sequence walks the index through the same structural
    history the namespace took. Dirty directories are maintained in
    *current* coordinates (renames remap them, removals drop them), so
    after the fold each names a directory of the final namespace that
    must be rescanned.
    """
    structural: list[tuple[str, str, str | None]] = []
    dirty: set[str] = set()
    for e in events:
        if e.op == "create":
            dirty.add(_parent(e.path))
            if e.is_dir:
                dirty.add(e.path)
        elif e.op == "unlink":
            dirty.add(_parent(e.path))
        elif e.op == "rmdir":
            dirty = {
                d
                for d in dirty
                if d != e.path and not d.startswith(e.path + "/")
            }
            dirty.add(_parent(e.path))
            structural.append(("remove", e.path, None))
        elif e.op == "rename":
            assert e.dst_path is not None
            if e.is_dir:
                dirty = {_remap(d, e.path, e.dst_path) for d in dirty}
                structural.append(("move", e.path, e.dst_path))
                # the moved directory's own summary row carries its
                # (now changed) name and depth
                dirty.add(e.dst_path)
            dirty.add(_parent(e.path))
            dirty.add(_parent(e.dst_path))
        elif e.op in METADATA_OPS:
            dirty.add(e.path if e.is_dir else _parent(e.path))
        else:  # pragma: no cover - ChangeJournal.emit validates ops
            raise ValueError(f"unknown changelog op {e.op!r}")
    return structural, dirty


def _is_live_dir(tree: VFSTree, path: str) -> bool:
    try:
        return tree.get_inode(path).ftype is FileType.DIRECTORY
    except Exception:
        return False


def _has_tsummary(index: GUFIIndex, source_path: str) -> bool:
    """Does the directory's database hold tree-summary rows? (Read
    with the rest of its metadata; ``None`` — no database, or an
    unreadable one — has nothing to refresh.)"""
    meta = index.cached_dir_meta(source_path)
    return meta is not None and bool(meta.tsummary)


#: a database's stored depth and whether it has tree-summary rows
_DEPTH_SQL = (
    f"SELECT depth, {schema.has_tsummary_sql('gufi')} FROM gufi.summary "
    f"WHERE isroot = 1 AND rectype = {schema.RECTYPE_OVERALL} LIMIT 1"
)


def _fix_depths(index: GUFIIndex, source_path: str) -> None:
    """Normalise absolute-depth columns under a moved index subtree.

    ``summary.depth`` and ``tsummary.maxdepth`` store depths from the
    index root, so a cross-depth move leaves every descendant database
    (including rolled-up copies) off by the same delta. The delta is
    *derived* — the directory's own ``isroot=1`` row versus its
    path-computed depth — and every row in the database shifted by it,
    so the pass is idempotent: replaying it after a crash finds delta
    zero and does nothing.

    Every database is read through one connection, attached read-only
    for one statement; only one whose delta is non-zero is opened
    read-write, so a same-depth rename writes nothing.
    """
    reader = sqlite3.connect(":memory:", isolation_level=None)
    try:
        for sp, _names in index.iter_tree(source_path):
            try:
                connect.attach_ro(reader, index.db_path(sp), "gufi")
            except sqlite3.Error:
                continue
            try:
                row = reader.execute(_DEPTH_SQL).fetchone()
            finally:
                connect.detach(reader, "gufi")
            if row is None or row[0] is None:
                continue
            delta = (0 if sp == "/" else sp.count("/")) - int(row[0])
            if not delta:
                continue
            conn = index.store(sp).open_rw()
            try:
                conn.execute("BEGIN")
                conn.execute("UPDATE summary SET depth = depth + ?", (delta,))
                if row[1]:
                    conn.execute(
                        "UPDATE tsummary SET maxdepth = maxdepth + ?", (delta,)
                    )
                conn.execute("COMMIT")
            finally:
                conn.close()
            index.invalidate_cache(sp)
    finally:
        reader.close()


def apply_delta(
    index: GUFIIndex,
    tree: VFSTree | None,
    structural: list[tuple[str, str, str | None]],
    dirty: set[str],
    opts: BuildOptions | None = None,
    faults=None,
    commit: int | None = None,
) -> ApplyResult:
    """Steps 2–5 for one delta: what :func:`reduce_events` returns,
    or what an in-place writer spells out. ``tree`` is only read for
    dirty directories. ``commit`` is the cursor a changefeed commits;
    with none, the checkpoint is written only to record a tree-summary
    refresh owed and then to settle it. ``faults`` reaches
    :func:`build_dir_db` and :func:`unroll_path_to`, so crash tests
    can kill the apply mid-rebuild or mid-unroll."""
    # with no tree every dirty directory would look vanished
    assert tree is not None or not dirty
    opts = opts or BuildOptions()
    t0 = time.monotonic()
    ckpt = ChangefeedCheckpoint(index.root)
    cursor, pending_ts = ckpt.load_state()

    # Every path the delta touches, in both event-time and final
    # coordinates, contributes its ancestor chain to the tsummary
    # candidate set (a tsummary row summarises a whole subtree, so any
    # change below its root stales it).
    touched: set[str] = set(dirty)
    for _kind, path, dst in structural:
        touched.add(path)
        if dst is not None:
            touched.add(dst)
    candidates: set[str] = set()
    for p in touched:
        candidates.update(_ancestors(p))

    unrolled: list[str] = []
    #: directories this apply already found (or made) not rolled up
    checked: set[str] = set()
    dirs_moved = dirs_removed = 0

    # -- structural phase (event order, idempotent per op) -------------
    for kind, path, dst in structural:
        if kind == "remove":
            unrolled += unroll_path_to(index, _parent(path), checked, faults)
            idx_dir = index.index_dir(path)
            if idx_dir.exists():
                shutil.rmtree(idx_dir, ignore_errors=True)
                dirs_removed += 1
            index.cache.invalidate_subtree(path)
        else:
            assert dst is not None
            unrolled += unroll_path_to(index, _parent(path), checked, faults)
            unrolled += unroll_path_to(index, _parent(dst), checked, faults)
            src_dir = index.index_dir(path)
            dst_dir = index.index_dir(dst)
            if src_dir.exists() and not dst_dir.exists():
                dst_dir.parent.mkdir(parents=True, exist_ok=True)
                os.replace(src_dir, dst_dir)
                dirs_moved += 1
            index.cache.invalidate_subtree(path)
            index.cache.invalidate_subtree(dst)
            _fix_depths(index, dst)
        # the paths name different directories now (a rolled-up one may
        # have moved in); structural ops are few, so start over
        checked.clear()

    # -- record tsummary roots before rebuilds can destroy the rows
    #    that identify them (a rebuilt db.db starts with no tsummary
    #    table), so a crashed apply still owes the refresh
    ts_roots = set(pending_ts)
    ts_roots.update(c for c in candidates if _has_tsummary(index, c))
    if ts_roots:
        ckpt.commit(cursor, pending_tsummary=sorted(ts_roots))

    # -- dirty-directory rebuild phase (rescan the live tree) ----------
    dirs_rebuilt = entries_indexed = 0
    # a refresh below folds every rebuilt directory's contribution:
    # each rebuild hands it over instead of the refresh re-reading it
    handover: dict | None = {} if ts_roots else None
    for d in sorted(dirty):
        if tree is not None and _is_live_dir(tree, d):
            unrolled += unroll_path_to(index, d, checked, faults)
            scanned = scan_single_dir(tree, d)
            n, _ = build_dir_db(
                index, scanned, opts, faults=faults, handover=handover
            )
            dirs_rebuilt += 1
            entries_indexed += n
            # before returning: a warm session's very next query must
            # not see the old mode/uid/gid (the §III-A3 security fix)
            index.invalidate_cache(d)
            if handover:
                index.cache.put_contribution(d, *handover.pop(d))
        else:
            # the directory vanished between event and apply (or was
            # created and removed within the batch): removed like a
            # structural ``remove``, rollups above it undone first
            unrolled += unroll_path_to(index, _parent(d), checked, faults)
            idx_dir = index.index_dir(d)
            if idx_dir.exists():
                shutil.rmtree(idx_dir, ignore_errors=True)
                dirs_removed += 1
            index.cache.invalidate_subtree(d)

    # -- tsummary refresh (roots whose databases still exist) ----------
    tsummary_refreshed = tsummary_dbs_opened = 0
    for root in sorted(ts_roots):
        if index.db_path(root).exists():
            tsummary_dbs_opened += build_tsummary(index, root).dbs_opened
            tsummary_refreshed += 1

    # -- settle: the changefeed's cursor, or the refresh owed ----------
    cursor = cursor if commit is None else commit
    if commit is not None or ts_roots:
        ckpt.commit(cursor)

    return ApplyResult(
        seconds=time.monotonic() - t0,
        cursor=cursor,
        events_raw=0,
        events_applied=0,
        events_coalesced=0,
        dirs_rebuilt=dirs_rebuilt,
        dirs_moved=dirs_moved,
        dirs_removed=dirs_removed,
        entries_indexed=entries_indexed,
        tsummary_refreshed=tsummary_refreshed,
        unrolled_dirs=sorted(set(unrolled)),
        tsummary_dbs_opened=tsummary_dbs_opened,
    )


def changefeed2index(
    index: GUFIIndex,
    tree: VFSTree,
    journal: ChangeJournal,
    opts: BuildOptions | None = None,
    faults=None,
    limit: int | None = None,
) -> ApplyResult:
    """Drain the journal and :func:`apply_delta` the batch to an
    existing index; ``limit`` bounds how many raw events one batch
    drains. Raises :class:`ChangelogOverflow` when the consumer's
    cursor predates the journal's retained window — the caller must
    fall back to a full rebuild.
    """
    t0 = time.monotonic()
    metrics = obs.metrics()
    try:
        batch = journal.drain(ChangefeedCheckpoint(index.root).load(), limit)
    except ChangelogOverflow:
        metrics.counter("gufi_changefeed_overflows_total")
        raise
    metrics.counter("gufi_changefeed_events_total", batch.raw_count)
    metrics.counter("gufi_changefeed_coalesced_total", batch.coalesced)
    if not batch.events:
        # nothing drained: only a refresh a crashed apply owes is left
        return apply_delta(index, tree, [], set(), opts, faults)

    structural, dirty = reduce_events(batch.events)
    result = apply_delta(
        index, tree, structural, dirty, opts, faults, commit=batch.cursor
    )
    # the cursor is durable: only now may the journal trim
    journal.release(batch.cursor)

    elapsed = time.monotonic() - t0
    metrics.counter("gufi_changefeed_applied_total", len(batch.events))
    if metrics.enabled:
        metrics.observe("gufi_changefeed_apply_seconds", elapsed)
        metrics.counter("gufi_changefeed_entries_indexed_total", result.entries_indexed)
        # events emitted after the drain (or beyond ``limit``) that the
        # committed cursor has not covered yet
        metrics.gauge("gufi_changefeed_lag_events", journal.head - batch.cursor)
    return replace(
        result,
        seconds=elapsed,
        events_raw=batch.raw_count,
        events_applied=len(batch.events),
        events_coalesced=batch.coalesced,
    )
