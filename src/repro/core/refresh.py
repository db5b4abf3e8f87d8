"""Periodic index refresh with atomic swap (paper §III-A4).

Production GUFI rebuilds each file system's index on a pull interval
(the paper's site: every 4 hours) and publishes the new build by
renaming a symbolic link: queries in flight keep reading the old
version, new queries see the new one, and for a while *two complete
namespace snapshots* coexist — which the paper notes "enables new
query types that can passively measure data movement within and
between file systems".

:class:`IndexRefresher` manages that lifecycle for one source tree:

* versioned build directories (``v0000``, ``v0001``, ...) under one
  publication root;
* a ``current`` symlink atomically repointed after each build;
* retention of the previous N versions for cross-version diffing;
* :meth:`diff_latest` — the passive data-movement query between the
  two most recent builds, computed from the indexes themselves.
"""

from __future__ import annotations

import os
import shutil
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro.fs.changelog import ChangeEvent, ChangeJournal, ChangelogOverflow
from repro.fs.tree import VFSTree
from repro.fs.snapshot import snapshot

from .build import BuildOptions, dir2index
from .changefeed import changefeed2index
from .checkpoint import ChangefeedCheckpoint
from .index import GUFIIndex

CURRENT_LINK = "current"


@dataclass
class RefreshRecord:
    """One completed refresh."""

    version: int
    path: Path
    built_at: float
    seconds: float
    dirs: int
    entries: int
    #: "full" (snapshot + rebuild + swap) or "incremental" (changefeed
    #: apply to the published version in place)
    mode: str = "full"
    #: journal cursor the published index is consistent with (None
    #: when no journal is attached)
    cursor: int | None = None
    #: events applied by an incremental refresh (0 for full)
    events_applied: int = 0


@dataclass
class IndexDiff:
    """Entry-level delta between two index versions (paths keyed by
    (parent inode is not stable across scans, so paths are used))."""

    created: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    resized: list[str] = field(default_factory=list)
    #: (old path, new path) pairs — renames recognised as one move
    #: each, not a create + a remove, when journal events are available
    moved: list[tuple[str, str]] = field(default_factory=list)
    bytes_delta: int = 0

    @property
    def total_mutations(self) -> int:
        return (
            len(self.created)
            + len(self.removed)
            + len(self.resized)
            + len(self.moved)
        )


class IndexRefresher:
    """Versioned publisher of a source tree's index."""

    def __init__(
        self,
        source: VFSTree,
        publish_root: Path | str,
        opts: BuildOptions | None = None,
        keep_versions: int = 2,
        journal: ChangeJournal | None = None,
    ):
        if keep_versions < 1:
            raise ValueError("keep_versions must be >= 1")
        self.source = source
        self.root = Path(publish_root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.opts = opts or BuildOptions()
        self.keep_versions = keep_versions
        #: attached change journal enables refresh(mode="incremental")
        #: and rename-aware diffing; attaching wires it into the source
        #: tree so every mutation from here on is captured
        self.journal = journal
        if journal is not None:
            source.set_changelog(journal)
        self.history: list[RefreshRecord] = []
        self._next_version = self._discover_next_version()
        # one shared handle per published version, so every query
        # session against the current index shares one DirMeta cache
        self._current_handle: GUFIIndex | None = None
        self._current_target: Path | None = None

    def _discover_next_version(self) -> int:
        versions = [
            int(p.name[1:])
            for p in self.root.iterdir()
            if p.is_dir() and p.name.startswith("v") and p.name[1:].isdigit()
        ]
        return max(versions, default=-1) + 1

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    @property
    def current_path(self) -> Path:
        return self.root / CURRENT_LINK

    def current(self) -> GUFIIndex:
        """The published index (what client /search mounts resolve to).

        Returns one shared handle per published version: every caller
        then shares the same DirMeta cache, and a refresh atomically
        retires the handle (new calls get the new version's handle
        while in-flight queries keep reading the old one)."""
        target = self.current_path
        if not target.exists():
            raise FileNotFoundError("no index published yet")
        resolved = target.resolve()
        if self._current_handle is None or self._current_target != resolved:
            self._current_handle = GUFIIndex.open(resolved)
            self._current_target = resolved
        return self._current_handle

    def versions(self) -> list[Path]:
        """On-disk versions, oldest first."""
        return sorted(
            (
                p
                for p in self.root.iterdir()
                if p.is_dir() and p.name.startswith("v")
            ),
            key=lambda p: int(p.name[1:]),
        )

    def refresh(self, mode: str = "full") -> RefreshRecord:
        """One refresh cycle.

        ``mode="full"`` (the paper's pull model): snapshot the source,
        build a new version, swap the ``current`` symlink atomically,
        retire old versions. The snapshot gives the scan a consistent
        image (the WAFL/ZFS path of §III-A3); the swap is a single
        ``rename``, so a reader resolving ``current`` sees either the
        old or the new index, never a half-built one.

        ``mode="incremental"``: drain the attached change journal and
        apply the delta to the *published* version in place via
        :func:`~repro.core.changefeed.changefeed2index` — O(changes),
        not O(tree). Falls back to a full rebuild when no version has
        been published yet or the journal overflowed its bound (the
        delta is unrecoverable).
        """
        if mode == "incremental":
            return self._refresh_incremental()
        if mode != "full":
            raise ValueError(f"unknown refresh mode {mode!r}")
        version = self._next_version
        self._next_version += 1
        dest = self.root / f"v{version:04d}"
        t0 = time.monotonic()
        # Events emitted before this point are covered by the rebuild;
        # capture the head *before* snapshotting so anything racing in
        # after it stays in the journal for the next incremental pass.
        cursor = self.journal.head if self.journal is not None else None
        frozen = snapshot(self.source)
        result = dir2index(
            frozen, dest, opts=self.opts,
            source_name=f"refresh-v{version}",
        )
        if cursor is not None:
            ChangefeedCheckpoint(dest).commit(cursor)
        elapsed = time.monotonic() - t0
        # Atomic publish: build the new link under a temp name, then
        # rename over the old one (rename(2) replaces atomically).
        tmp_link = self.root / f".{CURRENT_LINK}.tmp"
        if tmp_link.is_symlink() or tmp_link.exists():
            tmp_link.unlink()
        os.symlink(dest.name, tmp_link)
        os.replace(tmp_link, self.current_path)
        # Invalidation hook: drop the retired handle (so the next
        # current() call opens the new version) and clear its cache —
        # a session still holding the old handle must revalidate
        # everything rather than serve pre-swap metadata.
        if self._current_handle is not None:
            self._current_handle.cache.clear()
        self._current_handle = None
        self._current_target = None
        record = RefreshRecord(
            version=version,
            path=dest,
            built_at=time.time(),
            seconds=elapsed,
            dirs=result.dirs_created,
            entries=result.entries_inserted,
            mode="full",
            cursor=cursor,
        )
        self.history.append(record)
        self._retire_old_versions()
        # Trim the journal only up to the *oldest* retained version's
        # cursor: events between retained versions must stay available
        # so diff_latest can recognise renames as moves.
        self._release_covered()
        return record

    def _refresh_incremental(self) -> RefreshRecord:
        if self.journal is None:
            raise ValueError(
                "incremental refresh requires a journal "
                "(IndexRefresher(..., journal=ChangeJournal()))"
            )
        try:
            index = self.current()
        except FileNotFoundError:
            return self.refresh(mode="full")
        try:
            result = changefeed2index(
                index, self.source, self.journal, opts=self.opts
            )
        except ChangelogOverflow:
            # the journal evicted events we never saw: the delta is
            # gone, only a full rescan restores consistency
            return self.refresh(mode="full")
        assert self._current_target is not None
        record = RefreshRecord(
            version=int(self._current_target.name[1:]),
            path=self._current_target,
            built_at=time.time(),
            seconds=result.seconds,
            dirs=result.dirs_rebuilt,
            entries=result.entries_indexed,
            mode="incremental",
            cursor=result.cursor,
            events_applied=result.events_applied,
        )
        self.history.append(record)
        return record

    def _release_covered(self) -> None:
        """Acknowledge journal events every retained version has
        already incorporated (versions predating the journal read as
        cursor 0, which keeps everything)."""
        if self.journal is None:
            return
        cursors = [
            ChangefeedCheckpoint(p).load() for p in self.versions()
        ]
        if cursors:
            self.journal.release(min(cursors))

    def _retire_old_versions(self) -> None:
        versions = self.versions()
        current_target = (
            self.current_path.resolve().name
            if self.current_path.exists()
            else None
        )
        excess = len(versions) - self.keep_versions
        for path in versions:
            if excess <= 0:
                break
            if path.name == current_target:
                continue  # never delete what 'current' points at
            shutil.rmtree(path)
            excess -= 1

    # ------------------------------------------------------------------
    # Cross-version analysis (§III-A4's passive data-movement query)
    # ------------------------------------------------------------------
    def diff_latest(self) -> IndexDiff:
        """Compare the two most recent versions entry-by-entry using
        only the indexes (no source access): which files appeared,
        vanished, or changed size between builds. When a journal is
        attached and still retains the events between the two builds'
        committed cursors, renames are recognised and reported as
        moves instead of create+remove pairs."""
        versions = self.versions()
        if len(versions) < 2:
            raise ValueError("need two versions to diff")
        old = GUFIIndex.open(versions[-2])
        new = GUFIIndex.open(versions[-1])
        events: list[ChangeEvent] | None = None
        if self.journal is not None:
            c_old = ChangefeedCheckpoint(versions[-2]).load()
            c_new = ChangefeedCheckpoint(versions[-1]).load()
            events = self.journal.events_between(c_old, c_new)
        return diff_indexes(old, new, events=events)


def _index_entries(index: GUFIIndex) -> dict[str, int]:
    """path → size for every entry, read straight from the databases
    (admin-side: no permission gating needed for the comparison)."""
    out: dict[str, int] = {}
    for d in index.iter_index_dirs():
        sp = index.source_path(d)
        prefix = "" if sp == "/" else sp
        conn = index.store(sp).open_ro()
        try:
            for name, size in conn.execute(
                "SELECT name, size FROM entries"
            ):
                out[f"{prefix}/{name}"] = size
        finally:
            conn.close()
    return out


def _forward_map(
    old_paths: Iterable[str], events: list[ChangeEvent]
) -> dict[str, str]:
    """old path → final path for entries renamed between two builds.

    Composes every rename event in sequence order: a file rename moves
    its own path, a directory rename moves everything beneath it, and
    chained renames (``/a → /b`` then ``/b/x → /c``) compose to the
    final location. Only paths that actually ended up elsewhere are
    mapped."""
    renames = [e for e in events if e.op == "rename" and e.dst_path]
    if not renames:
        return {}
    forward: dict[str, str] = {}
    for path in old_paths:
        p = path
        for e in renames:
            assert e.dst_path is not None
            if p == e.path:
                p = e.dst_path
            elif e.is_dir and p.startswith(e.path + "/"):
                p = e.dst_path + p[len(e.path):]
        if p != path:
            forward[path] = p
    return forward


def diff_indexes(
    old: GUFIIndex,
    new: GUFIIndex,
    events: list[ChangeEvent] | None = None,
) -> IndexDiff:
    """Entry-level delta between two indexes of the same namespace.

    Path-keyed diffing alone cannot tell a rename from an unrelated
    create+remove pair; when the journal ``events`` covering the
    interval are supplied, renamed entries are reported once in
    ``moved`` instead."""
    old_map = _index_entries(old)
    new_map = _index_entries(new)
    forward = _forward_map(old_map, events) if events else {}
    diff = IndexDiff()
    move_targets: set[str] = set()
    for path, size in old_map.items():
        target = forward.get(path)
        if (
            target is not None
            and target in new_map
            and path not in new_map
        ):
            diff.moved.append((path, target))
            move_targets.add(target)
            diff.bytes_delta += new_map[target] - size
    for path, size in new_map.items():
        if path in move_targets:
            continue
        prev = old_map.get(path)
        if prev is None:
            diff.created.append(path)
            diff.bytes_delta += size
        elif prev != size:
            diff.resized.append(path)
            diff.bytes_delta += size - prev
    moved_sources = {src for src, _ in diff.moved}
    for path, size in old_map.items():
        if path not in new_map and path not in moved_sources:
            diff.removed.append(path)
            diff.bytes_delta -= size
    diff.created.sort()
    diff.removed.sort()
    diff.resized.sort()
    diff.moved.sort()
    return diff
