"""Per-directory layout: artifact names, staging, stamps.

One directory of a GUFI index holds a small, **closed** set of
*artifacts* (paper §III-A1/§III-B): the primary database and the
permission-sharded xattr side databases — nothing else. Their file
names, the ``.partial``-stage → :func:`publish` commit protocol, and
the stat-derived validity stamps are layout facts, and this module is
the only place in the tree that knows them.

The set is module constants, not a registry: a reader can enumerate
what a directory may hold from :data:`_ARTIFACT_KINDS` alone, which is
what keeps the tree rsync-able and checkable. Any other file in an
index directory (``gufi_index.json``, a user's stray file, a leftover
of a removed feature) classifies as ``None``: no reader opens it, no
publish removes it.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import sqlite3
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.blktrace import IOTracer

#: the primary per-directory database — its existence is the commit
#: point the query engine keys on
DB_NAME = "db.db"

#: suffix for staged (not yet published) artifact files
PARTIAL_SUFFIX = ".partial"

#: common prefix of every xattr side database
_XATTR_PREFIX = "xattrs.db"


# ----------------------------------------------------------------------
# The closed artifact set
# ----------------------------------------------------------------------

#: kind → file-name pattern. The three xattr kinds are the §III-B1
#: placement-rule buckets :func:`side_db_name` writes.
_ARTIFACT_KINDS = (
    ("primary", re.escape(DB_NAME)),
    ("xattr_user", re.escape(_XATTR_PREFIX) + r"\.u\d+"),
    ("xattr_group_r", re.escape(_XATTR_PREFIX) + r"\.g\d+\.r"),
    ("xattr_group_nr", re.escape(_XATTR_PREFIX) + r"\.g\d+\.nr"),
)

#: the table as one alternation: the group that matched names the kind
_ARTIFACT_RE = re.compile(
    "|".join(f"(?P<{key}>{pattern})" for key, pattern in _ARTIFACT_KINDS)
)


def classify_artifact(filename: str) -> str | None:
    """The artifact kind a file name belongs to — ``primary``,
    ``xattr_user``, ``xattr_group_r`` or ``xattr_group_nr`` (a staged
    ``.partial`` name classifies as its final kind) — or None: not
    ours, e.g. ``gufi_index.json`` or a user's stray file."""
    if filename.endswith(PARTIAL_SUFFIX):
        filename = filename[: -len(PARTIAL_SUFFIX)]
    m = _ARTIFACT_RE.fullmatch(filename)
    return m.lastgroup if m is not None else None


def is_side_artifact(filename: str) -> bool:
    """Every index artifact other than the primary database: the xattr
    shards."""
    kind = classify_artifact(filename)
    return kind is not None and kind != "primary"


def side_db_name(kind: str, ident: int) -> str:
    """File name for an xattr side database within an index directory
    (``kind`` is the placement-rule bucket: user / group_r /
    group_nr)."""
    if kind == "user":
        return f"{_XATTR_PREFIX}.u{ident}"
    if kind == "group_r":
        return f"{_XATTR_PREFIX}.g{ident}.r"
    if kind == "group_nr":
        return f"{_XATTR_PREFIX}.g{ident}.nr"
    raise ValueError(f"unknown side db kind {kind!r}")


def publish(staged: Path | str, final: Path | str, faults=None) -> None:
    """Make ``staged`` visible as ``final`` by one ``rename(2)``, over
    whatever ``final`` named: the only rename in ``repro``. Every writer
    of index state — a directory's databases, the changefeed cursor,
    ``gufi_index.json``, the ``current`` link, a moved index subtree, a
    worker's result — goes through here, and each call fires fault site
    ``"publish"`` (key = ``str(final)``) of ``faults`` first.

    Durability: no fsync, of the file or its directory. A crash may lose
    the newest publish; what was visible before stays whole, and the
    periodic re-pull recovers the rest (:mod:`repro.store.connect`)."""
    if faults is not None:
        faults.fire("publish", str(final))
    os.replace(staged, final)


# ----------------------------------------------------------------------
# Validity stamps (the single implementation every cache shares)
# ----------------------------------------------------------------------

def file_stamp(path: Path | str) -> tuple[int, int, int] | None:
    """Cache-validation stamp for a database file: (inode, mtime_ns,
    size). Every writer of a published primary — a rebuild, rollup,
    a tree summary, a depth fix, migrate — stages a new file and
    renames it over the old one, so the inode alone changes even on
    file systems with coarse timestamps; mtime_ns and size catch a
    foreign writer that edits in place. ``None`` when the file is
    missing — a missing stamp never validates a cache entry."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_mtime_ns, st.st_size)


def dir_stamp(path: Path | str) -> tuple[int, int] | None:
    """Cache-validation stamp for a directory's child listing:
    (inode, mtime_ns). Creating or removing a sub-directory updates
    the parent directory's mtime."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_mtime_ns)


def stamp_matches(path: Path | str, stamp: tuple | None) -> bool:
    """Is the file at ``path`` still exactly the one ``stamp`` was
    taken from? (False for a ``None`` stamp: an unknown provenance
    never validates anything.)"""
    return stamp is not None and file_stamp(path) == tuple(stamp)


class StampBracket:
    """Stat-twice-and-compare, in one place.

    Readers that want to cache what they read take a stamp *before*
    the read and publish only if a second stat *after* the read proves
    the file unchanged — a write racing the read must never pin its
    predecessor's data. This helper replaces the open-coded copies of
    that pattern in ``GUFIIndex.dir_meta``/``cached_dir_meta`` and the
    query engine's cold path."""

    __slots__ = ("path", "stamp")

    def __init__(self, path: Path | str) -> None:
        self.path = path
        self.stamp = file_stamp(path)

    @property
    def missing(self) -> bool:
        """True when the file did not exist at bracket-open time."""
        return self.stamp is None

    def unchanged(self) -> bool:
        """Re-stat: did the file provably not change across the read?"""
        return self.stamp is not None and file_stamp(self.path) == self.stamp


def artifact_bytes(path: Path | str) -> int:
    """Size of an artifact file on disk (what a full-scan query
    reads). Missing files count as zero so accounting never raises
    mid-query — the same convention :func:`repro.store.connect.
    table_bytes` follows for its missing-file fallback."""
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


# ----------------------------------------------------------------------
# DirStore — one directory's artifact set
# ----------------------------------------------------------------------

class DirStore:
    """Handle to one index directory's artifact set.

    Owns the commit protocol (paper-faithful crash safety): every
    artifact is staged under :data:`PARTIAL_SUFFIX`, then published by
    rename — side databases first, the primary database last, over the
    previous one on a rebuild. The primary is the commit point: a crash
    leaves it new or as it was (invisible on a first build). Side shards
    are not covered: renamed into their fixed final names first, a crash
    before the primary's rename leaves the old primary reading new ones.
    """

    __slots__ = ("index_dir",)

    def __init__(self, index_dir: Path | str) -> None:
        self.index_dir = Path(index_dir)

    @classmethod
    def open(cls, index_dir: Path | str, sweep: bool = True) -> "DirStore":
        """Open a directory for (re)building. Sweeps crash-leftover
        ``*.partial`` staging files by default — the orphan GC that
        keeps a mid-build kill from littering the tree forever."""
        store = cls(index_dir)
        if sweep:
            store.sweep_partials()
        return store

    # -- paths ---------------------------------------------------------
    @property
    def db_path(self) -> Path:
        return self.index_dir / DB_NAME

    def artifact_path(self, name: str) -> Path:
        return self.index_dir / name

    def partial_path(self, name: str) -> Path:
        return self.index_dir / (name + PARTIAL_SUFFIX)

    # -- staging / commit protocol -------------------------------------
    def stage_primary(self) -> sqlite3.Connection:
        """Create the staged primary database (template copy at the
        ``.partial`` path) and return an open read-write connection."""
        from . import connect

        os.makedirs(self.index_dir, exist_ok=True)
        return connect.create_db(self.partial_path(DB_NAME), fresh=True)

    def publish(self, staged_names: Iterable[str], faults=None) -> None:
        """Atomically publish a staged directory: rename every staged
        secondary artifact into place first, the primary database last
        (the commit point) — over the previous one when the directory
        is being rebuilt, so a reader finds the old directory or the
        new one and never none. Only then unlink what the new set does
        not name: stray staging files of an earlier crashed attempt,
        and side artifacts of the database just replaced (unreachable
        already: attaches go by the new database's tracking rows).
        Each rename is a :func:`publish` under ``faults``."""
        keep = [*staged_names, DB_NAME]
        for name in keep:
            publish(self.partial_path(name), self.artifact_path(name), faults)
        with os.scandir(self.index_dir) as it:
            doomed = [
                e.name
                for e in it
                if e.name.endswith(PARTIAL_SUFFIX)
                or (
                    e.name not in keep
                    and e.is_file(follow_symlinks=False)
                    and is_side_artifact(e.name)
                )
            ]
        self._unlink(doomed)

    def stage_copies(self, names: Iterable[str]) -> None:
        """Copy published artifacts to their staging names, for a writer
        that edits them and publishes the copies. No sweep: each is
        written afresh, and a publish removes whatever else a killed
        attempt left."""
        for name in names:
            shutil.copyfile(self.artifact_path(name), self.partial_path(name))

    @contextlib.contextmanager
    def rewrite_primary(self, faults=None) -> Iterator[sqlite3.Connection]:
        """Edit the published primary without writing it: a read-write
        connection on a staged copy, renamed over the primary when the
        block ends without an exception. Readers attach the published
        file ``immutable``, so it is never written in place; a kill
        before the rename leaves it whole and the copy to the next
        sweep. The side artifacts stay as they are. The rename is a
        :func:`publish` under ``faults``."""
        from . import connect

        self.stage_copies([DB_NAME])
        staged = self.partial_path(DB_NAME)
        conn = connect.open_rw(staged)
        try:
            yield conn
        finally:
            conn.close()
        publish(staged, self.db_path, faults)

    def _unlink(self, names: Iterable[str]) -> None:
        for name in names:
            with contextlib.suppress(OSError):
                os.unlink(self.index_dir / name)

    def list_partials(self) -> list[str]:
        """Staged/leftover ``*.partial`` file names in this directory."""
        try:
            with os.scandir(self.index_dir) as it:
                return sorted(
                    e.name for e in it if e.name.endswith(PARTIAL_SUFFIX)
                )
        except OSError:
            return []

    def sweep_partials(self) -> None:
        """Remove leftover staging files — residue of a crashed
        earlier attempt whose artifact set may differ from the one
        being (re)published."""
        self._unlink(self.list_partials())

    # -- enumeration / removal -----------------------------------------
    def artifacts(self) -> list[tuple[str, str]]:
        """(file name, artifact kind) for every published artifact in
        this directory, sorted by name."""
        out: list[tuple[str, str]] = []
        try:
            with os.scandir(self.index_dir) as it:
                names = [e.name for e in it if not e.is_dir(follow_symlinks=False)]
        except OSError:
            return out
        for name in sorted(names):
            if name.endswith(PARTIAL_SUFFIX):
                continue
            kind = classify_artifact(name)
            if kind is not None:
                out.append((name, kind))
        return out

    def side_artifacts(self) -> list[str]:
        """Published artifacts other than the primary database."""
        return [n for n, k in self.artifacts() if k != "primary"]

    # -- stamps --------------------------------------------------------
    def stamp(self) -> tuple[int, int, int] | None:
        """The primary database's validity stamp."""
        return file_stamp(self.db_path)

    # -- connections ---------------------------------------------------
    def open_ro(self, tracer: "IOTracer | None" = None) -> sqlite3.Connection:
        from . import connect

        return connect.open_ro(self.db_path, tracer)
