"""Source-file-system scanners (paper §III-A3, Table I).

Index construction starts with a privileged metadata scan of each
source file system. The paper uses whichever mechanism each system
offers:

* a generic threaded breadth-first **tree walk** (NFS, most systems),
* **Lester**-style direct inode-table scans (Lustre MDT, Spectrum
  Scale ILM) — much faster because they bypass the namespace,
* **SQL dumps** of database-backed archives (HPSS) — fast per row but
  inherently sequential,
* **snapshot** scans (ZFS/WAFL) — a tree walk over a frozen, consistent
  image.

Each scanner here produces the same output — a stream of
:class:`~repro.scan.trace.DirStanza` — and reports both the wall time
of the in-memory walk and a *modelled* scan time: the per-operation
costs the same scan would incur against the real source system,
divided by the scan's usable parallelism. Cost constants are
calibrated to Table I's throughputs (tree walks ≈ tens of µs/entry
with a threaded client, Lester ≈ 11 µs/row, HPSS SQL ≈ 38 µs/row).
"""

from __future__ import annotations

import posixpath
import threading
import time
from dataclasses import dataclass

from repro.fs.inode import FileType, Inode
from repro.fs.snapshot import snapshot
from repro.fs.tree import VFSTree

from .trace import DirStanza, TraceRecord
from .walker import ParallelTreeWalker, WalkStats


@dataclass(frozen=True)
class ScanCostModel:
    """Per-operation costs of scanning a real source system."""

    name: str
    per_stat: float  # seconds per per-entry attribute fetch
    per_readdir_entry: float  # seconds per name listed
    parallelizable: bool  # can multiple client threads help?
    parallel_efficiency: float = 0.85  # fraction of linear speedup kept


TREEWALK_NFS = ScanCostModel(
    "treewalk-nfs", per_stat=300e-6, per_readdir_entry=30e-6, parallelizable=True
)
TREEWALK_LUSTRE = ScanCostModel(
    "treewalk-lustre", per_stat=450e-6, per_readdir_entry=40e-6, parallelizable=True
)
LESTER = ScanCostModel(
    "lester", per_stat=11e-6, per_readdir_entry=0.0, parallelizable=False
)
HPSS_SQL = ScanCostModel(
    "hpss-sql", per_stat=38e-6, per_readdir_entry=0.0, parallelizable=False
)

COST_PRESETS = {
    m.name: m for m in (TREEWALK_NFS, TREEWALK_LUSTRE, LESTER, HPSS_SQL)
}


@dataclass
class ScanResult:
    """Everything a scan produced."""

    stanzas: list[DirStanza]
    wall_time: float
    modeled_time: float
    nthreads: int
    cost_model: ScanCostModel
    walk_stats: WalkStats | None = None
    #: raw op counts, so modelled times can be re-evaluated for a
    #: different deployment (e.g. more scan clients than this run used)
    n_stat_ops: int = 0
    n_listed_ops: int = 0

    def modeled_time_at(self, nthreads: int) -> float:
        """Modelled scan time if the deployment ran ``nthreads``
        scanner threads against the same source system."""
        return _modeled_time(
            self.cost_model, self.n_stat_ops, self.n_listed_ops, nthreads
        )

    @property
    def num_dirs(self) -> int:
        return len(self.stanzas)

    @property
    def num_entries(self) -> int:
        return sum(len(s.entries) for s in self.stanzas)

    @property
    def total_records(self) -> int:
        return self.num_dirs + self.num_entries


def record_from_inode(path: str, inode: Inode) -> TraceRecord:
    """Serialise an inode into the trace record the index stores."""
    return TraceRecord(
        path=path,
        ftype=inode.ftype.value,
        ino=inode.ino,
        mode=inode.mode,
        nlink=inode.nlink,
        uid=inode.uid,
        gid=inode.gid,
        size=inode.size,
        blksize=4096,
        blocks=(inode.size + 511) // 512,
        atime=inode.atime,
        mtime=inode.mtime,
        ctime=inode.ctime,
        linkname=inode.symlink_target or "",
        xattrs=dict(inode.xattrs),
    )


def _modeled_time(
    cost: ScanCostModel, n_stats: int, n_listed: int, nthreads: int
) -> float:
    total = n_stats * cost.per_stat + n_listed * cost.per_readdir_entry
    if not cost.parallelizable or nthreads <= 1:
        return total
    speedup = 1.0 + (nthreads - 1) * cost.parallel_efficiency
    return total / speedup


class TreeWalkScanner:
    """Generic threaded breadth-first scan of a live source tree.

    Runs as a privileged process (root credentials) so permissions
    never hide parts of the namespace — exactly the paper's model.
    """

    def __init__(
        self,
        tree: VFSTree,
        nthreads: int = 8,
        cost_model: ScanCostModel = TREEWALK_NFS,
    ):
        self.tree = tree
        self.nthreads = nthreads
        self.cost_model = cost_model

    def scan(self, top: str = "/") -> ScanResult:
        stanzas: list[DirStanza] = []
        lock = threading.Lock()
        n_stats = 0
        n_listed = 0

        def expand(dirpath: str) -> list[str]:
            nonlocal n_stats, n_listed
            dir_inode = self.tree.get_inode(dirpath)
            entries = self.tree.readdir_plus(dirpath)
            stanza = DirStanza(directory=record_from_inode(dirpath, dir_inode))
            subdirs: list[str] = []
            for name, inode in entries:
                child_path = posixpath.join(dirpath, name)
                if inode.ftype is FileType.DIRECTORY:
                    subdirs.append(child_path)
                else:
                    stanza.entries.append(record_from_inode(child_path, inode))
            with lock:
                stanzas.append(stanza)
                n_stats += 1 + len(entries)
                n_listed += len(entries)
            return subdirs

        t0 = time.monotonic()
        walker = ParallelTreeWalker(self.nthreads)
        stats = walker.walk([posixpath.normpath(top)], expand)
        wall = time.monotonic() - t0
        return ScanResult(
            stanzas=stanzas,
            wall_time=wall,
            modeled_time=_modeled_time(self.cost_model, n_stats, n_listed, self.nthreads),
            nthreads=self.nthreads,
            cost_model=self.cost_model,
            walk_stats=stats,
            n_stat_ops=n_stats,
            n_listed_ops=n_listed,
        )


class SnapshotScanner(TreeWalkScanner):
    """Tree walk over a consistent snapshot (WAFL/ZFS-style sources).

    The scan sees a frozen image, so concurrent mutation of the live
    tree cannot tear the index; the snapshot itself costs a constant.
    """

    SNAPSHOT_COST = 2.0  # seconds to create/clone a snapshot

    def scan(self, top: str = "/") -> ScanResult:
        live = self.tree
        self.tree = snapshot(live)
        try:
            result = super().scan(top)
        finally:
            self.tree = live
        result.modeled_time += self.SNAPSHOT_COST
        return result


class _InodeTableScanner:
    """Shared machinery for namespace-bypassing scans: read every
    (path, inode) pair straight from the metadata store, then regroup
    into directory stanzas."""

    def __init__(self, tree: VFSTree, cost_model: ScanCostModel):
        self.tree = tree
        self.cost_model = cost_model
        self.nthreads = 1  # the paper: these scans do not parallelise

    def scan(self, top: str = "/") -> ScanResult:
        t0 = time.monotonic()
        top = posixpath.normpath(top)
        prefix = top if top.endswith("/") else top + "/"
        dirs: dict[str, DirStanza] = {}
        pending: list[TraceRecord] = []
        n_rows = 0
        for path, inode in self.tree.iter_inodes():
            if path != top and not path.startswith(prefix):
                continue
            n_rows += 1
            rec = record_from_inode(path, inode)
            if rec.ftype == "d":
                dirs[path] = DirStanza(directory=rec)
            else:
                pending.append(rec)
        for rec in pending:
            parent = dirs.get(rec.parent)
            if parent is None:
                raise ValueError(f"orphan entry in inode scan: {rec.path}")
            parent.entries.append(rec)
        stanzas = [dirs[p] for p in sorted(dirs)]
        wall = time.monotonic() - t0
        return ScanResult(
            stanzas=stanzas,
            wall_time=wall,
            modeled_time=_modeled_time(self.cost_model, n_rows, 0, 1),
            nthreads=1,
            cost_model=self.cost_model,
            n_stat_ops=n_rows,
        )


class LesterScanner(_InodeTableScanner):
    """Lustre MDT inode-table scan (Lester) / Spectrum Scale ILM scan.

    Reads inodes directly on the metadata server, bypassing namespace
    RPCs — Table I's /scratch1 scans 109 M entries in 19 minutes this
    way versus 216 minutes for a comparable tree walk.
    """

    def __init__(self, tree: VFSTree):
        super().__init__(tree, LESTER)


class SQLScanner(_InodeTableScanner):
    """HPSS-style SQL dump of an archive's metadata tables. Fast per
    row but strictly sequential (§III-A4: 'large tape archives where
    the SQL-based scanning technology cannot be parallelized')."""

    def __init__(self, tree: VFSTree):
        super().__init__(tree, HPSS_SQL)


def make_scanner(
    kind: str, tree: VFSTree, nthreads: int = 8
) -> TreeWalkScanner | _InodeTableScanner:
    """Factory keyed by Table I's scan-type column."""
    if kind == "treewalk":
        return TreeWalkScanner(tree, nthreads=nthreads)
    if kind == "snapshot":
        return SnapshotScanner(tree, nthreads=nthreads)
    if kind == "lester":
        return LesterScanner(tree)
    if kind == "sql":
        return SQLScanner(tree)
    raise ValueError(f"unknown scanner kind {kind!r}")
