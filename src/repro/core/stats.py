"""Index statistics (the ``gufi_stats`` tool family).

Administrators live off whole-index characterisations: how deep is the
namespace, how are entries spread over directories, which users own
what, how much was written when. Each report here is computed with
one permission-gated parallel query over the index — the same engine
user queries run through, so an unprivileged caller gets statistics
over exactly their visible world.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fs.permissions import ROOT, Credentials
from repro.sim.blktrace import IOTracer

from .engine import QueryEngine
from .index import GUFIIndex
from .query import QuerySpec


@dataclass
class IndexStats:
    """A whole-index (or subtree) characterisation."""

    total_dirs: int = 0
    total_files: int = 0
    total_links: int = 0
    total_bytes: int = 0
    max_depth: int = 0
    #: directory count per depth level
    dirs_per_level: dict[int, int] = field(default_factory=dict)
    #: entry count per depth level (at the owning directory's depth)
    entries_per_level: dict[int, int] = field(default_factory=dict)
    #: files-per-directory histogram, power-of-two buckets (0, 1-2,
    #: 3-4, 5-8, ...) keyed by bucket upper bound
    fanout_histogram: dict[int, int] = field(default_factory=dict)
    #: bytes per uid
    bytes_by_uid: dict[int, int] = field(default_factory=dict)
    #: entry count per uid
    entries_by_uid: dict[int, int] = field(default_factory=dict)
    #: bytes per gid
    bytes_by_gid: dict[int, int] = field(default_factory=dict)
    #: file-size histogram, power-of-two buckets keyed by upper bound
    size_histogram: dict[int, int] = field(default_factory=dict)
    #: count of directories with zero entries and zero subdirectories
    empty_dirs: int = 0

    @property
    def total_entries(self) -> int:
        return self.total_files + self.total_links

    @property
    def mean_entries_per_dir(self) -> float:
        return self.total_entries / self.total_dirs if self.total_dirs else 0.0

    def top_users(self, n: int = 10) -> list[tuple[int, int]]:
        """(uid, bytes) for the n biggest space consumers."""
        return sorted(self.bytes_by_uid.items(), key=lambda kv: -kv[1])[:n]


def _bucket(n: int) -> int:
    """Power-of-two histogram bucket upper bound for ``n``."""
    if n <= 0:
        return 0
    b = 1
    while b < n:
        b <<= 1
    return b


def collect_stats(
    index: GUFIIndex,
    start: str = "/",
    creds: Credentials = ROOT,
    nthreads: int = 8,
    tracer: IOTracer | None = None,
) -> IndexStats:
    """Compute :class:`IndexStats` with two aggregated queries: one
    over ``summary`` rows (directory structure) and one over
    ``pentries`` (entries). Rollup-transparent — rolled-in rows carry
    their original depth."""
    # One engine session for all three passes: the second and third
    # queries reuse warm thread connections and the DirMeta cache.
    q = QueryEngine(index, creds=creds, nthreads=nthreads, tracer=tracer)
    try:
        stats = IndexStats()

        dir_spec = QuerySpec(
            I="CREATE TABLE d (depth INTEGER, totfiles INTEGER, "
            "totlinks INTEGER, totsubdirs INTEGER)",
            S="INSERT INTO d SELECT depth, totfiles, totlinks, totsubdirs "
            "FROM summary WHERE rectype = 0",
            J="INSERT INTO aggregate.d SELECT * FROM d",
            G="SELECT depth, totfiles, totlinks, totsubdirs FROM d",
        )
        for depth, totfiles, totlinks, totsubdirs in q.run(dir_spec, start).rows:
            stats.total_dirs += 1
            stats.max_depth = max(stats.max_depth, depth)
            stats.dirs_per_level[depth] = stats.dirs_per_level.get(depth, 0) + 1
            n_entries = totfiles + totlinks
            stats.entries_per_level[depth] = (
                stats.entries_per_level.get(depth, 0) + n_entries
            )
            b = _bucket(n_entries)
            stats.fanout_histogram[b] = stats.fanout_histogram.get(b, 0) + 1
            if n_entries == 0 and totsubdirs == 0:
                stats.empty_dirs += 1

        entry_spec = QuerySpec(
            I="CREATE TABLE e (type TEXT, uid INTEGER, gid INTEGER, "
            "size INTEGER, n INTEGER)",
            E="INSERT INTO e SELECT type, uid, gid, TOTAL(size), COUNT(*) "
            "FROM pentries GROUP BY type, uid, gid",
            J="INSERT INTO aggregate.e SELECT * FROM e",
            G="SELECT type, uid, gid, TOTAL(size), SUM(n) FROM e "
            "GROUP BY type, uid, gid",
        )
        for ftype, uid, gid, nbytes, count in q.run(entry_spec, start).rows:
            nbytes = int(nbytes or 0)
            count = int(count or 0)
            if ftype == "f":
                stats.total_files += count
            else:
                stats.total_links += count
            stats.total_bytes += nbytes
            stats.bytes_by_uid[uid] = stats.bytes_by_uid.get(uid, 0) + nbytes
            stats.entries_by_uid[uid] = stats.entries_by_uid.get(uid, 0) + count
            stats.bytes_by_gid[gid] = stats.bytes_by_gid.get(gid, 0) + nbytes

        # Bucketed here, not in SQL: LOG/POWER/CEIL are a compile-time
        # option of SQLite.
        size_spec = QuerySpec(
            I="CREATE TABLE s (size INTEGER, n INTEGER)",
            E="INSERT INTO s SELECT size, COUNT(*) FROM pentries "
            "WHERE type = 'f' GROUP BY size",
            J="INSERT INTO aggregate.s SELECT * FROM s",
            G="SELECT size, SUM(n) FROM s GROUP BY size",
        )
        for size, n in q.run(size_spec, start).rows:
            b = _bucket(int(size))
            stats.size_histogram[b] = stats.size_histogram.get(b, 0) + int(n)
        return stats
    finally:
        q.close()


def render_stats(stats: IndexStats, users: dict[int, str] | None = None) -> str:
    """Human-readable report (the CLI's ``stats --full`` output)."""
    users = users or {}
    lines = [
        "index statistics",
        f"  directories : {stats.total_dirs:,} "
        f"({stats.empty_dirs:,} empty, max depth {stats.max_depth})",
        f"  files       : {stats.total_files:,}",
        f"  symlinks    : {stats.total_links:,}",
        f"  bytes       : {stats.total_bytes:,}",
        f"  entries/dir : {stats.mean_entries_per_dir:.1f} mean",
        "  dirs per level:",
    ]
    for depth in sorted(stats.dirs_per_level):
        lines.append(
            f"    {depth:>3}: {stats.dirs_per_level[depth]:,}"
        )
    lines.append("  top users by bytes:")
    for uid, nbytes in stats.top_users(5):
        name = users.get(uid, f"u{uid}")
        lines.append(f"    {name:<12} {nbytes:>16,}")
    lines.append("  file sizes (power-of-two buckets):")
    for bucket in sorted(stats.size_histogram):
        lines.append(f"    <= {bucket:>14,}: {stats.size_histogram[bucket]:,}")
    return "\n".join(lines)
