"""Experiment drivers: one function per table/figure in the paper.

Each driver builds its workload, runs the systems under comparison,
and returns :class:`ResultTable` objects whose rows mirror what the
paper reports. Benchmarks in ``benchmarks/`` are thin wrappers that
call these drivers (and time the interesting parts with
pytest-benchmark); EXPERIMENTS.md is generated from the same output.

Scale factors default to sizes that run in seconds on a laptop; the
paper's full-scale counts are noted in each table so extrapolated
comparisons are explicit.
"""

from __future__ import annotations

import shutil
import tempfile
import time

from repro.baselines.brindexer import BrindexerIndex
from repro.baselines.posix_tools import du_s, find_getfattr, find_ls
from repro.core.build import BuildOptions, build_from_stanzas, dir2index
from repro.core.engine import QueryEngine
from repro.core.query import (
    Q1_LIST_NAMES,
    Q2_DIR_SIZES,
    Q3_DU_SUMMARIES,
    QuerySpec,
)
from repro.core.rollup import rollup, visible_db_bytes, visible_db_count
from repro.core.tsummary import build_tsummary
from repro.fs.mounts import MountedFS
from repro.fs.permissions import Credentials
from repro.gen import datasets
from repro.gen.namespace import apply_xattrs
from repro.scan.scanners import make_scanner
from repro.sim.blktrace import IOTracer
from repro.sim.netfs import GPFS, LUSTRE, NFS, XFS_LOCAL
from repro.sim.ssd import SSDModel, StorageHost

from .results import ResultTable

#: default worker threads — this sandbox serialises syscalls, so more
#: threads do not help wall-clock here (see DESIGN.md); the engine
#: itself supports hundreds.
DEFAULT_THREADS = 4

#: per-database fixed cost (open + query setup) used when converting a
#: measured GUFI I/O trace to a modelled query time on the paper's
#: hardware. Chosen so an empty-db open ≈ a few hundred µs, matching
#: the paper's discussion of open overheads on fast local storage.
PER_DB_OVERHEAD = 300e-6

#: per-result-row cost (format + emit) for the C implementation. Row
#: volume is what separates scan from stab queries (Fig 9b) and makes
#: GUFI's Fig 9a speedup shrink as xattr coverage grows — the index
#: returns every match, and matches scale with coverage.
PER_ROW_OVERHEAD = 1e-6


def modeled_gufi_time(
    tracer: IOTracer, nthreads: int, host: StorageHost, nrows: int = 0
) -> float:
    """Modelled seconds for a GUFI query on the paper's storage: the
    recorded read volume through the device model at the offered
    concurrency, per-database fixed costs amortised across the thread
    pool, and (optionally) per-result-row emission costs."""
    io_time = host.query_time(tracer.total_bytes, tracer.num_reads, nthreads)
    open_time = tracer.num_reads * PER_DB_OVERHEAD / max(1, nthreads)
    return io_time + open_time + nrows * PER_ROW_OVERHEAD


# ======================================================================
# Figure 1 — metadata query time across file systems
# ======================================================================

def fig1(scale: float = 0.25, nthreads: int = DEFAULT_THREADS) -> ResultTable:
    """``find -ls`` and ``du -s`` over a Linux-kernel-shaped tree on
    GPFS / Lustre / NFS / local XFS (per-op latency models) vs GUFI
    (measured, plus a modelled time on paper-like storage)."""
    ns = datasets.linux_kernel_tree(scale=scale)
    table = ResultTable(
        title=(
            f"Fig 1: query time, kernel-source tree "
            f"({ns.tree.num_dirs} dirs / "
            f"{ns.tree.num_files + ns.tree.num_symlinks} files; paper: 74K files)"
        ),
        columns=["system", "find -ls (s)", "du -s (s)"],
    )
    for model in (GPFS, LUSTRE, NFS, XFS_LOCAL):
        mount = MountedFS(ns.tree, model)
        r_find = find_ls(mount, "/")
        r_du = du_s(mount, "/")
        table.add(model.name, r_find.modeled_time, r_du.modeled_time)

    tmp = tempfile.mkdtemp(prefix="fig1_idx_")
    try:
        built = dir2index(ns.tree, tmp, opts=BuildOptions(nthreads=nthreads))
        host = StorageHost(SSDModel(), n_ssds=1)
        tracer = IOTracer()
        q = QueryEngine(built.index, nthreads=nthreads, tracer=tracer)
        find_spec = QuerySpec(
            S="SELECT spath(name, isroot), mode, uid, gid, size FROM summary",
            E="SELECT rpath(dname, d_isroot, name), mode, uid, gid, size, "
            "mtime FROM vrpentries",
        )
        tracer.reset()
        r1 = q.run(find_spec)
        t_find_model = modeled_gufi_time(tracer, nthreads, host)
        tracer.reset()
        r3 = q.run(Q3_DU_SUMMARIES)
        t_du_model = modeled_gufi_time(tracer, nthreads, host)
        table.add("gufi (modelled)", t_find_model, t_du_model)
        table.add("gufi (measured wall)", r1.elapsed, r3.elapsed)
        table.note(
            "remote file systems are per-op latency models; GUFI rows are "
            "the real index on local disk (wall) and the same I/O through "
            "the paper's SSD model (modelled)"
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return table


# ======================================================================
# Table I — scan and index-creation times for five file systems
# ======================================================================

def table1(
    scale: float = 2e-4, nthreads: int = DEFAULT_THREADS
) -> ResultTable:
    """Scan each Table I namespace with its scanner type; report the
    modelled scan time (scaled and extrapolated to the paper's entry
    counts) and the measured index-creation time."""
    table = ResultTable(
        title="Table I: file system scan and index creation",
        columns=[
            "filesystem", "scan type", "dirs", "files",
            "scan (model s)", "scan @paper scale", "index creation",
        ],
    )
    paper_scan_minutes = {
        "/users": 50, "/proj": 133, "/scratch1": 19,
        "/scratch2": 216, "/archive": 125,
    }
    for name in datasets.table1_names():
        ns = datasets.table1_namespace(name, scale=scale)
        kind = datasets.TABLE1_SCAN_TYPE[name]
        scanner = make_scanner(kind, ns.tree, nthreads=nthreads)
        result = scanner.scan("/")
        paper_dirs, paper_files = datasets.table1_paper_counts(name)
        # extrapolate with a deployment-width scan client (the paper's
        # site runs multi-threaded scans on dedicated nodes)
        deployment = result.modeled_time_at(8)
        per_entry = deployment / max(1, result.total_records)
        extrapolated = per_entry * (paper_dirs + paper_files)
        tmp = tempfile.mkdtemp(prefix="table1_idx_")
        try:
            if kind == "treewalk":
                # in-situ: scan and build overlap; report the build wall
                t0 = time.monotonic()
                build_from_stanzas(
                    result.stanzas, tmp, BuildOptions(nthreads=nthreads)
                )
                creation = f"in-situ ({time.monotonic() - t0:.1f}s)"
            else:
                t0 = time.monotonic()
                build_from_stanzas(
                    result.stanzas, tmp, BuildOptions(nthreads=nthreads)
                )
                creation = f"{time.monotonic() - t0:.1f}s post"
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        table.add(
            name,
            kind,
            ns.tree.num_dirs,
            ns.tree.num_files + ns.tree.num_symlinks,
            result.modeled_time,
            f"{extrapolated / 60:.0f} min (paper {paper_scan_minutes[name]}m)",
            creation,
        )
    table.note(
        "scan (model s) charges each source system's per-op costs; the "
        "extrapolation multiplies the per-entry cost by the paper's counts"
    )
    return table


# ======================================================================
# Figure 7 — SSD utilisation vs thread count
# ======================================================================

def fig7(
    scale: float = 0.004,
    thread_counts: tuple[int, ...] = (1, 2, 4, 7, 14, 28, 56, 112, 224, 448, 896),
    host_configs: tuple[int, ...] = (1, 2, 4),
) -> ResultTable:
    """Sweep the thread pool, record the read volume the query
    generates, and push it through SSD-host models with 1/2/4 devices.

    Offered queue depth equals the pool size (each worker keeps one
    read outstanding); achievable throughput and utilisation come from
    the device model, reproducing Fig 7's saturation/bottleneck shape
    without the hardware."""
    ns = datasets.dataset1(scale=scale)
    tmp = tempfile.mkdtemp(prefix="fig7_idx_")
    table = ResultTable(
        title=(
            f"Fig 7: disk utilisation vs threads "
            f"(dataset1-scaled: {ns.tree.num_dirs} dirs / "
            f"{ns.tree.num_files} files)"
        ),
        columns=["threads", "bytes read", "reads"]
        + [f"GB/s ({n} SSD)" for n in host_configs]
        + [f"util% ({n} SSD)" for n in host_configs],
    )
    try:
        built = dir2index(ns.tree, tmp, opts=BuildOptions(nthreads=DEFAULT_THREADS))
        hosts = {n: StorageHost(SSDModel(), n_ssds=n) for n in host_configs}
        # The read volume is thread-count independent (same query);
        # run the query once to trace it, then model each (threads,
        # host) point analytically — exactly what Fig 7 plots.
        tracer = IOTracer()
        q = QueryEngine(
            built.index, nthreads=DEFAULT_THREADS, tracer=tracer
        )
        q.run(QuerySpec(E="SELECT uid FROM entries"))
        nbytes, nreads = tracer.total_bytes, tracer.num_reads
        for t in thread_counts:
            row = [t, nbytes, nreads]
            for n in host_configs:
                bw = hosts[n].throughput(t)
                row.append(bw / 1e9)
            for n in host_configs:
                row.append(100.0 * hosts[n].utilization(t))
            table.add(*row)
        table.note(
            "paper: single SSD saturates near 112 threads; 2 SSDs reach "
            "5.26 GB/s (82%); 4 SSDs stay host-limited"
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return table


# ======================================================================
# Figure 8 — rollup limit tradeoffs
# ======================================================================

def fig8(
    scale: float = 0.0005,
    nthreads: int = DEFAULT_THREADS,
    n_shards: int = 64,
    limit_fractions: tuple[float | None, ...] = (0.0, 1 / 6470, 1 / 1294, 1 / 647, 1 / 258.8, None),
) -> tuple[ResultTable, ResultTable, dict[str, list[float]]]:
    """Rollup-limit sweep on the dataset-2-shaped namespace.

    ``limit_fractions`` are fractions of the namespace's entry count
    (the paper's 10K/50K/100K/250K limits over 64.7M files map to the
    same fractions of the scaled namespace). 0.0 means no rollup
    (NONE); None means unlimited (MAX). Returns (fig8a/8b table,
    brindexer comparison rows included; fig8c completion-time dict).
    """
    from repro.scan.scanners import TreeWalkScanner

    ns = datasets.dataset2(scale=scale)
    stanzas = TreeWalkScanner(ns.tree, nthreads=nthreads).scan("/").stanzas
    n_entries = sum(len(s.entries) for s in stanzas)
    simple_query = QuerySpec(
        S="SELECT uid FROM summary", E="SELECT uid FROM pentries"
    )

    table = ResultTable(
        title=(
            f"Fig 8a/8b: rollup tradeoffs (dataset2-scaled: "
            f"{len(stanzas)} dirs / {n_entries} entries)"
        ),
        columns=[
            "config", "rollup (s)", "query (s)", "visible DBs",
            "visible bytes", "bytes/entry",
        ],
    )
    completions: dict[str, list[float]] = {}
    keep = {0.0: "NONE", None: "MAX"}

    for frac in limit_fractions:
        tmp = tempfile.mkdtemp(prefix="fig8_idx_")
        try:
            built = build_from_stanzas(
                stanzas, tmp, BuildOptions(nthreads=nthreads)
            )
            if frac == 0.0:
                label, rollup_s = "NONE", 0.0
            else:
                limit = None if frac is None else max(4, int(n_entries * frac))
                label = "MAX" if frac is None else f"limit={limit}"
                st = rollup(built.index, limit=limit, nthreads=nthreads)
                rollup_s = st.elapsed
            q = QueryEngine(built.index, nthreads=nthreads)
            r = q.run(simple_query)
            nbytes = visible_db_bytes(built.index)
            table.add(
                label,
                rollup_s,
                r.elapsed,
                visible_db_count(built.index),
                nbytes,
                nbytes / max(1, n_entries),
            )
            tag = keep.get(frac)
            if tag is None and frac is not None and abs(frac - 1 / 258.8) < 1e-9:
                tag = "250K-equiv"
            if tag:
                # Fig 8c measures straggling across a wide pool: a
                # separate run with more workers exposes the one-big-
                # database tail the MAX config suffers.
                q8 = QueryEngine(built.index, nthreads=max(8, nthreads))
                r8 = q8.run(simple_query)
                if r8.walk_stats:
                    completions[tag] = r8.walk_stats.thread_completion_times
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    # Brindexer comparison (Fig 8b space + 8c concurrency).
    tmp = tempfile.mkdtemp(prefix="fig8_brin_")
    try:
        brin, _ = BrindexerIndex.build(stanzas, tmp, n_shards=n_shards)
        r = brin.query("SELECT uid FROM entries", nthreads=nthreads)
        nbytes = brin.total_bytes()
        table.add(
            f"brindexer-{n_shards}", None, r.elapsed, n_shards,
            nbytes, nbytes / max(1, n_entries),
        )
        r8 = brin.query("SELECT uid FROM entries", nthreads=max(8, nthreads))
        if r8.walk_stats:
            completions["brindexer"] = r8.walk_stats.thread_completion_times
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    table.note(
        "paper: moderate limits minimise both rollup and query time; "
        "bytes/entry falls as the limit rises (fixed per-database "
        "overhead amortises away). The paper's GUFI<Brindexer space "
        "crossover additionally needs production-depth parent paths "
        "(Brindexer stores the full path per row); at this synthetic "
        "scale rollup closes most, not all, of the gap."
    )

    fig8c = ResultTable(
        title="Fig 8c: per-thread completion times (effective concurrency)",
        columns=["config", "median completion (s)", "last completion (s)",
                 "effective concurrency"],
    )
    for label, times in completions.items():
        if not times:
            continue
        med = times[len(times) // 2]
        last = times[-1]
        eff = sum(times) / (len(times) * last) if last > 0 else 0.0
        fig8c.add(label, med, last, eff)
    return table, fig8c, completions


# ======================================================================
# Figure 9 — extended attribute query performance
# ======================================================================

def fig9(
    scale: float = 0.0005,
    coverages: tuple[float, ...] = (0.25, 0.5, 1.0),
    nthreads: int = DEFAULT_THREADS,
) -> ResultTable:
    """Sentinel (scan) and unique-needle (stab) xattr searches: GUFI's
    xattr views vs find+getfattr and getfattr-with-file-list on a
    local-XFS cost model."""
    table = ResultTable(
        title="Fig 9: xattr query performance",
        columns=[
            "tree", "files", "xattr files",
            "xfs find+getfattr (s)", "xfs getfattr list (s)",
            "gufi scan (s)", "gufi scan modelled (s)",
            "gufi stab (s)", "gufi stab modelled (s)",
            "modelled speedup vs xfs", "modelled scan/stab",
        ],
    )
    host = StorageHost(SSDModel(), n_ssds=1)
    for i, cov in enumerate(coverages, start=1):
        ns = datasets.dataset2(scale=scale, seed=22)
        tagged, needle_path = apply_xattrs(ns, cov)
        tmp = tempfile.mkdtemp(prefix="fig9_idx_")
        try:
            built = dir2index(ns.tree, tmp, opts=BuildOptions(nthreads=nthreads))
            mount = MountedFS(ns.tree, XFS_LOCAL)
            xfs_walk = find_getfattr(
                mount, "/", "user.ext", xargs_parallel=224
            )
            file_list = list(ns.files)
            xfs_list = find_getfattr(
                mount, "/", "user.ext", file_list=file_list, xargs_parallel=224
            )
            tracer = IOTracer()
            q = QueryEngine(built.index, nthreads=nthreads, tracer=tracer)
            scan_spec = QuerySpec(
                E="SELECT rpath(dname, d_isroot, name), exattrs FROM xpentries "
                "WHERE exattrs LIKE '%user.ext%'",
                xattrs=True,
            )
            r_scan = q.run(scan_spec)
            scan_modelled = modeled_gufi_time(
                tracer, 224, host, nrows=len(r_scan.rows)
            )
            tracer.reset()
            stab_spec = QuerySpec(
                E="SELECT rpath(dname, d_isroot, name), exattrs FROM xpentries "
                "WHERE exattrs LIKE '%needle%'",
                xattrs=True,
            )
            r_stab = q.run(stab_spec)
            stab_modelled = modeled_gufi_time(
                tracer, 224, host, nrows=len(r_stab.rows)
            )
            assert any(needle_path == row[0] for row in r_stab.rows), (
                "stab query must find the needle file"
            )
            table.add(
                f"Tree-{i} ({int(cov * 100)}%)",
                len(ns.files),
                len(tagged),
                xfs_walk.modeled_time,
                xfs_list.modeled_time,
                r_scan.elapsed,
                scan_modelled,
                r_stab.elapsed,
                stab_modelled,
                xfs_walk.modeled_time / scan_modelled,
                scan_modelled / stab_modelled if stab_modelled > 0 else None,
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    table.note(
        "paper: XFS cost tracks total files (no POSIX xattr filter); GUFI "
        "cost tracks xattr'd files, so its speedup SHRINKS as coverage "
        "grows (paper 33x/22x/12x); stab gains 2-5x over scan. Both "
        "shapes appear in the modelled columns; wall columns carry the "
        "sandbox's per-database constant."
    )
    return table


# ======================================================================
# Figure 10 — GUFI vs Brindexer, admin and per-user queries
# ======================================================================

def fig10(
    scale: float = 0.0005,
    nthreads: int = DEFAULT_THREADS,
    n_shards: int = 64,
    n_users: int = 10,
    rollup_fraction: float = 1 / 258.8,
) -> tuple[ResultTable, ResultTable]:
    """The four macro queries as root (Fig 10a) and as a sample of
    unprivileged users (Fig 10b), GUFI (rolled-up, tsummary built)
    versus Brindexer."""
    from repro.scan.scanners import TreeWalkScanner

    ns = datasets.dataset2(scale=scale)
    stanzas = TreeWalkScanner(ns.tree, nthreads=nthreads).scan("/").stanzas
    n_entries = sum(len(s.entries) for s in stanzas)

    gufi_tmp = tempfile.mkdtemp(prefix="fig10_gufi_")
    brin_tmp = tempfile.mkdtemp(prefix="fig10_brin_")
    try:
        built = build_from_stanzas(stanzas, gufi_tmp, BuildOptions(nthreads=nthreads))
        limit = max(4, int(n_entries * rollup_fraction))
        rollup(built.index, limit=limit, nthreads=nthreads)
        ts = build_tsummary(built.index, "/")
        brin, _ = BrindexerIndex.build(stanzas, brin_tmp, n_shards=n_shards)

        q4_root = QuerySpec(T="SELECT totsize FROM tsummary WHERE rectype = 0")

        # Modelled times put both systems on the paper's hardware: the
        # traced read volume through the SSD model at the paper's
        # thread counts (GUFI 224, Brindexer thread-per-db), plus the
        # per-database fixed cost a C implementation pays. This is
        # where the paper's who-wins shape lives — the wall columns
        # carry this sandbox's ~30x per-database Python/syscall
        # handicap (see EXPERIMENTS.md).
        host = StorageHost(SSDModel(), n_ssds=2)
        brin_bytes = brin.total_bytes()

        def brin_modelled(nrows: int = 0) -> float:
            io = host.query_time(brin_bytes, n_shards, min(256, n_shards))
            return (
                io
                + n_shards * PER_DB_OVERHEAD / min(256, n_shards)
                + nrows * PER_ROW_OVERHEAD
            )

        def gufi_queries(creds: Credentials | None):
            tracer = IOTracer()
            q = QueryEngine(
                built.index,
                creds=creds if creds is not None else Credentials(uid=0, gid=0),
                nthreads=nthreads,
                tracer=tracer,
            )
            wall, modelled = [], []
            if creds is None:
                specs = [Q1_LIST_NAMES, Q2_DIR_SIZES, Q3_DU_SUMMARIES, q4_root]
            else:
                q4_user = QuerySpec(
                    T="SELECT totsize FROM tsummary "
                    f"WHERE rectype = 1 AND uid = {creds.uid}"
                )
                specs = [Q1_LIST_NAMES, Q2_DIR_SIZES, Q3_DU_SUMMARIES, q4_user]
            for spec in specs:
                tracer.reset()
                result = q.run(spec)
                wall.append(result.elapsed)
                modelled.append(
                    modeled_gufi_time(tracer, 224, host, nrows=len(result.rows))
                )
            return wall, modelled

        def brin_queries(uid: int | None):
            results = [
                brin.list_names(uid=uid, nthreads=nthreads),
                brin.dir_sizes(uid=uid, nthreads=nthreads),
                brin.du(uid=uid, nthreads=nthreads),
                brin.du(uid=uid, nthreads=nthreads),  # no tsummary
            ]
            wall = [r.elapsed for r in results]
            # every Brindexer query is a full scan of every shard;
            # emitted row volume differs per query
            modelled = [brin_modelled(nrows=len(r.rows)) for r in results]
            return wall, modelled

        table_a = ResultTable(
            title=(
                f"Fig 10a: admin (root) queries — GUFI (rollup limit "
                f"{limit}, tsummary {ts.seconds:.2f}s) vs "
                f"Brindexer-{n_shards} ({len(stanzas)} dirs / "
                f"{n_entries} entries)"
            ),
            columns=[
                "query", "gufi wall (s)", "brindexer wall (s)",
                "gufi modelled (s)", "brindexer modelled (s)",
                "modelled speedup",
            ],
        )
        g_wall, g_model = gufi_queries(None)
        b_wall, b_model = brin_queries(None)
        names = [
            "1: list all names", "2: dir sizes",
            "3: du via summaries", "4: du via tsummary",
        ]
        for name, gw, bw, gm, bm in zip(names, g_wall, b_wall, g_model, b_model):
            table_a.add(name, gw, bw, gm, bm, bm / gm if gm > 0 else None)
        table_a.note(
            "paper speedups: 1.5x, 8.2x, 6.3x, 230x. Modelled columns put "
            "both systems on the paper's hardware (traced read volume "
            "through the 2-SSD model at the paper's thread counts); wall "
            "columns carry this sandbox's per-database Python handicap."
        )

        table_b = ResultTable(
            title=f"Fig 10b: unprivileged user queries (n={n_users} users)",
            columns=[
                "query", "gufi wall mean (s)", "gufi modelled mean (s)",
                "brindexer modelled (s)", "modelled speedup",
            ],
        )
        uids = list(ns.spec.population.uids)[:n_users]
        g_walls = [[] for _ in range(4)]
        g_models = [[] for _ in range(4)]
        b_models = [[] for _ in range(4)]
        for uid in uids:
            creds = Credentials(uid=uid, gid=uid)
            uw, um = gufi_queries(creds)
            _, ubm = brin_queries(uid)
            for i in range(4):
                g_walls[i].append(uw[i])
                g_models[i].append(um[i])
                b_models[i].append(ubm[i])
        for i, name in enumerate(names):
            gw = sum(g_walls[i]) / len(g_walls[i])
            gm = sum(g_models[i]) / len(g_models[i])
            bm = sum(b_models[i]) / len(b_models[i])
            table_b.add(name, gw, gm, bm, bm / gm if gm > 0 else None)
        table_b.note(
            "paper: Brindexer user times equal its admin times (always a "
            "full scan); GUFI user times shrink with accessible data"
        )
        return table_a, table_b
    finally:
        shutil.rmtree(gufi_tmp, ignore_errors=True)
        shutil.rmtree(brin_tmp, ignore_errors=True)


# ======================================================================
# Query-planning ablation — summary-statistics pruning (§III-A2)
# ======================================================================

def planning_ablation(
    groups: int = 20,
    dirs_per_group: int = 15,
    match_every: int = 20,
    nthreads: int = DEFAULT_THREADS,
) -> ResultTable:
    """Selective-query ablation for the summary-statistics planner.

    A ``size>>1g newer:7d`` search over a project namespace where only
    ~1/match_every of the directories hold a matching file, run three
    ways: planning off, planning on with a cold DirMeta cache (stats
    are read during the same attach that serves the permission check,
    so only the E stage is skipped), and planning on warm (the cached
    stats answer matchability up front and the attach is elided
    entirely — the headline configuration)."""
    from repro.core.search import parse
    from repro.fs.tree import VFSTree

    now = 1_700_000_000
    day = 86400
    tree = VFSTree()
    tree.mkdir("/proj", mode=0o755, uid=0, gid=0)
    n = 0
    for g in range(groups):
        gdir = f"/proj/g{g:02d}"
        tree.mkdir(gdir, mode=0o755, uid=0, gid=0)
        for d in range(dirs_per_group):
            leaf = f"{gdir}/d{d:03d}"
            tree.mkdir(leaf, mode=0o755, uid=1001, gid=1001)
            for f in range(4):
                tree.create_file(
                    f"{leaf}/small{f}.dat", size=4096 + n, mode=0o644,
                    uid=1001, gid=1001, mtime=now - 100 * day - n,
                )
            if n % match_every == 0:
                tree.create_file(
                    f"{leaf}/big.h5", size=2 * 2**30 + n, mode=0o644,
                    uid=1001, gid=1001, mtime=now - day - n,
                )
            n += 1

    parsed = parse("size>>1g newer:7d", now=now)
    spec, plan = parsed.to_spec(), parsed.to_plan()
    tmp = tempfile.mkdtemp(prefix="planabl_")
    table = ResultTable(
        title=(
            f"Query planning ablation: 'size>>1g newer:7d' over "
            f"{1 + groups * (1 + dirs_per_group)} dirs "
            f"(~{100 // match_every}% matching)"
        ),
        columns=[
            "config", "dbs opened", "pruned", "attaches elided",
            "rows", "elapsed (s)", "speedup",
        ],
    )
    try:
        built = dir2index(tree, tmp, opts=BuildOptions(nthreads=nthreads))
        q = QueryEngine(built.index, nthreads=nthreads)
        built.index.invalidate_cache()
        off = q.run(spec)
        warm_off = q.run(spec)
        built.index.invalidate_cache()
        # the cold planned run leaves the cache warm for the warm row:
        # only a run that reads the bounds caches them
        cold_on = q.run(spec, plan=plan)
        warm_on = q.run(spec, plan=plan)
        assert sorted(cold_on.rows) == sorted(off.rows) == sorted(
            warm_on.rows
        ), "planning changed results"
        base = warm_off.elapsed
        for label, r in (
            ("planning off (warm)", warm_off),
            ("planning on, cold cache", cold_on),
            ("planning on, warm cache", warm_on),
        ):
            table.add(
                label, r.dbs_opened, r.dirs_pruned_by_plan,
                r.attaches_elided, len(r.rows), r.elapsed,
                base / r.elapsed if r.elapsed > 0 else None,
            )
        table.note(
            "identical rows in all configs (the plan is conservative); "
            "warm planning answers matchability from the DirMeta cache "
            "and skips the SQLite attach for pruned directories"
        )
        return table
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ======================================================================
# §IV-B text — rollup database-count reduction across namespaces
# ======================================================================

def rollup_reduction(
    scale: float = 1e-4, nthreads: int = DEFAULT_THREADS
) -> ResultTable:
    """Unlimited rollup on each Table I namespace: databases before vs
    after (paper: average 386x, home 741x, project 77x)."""
    table = ResultTable(
        title="Rollup DB-count reduction across namespaces (§IV-B)",
        columns=[
            "filesystem", "dirs", "DBs before", "DBs after",
            "reduction", "structural max",
        ],
    )
    factors = []
    for name in datasets.table1_names():
        ns = datasets.table1_namespace(name, scale=scale)
        tmp = tempfile.mkdtemp(prefix="rollred_")
        try:
            built = dir2index(ns.tree, tmp, opts=BuildOptions(nthreads=nthreads))
            before = visible_db_count(built.index)
            rollup(built.index, limit=None, nthreads=nthreads)
            after = visible_db_count(built.index)
            factor = before / max(1, after)
            factors.append(factor)
            # Best case: every area collapses to one database; the
            # top-level containers and / can never merge (mixed owners).
            n_containers = len(
                {r.rsplit("/", 1)[0] for r in ns.area_roots}
            )
            floor = 1 + n_containers + len(ns.area_roots)
            table.add(
                name, ns.tree.num_dirs, before, after,
                f"{factor:.1f}x", f"{before / floor:.1f}x",
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    table.note(
        f"mean reduction {sum(factors) / len(factors):.1f}x "
        "(paper: 386x mean, 741x max home, 77x min project). The "
        "achievable factor scales with directories per user/project "
        "area: the paper's namespaces hold thousands of directories "
        "per area, this scaled run only tens — compare 'reduction' "
        "against 'structural max', not against the paper's absolute."
    )
    return table


# ======================================================================
# §III-A4 text — ingest rates
# ======================================================================

def ingest_rate(
    n_dirs: int = 600, files_per_dir: int = 40, nthreads: int = DEFAULT_THREADS
) -> ResultTable:
    """Directory-creation and row-insert rates (paper: 1M dirs ≈ 18 s,
    100M rows < 120 s on their commodity server)."""
    from repro.scan.trace import DirStanza, TraceRecord

    stanzas = []
    ino = 1
    root_rec = TraceRecord(
        path="/", ftype="d", ino=ino, mode=0o755, nlink=2 + n_dirs, uid=0,
        gid=0, size=0, blksize=4096, blocks=0, atime=0, mtime=0, ctime=0,
    )
    stanzas.append(DirStanza(directory=root_rec))
    for i in range(n_dirs):
        ino += 1
        d = TraceRecord(
            path=f"/d{i:06d}", ftype="d", ino=ino, mode=0o755, nlink=2,
            uid=0, gid=0, size=0, blksize=4096, blocks=0, atime=0, mtime=0,
            ctime=0,
        )
        st = DirStanza(directory=d)
        for j in range(files_per_dir):
            ino += 1
            st.entries.append(
                TraceRecord(
                    path=f"/d{i:06d}/f{j:05d}", ftype="f", ino=ino,
                    mode=0o644, nlink=1, uid=0, gid=0, size=4096,
                    blksize=4096, blocks=8, atime=0, mtime=0, ctime=0,
                )
            )
        stanzas.append(st)
    tmp = tempfile.mkdtemp(prefix="ingest_")
    try:
        result = build_from_stanzas(stanzas, tmp, BuildOptions(nthreads=nthreads))
        table = ResultTable(
            title="Index ingest rates (§III-A4)",
            columns=[
                "dirs", "rows", "seconds", "dirs/s", "rows/s",
                "1M dirs would take", "100M rows would take",
            ],
        )
        table.add(
            result.dirs_created,
            result.dirs_created + result.entries_inserted,
            result.seconds,
            result.dirs_per_second,
            result.rows_per_second,
            f"{1_000_000 / max(1, result.dirs_per_second):.0f} s (paper ~18 s)",
            f"{100_000_000 / max(1, result.rows_per_second):.0f} s (paper <120 s)",
        )
        return table
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ======================================================================
# Build resilience — crash-safe, resumable index construction
# ======================================================================

def build_resilience(
    scale: float = 0.0003,
    nthreads: int = DEFAULT_THREADS,
    fractions: tuple[float, ...] = (0.25, 0.5, 0.75),
) -> ResultTable:
    """Kill an index build at several points, resume it, and verify
    the resumed index answers queries identically to an uninterrupted
    build (§III-A3's restartable-scan requirement, exercised through
    the deterministic fault-injection layer).

    For each kill fraction the driver: (1) builds with a
    :class:`~repro.scan.faults.FaultPlan` that crashes the process at
    the Nth directory, (2) reruns with ``resume=True``, (3) compares
    the full-tree path listing against the baseline, and (4) checks no
    ``.partial`` staging files survived.
    """
    import os

    from repro.core.query import Q1_LIST_PATHS
    from repro.scan.faults import BuildCrash, FaultPlan
    from repro.store.layout import PARTIAL_SUFFIX

    ns = datasets.dataset2(scale=scale, seed=9)
    stanzas = make_scanner("treewalk", ns.tree, nthreads=nthreads).scan("/").stanzas
    base = tempfile.mkdtemp(prefix="resilience_")

    def query_rows(index) -> list:
        return sorted(QueryEngine(index, nthreads=nthreads).run(Q1_LIST_PATHS).rows)

    def partials_left(root: str) -> int:
        return sum(
            1
            for dirpath, _, files in os.walk(root)
            for f in files
            if f.endswith(PARTIAL_SUFFIX)
        )

    try:
        baseline = build_from_stanzas(
            stanzas, f"{base}/full", BuildOptions(nthreads=nthreads)
        )
        want = query_rows(baseline.index)
        table = ResultTable(
            title="Build resilience: crash + resume vs uninterrupted build",
            columns=[
                "killed at", "dirs entered", "resume skipped",
                "resume rebuilt", "identical", "partials left",
            ],
        )
        for frac in fractions:
            kill_at = max(1, int(len(stanzas) * frac))
            root = f"{base}/kill{int(frac * 100)}"
            plan = FaultPlan.crash_at("build_dir_db", kill_at)
            try:
                build_from_stanzas(
                    stanzas, root,
                    BuildOptions(nthreads=nthreads, faults=plan),
                )
                crashed = False
            except BuildCrash:
                crashed = True
            resumed = build_from_stanzas(
                stanzas, root,
                BuildOptions(nthreads=nthreads, resume=True),
            )
            rows = query_rows(resumed.index)
            table.add(
                f"{frac:.0%} ({kill_at}/{len(stanzas)} dirs)" if crashed
                else f"{frac:.0%} (no crash?)",
                kill_at,
                resumed.dirs_skipped,
                resumed.dirs_created,
                rows == want,
                partials_left(root),
            )
        table.note(
            "crash = injected BuildCrash at the Nth build_dir_db entry; "
            "identical compares sorted full-tree rpath listings"
        )
        return table
    finally:
        shutil.rmtree(base, ignore_errors=True)
