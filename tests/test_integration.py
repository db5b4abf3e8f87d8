"""Integration tests: full pipelines across packages — scan → trace →
index → rollup → tsummary → query; dual-snapshot data-movement
analysis; multi-filesystem unified indexes; deployment-style flows."""

from __future__ import annotations

import pytest

from repro.baselines.brindexer import BrindexerIndex
from repro.core.build import BuildOptions, build_from_stanzas, dir2index, trace2index
from repro.core.engine import QueryEngine
from repro.core.query import (
    Q1_LIST_PATHS,
    Q3_DU_SUMMARIES,
    Q4_DU_TSUMMARY,
    QuerySpec,
)
from repro.core.rollup import rollup, visible_db_count
from repro.core.tools import GUFITools
from repro.core.tsummary import build_tsummary
from repro.core.update import update_directory
from repro.fs.permissions import Credentials
from repro.fs.snapshot import diff_snapshots, snapshot
from repro.gen.datasets import dataset2, linux_kernel_tree
from repro.scan.scanners import LesterScanner, TreeWalkScanner
from repro.scan.trace import read_trace, write_trace
from tests.conftest import NTHREADS


class TestFullPipeline:
    def test_scan_trace_index_query(self, dataset2_small, tmp_path):
        """The production flow: privileged scan -> trace file on disk ->
        parallel ingest -> queries match the live tree."""
        ns = dataset2_small
        scan = TreeWalkScanner(ns.tree, nthreads=NTHREADS).scan("/")
        trace_path = tmp_path / "fs.trace"
        n = write_trace(scan.stanzas, trace_path)
        assert n == scan.total_records
        result = trace2index(trace_path, tmp_path / "idx",
                             BuildOptions(nthreads=NTHREADS))
        assert result.dirs_created == ns.tree.num_dirs
        q = QueryEngine(result.index, nthreads=NTHREADS)
        rows = q.run(Q1_LIST_PATHS).rows
        assert len(rows) == ns.tree.num_files + ns.tree.num_symlinks
        assert sorted(r[0] for r in rows) == sorted(ns.files)

    def test_lester_scan_equivalent_index(self, dataset2_small, tmp_path):
        """A custom (inode-table) scanner must produce an identical
        index to the generic tree walk."""
        ns = dataset2_small
        s1 = TreeWalkScanner(ns.tree, nthreads=NTHREADS).scan("/").stanzas
        s2 = LesterScanner(ns.tree).scan("/").stanzas
        i1 = build_from_stanzas(s1, tmp_path / "a", BuildOptions(nthreads=NTHREADS))
        i2 = build_from_stanzas(s2, tmp_path / "b", BuildOptions(nthreads=NTHREADS))
        q1 = sorted(QueryEngine(i1.index, nthreads=NTHREADS).run(Q1_LIST_PATHS).rows)
        q2 = sorted(QueryEngine(i2.index, nthreads=NTHREADS).run(Q1_LIST_PATHS).rows)
        assert q1 == q2

    def test_rollup_tsummary_query_stack(self, dataset2_small, tmp_path):
        ns = dataset2_small
        built = dir2index(ns.tree, tmp_path / "idx",
                          opts=BuildOptions(nthreads=NTHREADS))
        idx = built.index
        q = QueryEngine(idx, nthreads=NTHREADS)
        du_before = q.run(Q3_DU_SUMMARIES).rows[-1][0]
        dbs_before = visible_db_count(idx)
        rollup(idx, limit=max(4, built.entries_inserted // 20),
               nthreads=NTHREADS)
        assert visible_db_count(idx) < dbs_before
        assert q.run(Q3_DU_SUMMARIES).rows[-1][0] == pytest.approx(du_before)
        build_tsummary(idx, "/")
        r4 = q.run(Q4_DU_TSUMMARY)
        assert r4.dirs_visited == 1
        assert r4.rows[0][0] == pytest.approx(du_before)

    def test_gufi_vs_brindexer_same_answers(self, dataset2_small, tmp_path):
        """Both indexes must agree on content; they differ in speed and
        security, not in answers (for root)."""
        ns = dataset2_small
        stanzas = TreeWalkScanner(ns.tree, nthreads=NTHREADS).scan("/").stanzas
        gufi = build_from_stanzas(stanzas, tmp_path / "g",
                                  BuildOptions(nthreads=NTHREADS)).index
        brin, _ = BrindexerIndex.build(stanzas, tmp_path / "b", n_shards=16)
        g_names = sorted(
            r[0] for r in QueryEngine(gufi, nthreads=NTHREADS)
            .run(QuerySpec(E="SELECT name FROM pentries")).rows
        )
        b_names = sorted(r[0] for r in brin.list_names(nthreads=NTHREADS).rows)
        assert g_names == b_names
        g_du = QueryEngine(gufi, nthreads=NTHREADS).run(Q3_DU_SUMMARIES).rows[-1][0]
        b_du = brin.du(nthreads=NTHREADS).rows[0][0]
        assert g_du == pytest.approx(b_du)


class TestMultiFilesystemIndex:
    def test_unified_search_across_sources(self, tmp_path):
        """§III-A: multiple file systems indexed under one /Search
        root, queried together (the Fig 3 layout)."""
        from repro.scan.trace import DirStanza, TraceRecord

        kernel = linux_kernel_tree(scale=0.02)
        scratch = dataset2(scale=0.00005, seed=9)
        stanzas = []
        root_rec = TraceRecord(
            path="/", ftype="d", ino=10**9, mode=0o755, nlink=4, uid=0,
            gid=0, size=0, blksize=4096, blocks=0, atime=0, mtime=0, ctime=0,
        )
        stanzas.append(DirStanza(directory=root_rec))
        for prefix, ns in (("/fs-kernel", kernel), ("/fs-scratch", scratch)):
            sub = TreeWalkScanner(ns.tree, nthreads=NTHREADS).scan("/").stanzas
            for st in sub:
                st.directory.path = prefix + (
                    "" if st.directory.path == "/" else st.directory.path
                )
                # keep inode uniqueness across sources
                st.directory.ino += hash(prefix) % 10**6 * 10**7
                for e in st.entries:
                    e.path = prefix + e.path
                    e.ino += hash(prefix) % 10**6 * 10**7
                stanzas.append(st)
        built = build_from_stanzas(stanzas, tmp_path / "search",
                                   BuildOptions(nthreads=NTHREADS))
        q = QueryEngine(built.index, nthreads=NTHREADS)
        all_rows = [r[0] for r in q.run(Q1_LIST_PATHS).rows]
        assert any(r.startswith("/fs-kernel/") for r in all_rows)
        assert any(r.startswith("/fs-scratch/") for r in all_rows)
        # a single-source query is a subtree query
        sub_rows = q.run(Q1_LIST_PATHS, start="/fs-kernel").rows
        assert 0 < len(sub_rows) < len(all_rows)


class TestSnapshotDataMovement:
    def test_dual_snapshot_measures_mutation(self, tmp_path):
        """§III-A4: two namespace snapshots a scan-interval apart
        passively measure data movement."""
        ns = dataset2(scale=0.00005, seed=13)
        snap_t0 = snapshot(ns.tree)
        # a batch job writes, a purge removes, a user chmods
        ns.tree.mkdir("/scratch/jobout", mode=0o755, uid=1001, gid=1001)
        for i in range(10):
            ns.tree.create_file(f"/scratch/jobout/out{i}.dat", size=10**6,
                                uid=1001, gid=1001)
        victim = ns.files[0]
        ns.tree.unlink(victim)
        snap_t1 = snapshot(ns.tree)
        diff = diff_snapshots(snap_t0, snap_t1)
        assert len(diff.created) == 11  # dir + 10 files
        assert diff.removed == [victim]
        assert diff.bytes_delta == pytest.approx(
            10 * 10**6 - snap_t0.stat(victim).st_size
        )

    def test_index_swap_between_snapshots(self, tmp_path):
        """The §III-A4 update model: build from a snapshot, mutate the
        live tree, rebuild, and atomically point queries at the new
        index (here: two roots; the swap is the caller's symlink)."""
        ns = dataset2(scale=0.00005, seed=13)
        idx_old = dir2index(snapshot(ns.tree), tmp_path / "idx0",
                            opts=BuildOptions(nthreads=NTHREADS)).index
        ns.tree.create_file("/scratch/brand-new.bin", size=123,
                            uid=1001, gid=1001)
        idx_new = dir2index(snapshot(ns.tree), tmp_path / "idx1",
                            opts=BuildOptions(nthreads=NTHREADS)).index
        old_rows = {r[0] for r in QueryEngine(idx_old, nthreads=NTHREADS)
                    .run(Q1_LIST_PATHS).rows}
        new_rows = {r[0] for r in QueryEngine(idx_new, nthreads=NTHREADS)
                    .run(Q1_LIST_PATHS).rows}
        assert "/scratch/brand-new.bin" not in old_rows
        assert "/scratch/brand-new.bin" in new_rows
        assert new_rows - old_rows == {"/scratch/brand-new.bin"}


class TestDeploymentFlow:
    def test_user_workflow(self, dataset2_small, tmp_path):
        """A user finds their stale large files, an admin verifies the
        totals — the paper's motivating workflow."""
        ns = dataset2_small
        idx = dir2index(ns.tree, tmp_path / "idx",
                        opts=BuildOptions(nthreads=NTHREADS)).index
        uid = ns.spec.population.uids[0]
        user = Credentials(uid=uid, gid=uid)
        tools = GUFITools(idx, creds=user, nthreads=NTHREADS)
        top = tools.largest_files(limit=5)
        assert len(top) <= 5
        assert all(size >= 0 for _, size in top)
        usage = tools.space_by_user("/")
        admin_tools = GUFITools(idx, nthreads=NTHREADS)
        admin_usage = admin_tools.space_by_user("/")
        # user-visible usage for their own uid can't exceed admin's view
        assert usage.get(uid, 0) <= admin_usage[uid]

    def test_update_then_rollup_cycle(self, tmp_path):
        """Index lifecycle: build -> rollup -> incremental update
        (forces partial unroll) -> re-rollup -> queries stay exact."""
        ns = dataset2(scale=0.00005, seed=31)
        idx = dir2index(ns.tree, tmp_path / "idx",
                        opts=BuildOptions(nthreads=NTHREADS)).index
        rollup(idx, nthreads=NTHREADS)
        target_dir = ns.dirs[len(ns.dirs) // 2]
        ns.tree.create_file(f"{target_dir}/added-later.txt", size=55,
                            uid=ns.tree.get_inode(target_dir).uid,
                            gid=ns.tree.get_inode(target_dir).gid)
        update_directory(idx, ns.tree, target_dir)
        rollup(idx, nthreads=NTHREADS)
        rows = {r[0] for r in QueryEngine(idx, nthreads=NTHREADS)
                .run(Q1_LIST_PATHS).rows}
        assert f"{target_dir}/added-later.txt" in rows
        assert len(rows) == len(ns.files) + 1
