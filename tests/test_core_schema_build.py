"""Tests for the index schema helpers and the builders: summary-row
correctness against brute force, dir2index/trace2index equivalence,
per-user/group summary records, and the pentries/vrpentries views."""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.build import (
    BuildOptions,
    build_from_stanzas,
    dir2index,
    summary_rows,
    trace2index,
)
from repro.core.index import GUFIIndex
from repro.scan.scanners import TreeWalkScanner
from repro.scan.trace import write_trace
from repro.store import connect, schema
from tests.conftest import NTHREADS, build_demo_tree


class TestXattrPacking:
    def test_roundtrip_text(self):
        x = {"user.a": b"hello", "user.b": b"world"}
        packed = schema.pack_xattrs(x)
        assert schema.unpack_xattrs(packed) == {"user.a": "hello", "user.b": "world"}

    def test_binary_hex_encoded(self):
        packed = schema.pack_xattrs({"user.bin": b"\x00\xff"})
        assert schema.unpack_xattrs(packed)["user.bin"] == "0x00ff"

    def test_reserved_chars_forced_to_hex(self):
        packed = schema.pack_xattrs({"user.x": b"a=b"})
        assert "0x" in schema.unpack_xattrs(packed)["user.x"]

    def test_empty(self):
        assert schema.pack_xattrs({}) == ""
        assert schema.unpack_xattrs("") == {}

    def test_names_only(self):
        names = schema.pack_xattr_names({"user.b": b"1", "user.a": b"2"})
        assert names.split("\x1f") == ["user.a", "user.b"]


class TestDbHelpers:
    def test_template_db_has_schema(self, tmp_path):
        conn = connect.create_db(tmp_path / "db.db")
        tables = {
            r[0]
            for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        views = {
            r[0]
            for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='view'"
            )
        }
        conn.close()
        # tsummary is created by bfti, where it is asked (§III-B)
        assert tables == {"entries", "summary", "xattrs", "xattrs_avail"}
        assert views == {"pentries", "vrpentries"}

    def test_empty_db_size_near_12k(self, tmp_path):
        # the paper's '12KB even when empty' observation; format v2
        # brings it to one 4 KiB file-system block
        connect.create_db(tmp_path / "db.db").close()
        assert (tmp_path / "db.db").stat().st_size == 4096

    def test_readonly_open_blocks_writes(self, tmp_path):
        connect.create_db(tmp_path / "db.db").close()
        ro = connect.open_ro(tmp_path / "db.db")
        with pytest.raises(sqlite3.OperationalError):
            ro.execute("INSERT INTO entries (name) VALUES ('x')")
        ro.close()

    def test_tracer_records_open(self, tmp_path):
        from repro.sim.blktrace import IOTracer

        connect.create_db(tmp_path / "db.db").close()
        tr = IOTracer()
        connect.open_ro(tmp_path / "db.db", tr).close()
        assert tr.num_reads == 1
        assert tr.total_bytes == (tmp_path / "db.db").stat().st_size


class TestSummaryRows:
    def test_aggregates_match_brute_force(self):
        tree = build_demo_tree()
        stanzas = TreeWalkScanner(tree, nthreads=1).scan("/").stanzas
        for stanza in stanzas:
            (row,) = summary_rows(stanza, depth=1, per_user_group=False)
            cols = dict(zip(schema.SUMMARY_COLUMNS, row))
            files = [e for e in stanza.entries if e.ftype == "f"]
            links = [e for e in stanza.entries if e.ftype == "l"]
            assert cols["totfiles"] == len(files)
            assert cols["totlinks"] == len(links)
            assert cols["totsize"] == sum(e.size for e in stanza.entries)
            if files:
                assert cols["minsize"] == min(e.size for e in files)
                assert cols["maxsize"] == max(e.size for e in files)
            assert cols["rolledup"] == 0
            assert cols["mode"] == stanza.directory.mode
            assert cols["uid"] == stanza.directory.uid

    def test_per_user_group_rows(self):
        tree = build_demo_tree()
        stanzas = TreeWalkScanner(tree, nthreads=1).scan("/").stanzas
        shared = next(s for s in stanzas if s.directory.path == "/proj/shared")
        rows = summary_rows(shared, depth=2, per_user_group=True)
        rectypes = [dict(zip(schema.SUMMARY_COLUMNS, r))["rectype"] for r in rows]
        assert rectypes.count(schema.RECTYPE_OVERALL) == 1
        assert schema.RECTYPE_USER in rectypes
        assert schema.RECTYPE_GROUP in rectypes
        # the per-user row for alice counts only her entries
        urow = next(
            dict(zip(schema.SUMMARY_COLUMNS, r))
            for r in rows
            if r[1] == schema.RECTYPE_USER and r[6] == 1001
        )
        assert urow["totfiles"] == 1

    def test_summary_name_pinned_by_rectype(self):
        """Regression: the summary ``name`` must be the directory's own
        basename for the overall record (rollup and rpath key on it)
        and the principal slice — ``u<uid>`` / ``g<gid>`` — for
        per-user/per-group records. A dead ternary once made every
        record claim the directory basename."""
        tree = build_demo_tree()
        stanzas = TreeWalkScanner(tree, nthreads=1).scan("/").stanzas
        shared = next(s for s in stanzas if s.directory.path == "/proj/shared")
        rows = summary_rows(shared, depth=2, per_user_group=True)
        names = {}
        for r in rows:
            cols = dict(zip(schema.SUMMARY_COLUMNS, r))
            names.setdefault(cols["rectype"], []).append(
                (cols["name"], cols["uid"], cols["gid"])
            )
        assert names[schema.RECTYPE_OVERALL] == [
            ("shared", shared.directory.uid, shared.directory.gid)
        ]
        for name, uid, _ in names[schema.RECTYPE_USER]:
            assert name == f"u{uid}"
        for name, _, gid in names[schema.RECTYPE_GROUP]:
            assert name == f"g{gid}"

    def test_subdir_count_from_nlink(self):
        tree = build_demo_tree()
        stanzas = TreeWalkScanner(tree, nthreads=1).scan("/").stanzas
        home = next(s for s in stanzas if s.directory.path == "/home")
        (row,) = summary_rows(home, depth=1, per_user_group=False)
        cols = dict(zip(schema.SUMMARY_COLUMNS, row))
        assert cols["totsubdirs"] == 2  # alice, bob


class TestBuilders:
    def test_dir2index_complete(self, tmp_path):
        tree = build_demo_tree()
        result = dir2index(tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS))
        assert result.dirs_created == tree.num_dirs
        assert result.entries_inserted == tree.num_files + tree.num_symlinks
        assert result.index.count_dbs() == tree.num_dirs
        assert result.index.total_entries() == result.entries_inserted

    def test_trace2index_equivalent(self, tmp_path):
        tree = build_demo_tree()
        stanzas = TreeWalkScanner(tree, nthreads=1).scan("/").stanzas
        write_trace(stanzas, tmp_path / "t.trace")
        r1 = dir2index(tree, tmp_path / "a", opts=BuildOptions(nthreads=NTHREADS))
        r2 = trace2index(
            tmp_path / "t.trace", tmp_path / "b", BuildOptions(nthreads=NTHREADS)
        )
        assert r1.entries_inserted == r2.entries_inserted
        dirs_a = sorted(r1.index.source_path(d) for d in r1.index.iter_index_dirs())
        dirs_b = sorted(r2.index.source_path(d) for d in r2.index.iter_index_dirs())
        assert dirs_a == dirs_b
        # spot-check one directory's rows match
        for sp in ("/home/alice", "/proj/shared"):
            ca = connect.open_ro(r1.index.db_path(sp))
            cb = connect.open_ro(r2.index.db_path(sp))
            ra = ca.execute("SELECT * FROM entries ORDER BY name").fetchall()
            rb = cb.execute("SELECT * FROM entries ORDER BY name").fetchall()
            ca.close(); cb.close()
            assert ra == rb

    def test_build_preserves_dir_metadata(self, tmp_path):
        tree = build_demo_tree()
        result = dir2index(tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS))
        meta = result.index.dir_meta("/home/alice")
        assert meta.mode == 0o700
        assert meta.uid == 1001
        assert not meta.rolledup

    def test_pentries_view_joins_parent_inode(self, tmp_path):
        tree = build_demo_tree()
        result = dir2index(tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS))
        idx = result.index
        conn = connect.open_ro(idx.db_path("/home/alice"))
        dir_ino = idx.dir_meta("/home/alice").inode
        rows = conn.execute("SELECT name, pinode FROM pentries").fetchall()
        conn.close()
        assert rows and all(p == dir_ino for _, p in rows)

    def test_vrpentries_dname(self, tmp_path):
        tree = build_demo_tree()
        result = dir2index(tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS))
        conn = connect.open_ro(result.index.db_path("/home/bob"))
        rows = conn.execute(
            "SELECT name, dname, d_isroot FROM vrpentries"
        ).fetchall()
        conn.close()
        assert ("b.txt", "bob", 1) in rows

    def test_index_meta_file(self, tmp_path):
        tree = build_demo_tree()
        result = dir2index(
            tree, tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS),
            source_name="demo",
        )
        reopened = GUFIIndex.open(tmp_path / "idx")
        assert reopened.meta["source"] == "demo"

    def test_open_rejects_non_index(self, tmp_path):
        from repro.core.index import IndexError_

        with pytest.raises(IndexError_):
            GUFIIndex.open(tmp_path)

    def test_build_from_stanzas_reports_structured_errors(self, tmp_path):
        """A bad directory no longer aborts the build: it lands in
        BuildResult.errors while every other directory is published."""
        tree = build_demo_tree()
        stanzas = TreeWalkScanner(tree, nthreads=1).scan("/").stanzas
        # corrupt a stanza to force a failure
        stanzas[3].entries.append("not a record")  # type: ignore[arg-type]
        result = build_from_stanzas(
            stanzas, tmp_path / "bad", BuildOptions(nthreads=NTHREADS)
        )
        assert not result.ok
        assert len(result.errors) == 1
        bad_path, exc = result.errors[0]
        assert bad_path == stanzas[3].directory.path
        assert isinstance(exc, Exception)
        # partial progress: everything else was published
        assert result.dirs_created == len(stanzas) - 1
        # the journal survives for a future resume=True run
        assert (tmp_path / "bad" / "gufi_build.journal").exists()
