"""Unit tests for the on-disk index layout helpers and the SQLite
connection layer (path mapping, enumeration, table-level byte
accounting, template reuse)."""

from __future__ import annotations

import sqlite3
from pathlib import Path

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.index import GUFIIndex
from repro.store import connect, layout
from tests.conftest import NTHREADS, build_demo_tree


@pytest.fixture
def idx(tmp_path):
    return dir2index(
        build_demo_tree(), tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
    ).index


class TestPathMapping:
    def test_roundtrip(self, idx):
        for sp in ("/", "/home", "/home/alice/sub", "/proj/shared/data"):
            assert idx.source_path(idx.index_dir(sp)) == sp

    def test_root_maps_to_root(self, idx):
        assert idx.index_dir("/") == idx.root
        assert idx.db_path("/").name == "db.db"

    def test_normalisation(self, idx):
        assert idx.index_dir("/home/") == idx.index_dir("/home")


class TestEnumeration:
    def test_iter_index_dirs(self, idx):
        dirs = {idx.source_path(d) for d in idx.iter_index_dirs()}
        assert "/" in dirs and "/home/alice/sub" in dirs
        assert len(dirs) == idx.count_dbs()

    def test_iter_from_subtree(self, idx):
        dirs = {idx.source_path(d) for d in idx.iter_index_dirs("/home")}
        assert dirs == {"/home", "/home/alice", "/home/alice/sub",
                        "/home/bob", "/home/bob/secret"}

    def test_total_db_bytes_positive(self, idx):
        total = idx.total_db_bytes()
        # every database is at least the one-block template
        assert total >= idx.count_dbs() * 4096

    def test_subdir_names(self, idx):
        assert idx.subdir_names("/home") == ["alice", "bob"]
        assert idx.subdir_names("/home/alice/sub") == []

    def test_subdir_names_missing(self, idx):
        from repro.core.index import IndexError_

        with pytest.raises(IndexError_):
            idx.subdir_names("/nope")


class TestDirMeta:
    def test_meta_fields(self, idx):
        meta = idx.dir_meta("/proj/shared")
        assert (meta.mode, meta.uid, meta.gid) == (0o770, 1001, 100)
        assert not meta.rolledup and meta.rollup_entries == 0

    def test_meta_missing_summary(self, tmp_path):
        db = tmp_path / "db.db"
        conn = connect.create_db(db)
        conn.execute("DELETE FROM summary")
        conn.close()
        ro = connect.open_ro(db)
        from repro.core.index import IndexError_

        with pytest.raises(IndexError_):
            GUFIIndex.read_dir_meta(ro)
        ro.close()


class TestDbLayer:
    def test_template_cached_per_process(self, tmp_path):
        connect.create_db(tmp_path / "a.db").close()
        connect.create_db(tmp_path / "b.db").close()
        assert (tmp_path / "a.db").read_bytes()[:16] == b"SQLite format 3\x00"
        # identical empty templates
        assert (
            (tmp_path / "a.db").stat().st_size
            == (tmp_path / "b.db").stat().st_size
        )

    def test_create_db_preserves_existing(self, tmp_path):
        conn = connect.create_db(tmp_path / "x.db")
        conn.execute("INSERT INTO entries (name) VALUES ('keep')")
        conn.close()
        conn = connect.create_db(tmp_path / "x.db")  # reopen, not truncate
        (n,) = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
        conn.close()
        assert n == 1

    def test_table_bytes(self, idx):
        conn = sqlite3.connect(":memory:")
        conn.execute(
            "ATTACH DATABASE ? AS gufi",
            (str(idx.db_path("/proj/shared")),),
        )
        summary_bytes = connect.table_bytes(conn, "gufi", {"summary"})
        both = connect.table_bytes(conn, "gufi", {"summary", "entries"})
        whole = layout.artifact_bytes(idx.db_path("/proj/shared"))
        conn.close()
        assert 0 < summary_bytes <= both <= whole + 4096

    def test_db_file_bytes_missing(self):
        assert layout.artifact_bytes("/no/such/file.db") == 0

    def test_attach_ro_blocks_writes(self, idx):
        conn = sqlite3.connect(":memory:", uri=True)
        connect.attach_ro(conn, idx.db_path("/home/bob"), "g")
        with pytest.raises(sqlite3.OperationalError):
            conn.execute("DELETE FROM g.entries")
        connect.detach(conn, "g")
        conn.close()

    def test_is_readonly_error(self):
        err = sqlite3.OperationalError("attempt to write a readonly database")
        assert connect.is_readonly_error(err)
        assert not connect.is_readonly_error(sqlite3.OperationalError("nope"))

    def test_open_rw_allows_schema_change(self, idx):
        conn = connect.open_rw(idx.db_path("/public"))
        conn.execute("CREATE TABLE custom (x)")
        conn.close()
        ro = connect.open_ro(idx.db_path("/public"))
        assert ro.execute(
            "SELECT name FROM sqlite_master WHERE name='custom'"
        ).fetchone()
        ro.close()


class TestPhysicalModes:
    def test_apply_physical_mode_best_effort(self, idx, tmp_path):
        # never raises, even for odd modes
        idx.apply_physical_mode("/home/alice", 0o000)
        idx.apply_physical_mode("/home/alice", 0o777)
        assert Path(idx.index_dir("/home/alice")).exists()
