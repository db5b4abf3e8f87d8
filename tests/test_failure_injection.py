"""Failure-injection tests: damaged shards, interrupted builds, stale
tracking rows — the query engine and validators must degrade, not die."""

from __future__ import annotations

import pytest

from repro.core.build import BuildOptions, dir2index
from repro.core.compose import validate
from repro.core.engine import QueryEngine
from repro.core.query import Q1_LIST_PATHS, QuerySpec
from repro.core.rollup import rollup
from tests.conftest import NTHREADS, build_demo_tree


@pytest.fixture
def idx(tmp_path):
    return dir2index(
        build_demo_tree(), tmp_path / "idx", opts=BuildOptions(nthreads=NTHREADS)
    ).index


class TestCorruptShard:
    def test_query_survives_garbage_db(self, idx):
        idx.db_path("/home/bob").write_bytes(b"\xde\xad\xbe\xef" * 1000)
        result = QueryEngine(idx, nthreads=NTHREADS).run(Q1_LIST_PATHS)
        assert result.dirs_errored == 1
        paths = {r[0] for r in result.rows}
        assert "/home/alice/a.txt" in paths  # the rest still answers
        assert not any("bob" in p for p in paths)

    def test_query_survives_truncated_db(self, idx):
        p = idx.db_path("/proj/shared")
        p.write_bytes(p.read_bytes()[:100])
        result = QueryEngine(idx, nthreads=NTHREADS).run(Q1_LIST_PATHS)
        assert result.dirs_errored >= 1
        assert result.rows

    def test_query_survives_empty_file(self, idx):
        idx.db_path("/public").write_bytes(b"")
        result = QueryEngine(idx, nthreads=NTHREADS).run(Q1_LIST_PATHS)
        # sqlite treats a zero-length file as a valid empty db: no
        # summary table -> counted and skipped, no error propagation
        assert result.dirs_errored == 1
        assert result.rows
        assert not any("readme" in r[0] for r in result.rows)

    def test_query_counts_db_without_own_summary_record(self, idx):
        """A well-formed database whose own (isroot = 1) summary record
        is gone cannot be permission-checked: it is skipped, and the
        skip shows in ``dirs_errored`` like any other damaged shard."""
        import sqlite3

        conn = sqlite3.connect(idx.db_path("/home/bob"))
        conn.execute("DELETE FROM summary WHERE isroot = 1")
        conn.commit()
        conn.close()
        walk = QueryEngine(idx, nthreads=NTHREADS).run(Q1_LIST_PATHS)
        assert walk.dirs_errored == 1
        assert "/home/alice/a.txt" in {r[0] for r in walk.rows}
        assert not any("/home/bob" in r[0] for r in walk.rows)
        single = QueryEngine(idx, nthreads=NTHREADS).run_single(
            Q1_LIST_PATHS, "/home/bob"
        )
        assert (single.dirs_errored, single.rows) == (1, [])
        assert idx.cached_dir_meta("/home/bob") is None  # lenient reader

    def test_validate_reports_corruption(self, idx):
        idx.db_path("/home/bob").write_bytes(b"junk" * 100)
        report = validate(idx)
        assert not report.ok

    def test_user_sql_errors_still_propagate(self, idx):
        """Corruption is survivable; a typo in the user's SQL is not
        silently swallowed."""
        with pytest.raises(RuntimeError):
            QueryEngine(idx, nthreads=NTHREADS).run(
                QuerySpec(E="SELECT definitely_not_a_column FROM pentries")
            )


class TestPartialState:
    def test_missing_db_prunes_quietly(self, idx):
        (idx.index_dir("/home/alice") / "db.db").unlink()
        result = QueryEngine(idx, nthreads=NTHREADS).run(Q1_LIST_PATHS)
        assert not any("alice" in r[0] for r in result.rows)
        assert result.dirs_errored == 0  # absent, not corrupt

    def test_stale_xattr_tracking_row(self, tmp_path):
        """xattrs_avail names a side database that vanished (e.g. an
        interrupted update): the xattr view builder must skip it."""
        from repro.fs.tree import VFSTree

        t = VFSTree()
        t.mkdir("/d", mode=0o755, uid=1001, gid=1001)
        t.create_file("/d/f", mode=0o600, uid=1002, gid=1002)
        t.setxattr("/d/f", "user.k", b"v")
        idx = dir2index(t, tmp_path / "i",
                        opts=BuildOptions(nthreads=NTHREADS)).index
        # both the per-user and the per-group side dbs vanished
        (idx.index_dir("/d") / "xattrs.db.u1002").unlink()
        (idx.index_dir("/d") / "xattrs.db.g1002.nr").unlink()
        spec = QuerySpec(E="SELECT name FROM xpentries", xattrs=True)
        result = QueryEngine(idx, nthreads=NTHREADS).run(spec, "/d")
        assert result.rows == []  # values gone, query fine

    def test_rollup_after_corruption_raises(self, idx):
        """Rollup is an admin write operation: corruption must be loud,
        not silently merged around."""
        idx.db_path("/home/bob").write_bytes(b"junk" * 500)
        with pytest.raises(RuntimeError):
            rollup(idx, nthreads=NTHREADS)
