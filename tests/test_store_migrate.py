"""Schema migration: v0 read-compat, in-place upgrade with
byte-identical query results, and kill-at-50%/resume through the
checkpoint machinery (``gufi index migrate``)."""

from __future__ import annotations

import pytest

from repro.core.engine import QueryEngine
from repro.core.query import QuerySpec
from repro.fs.permissions import Credentials
from repro.scan.faults import BuildCrash, FaultPlan
from repro.store.connect import open_ro, open_rw
from repro.store.layout import DirStore, classify_artifact
from repro.store.migrate import (
    FAULT_SITE,
    MIGRATE_JOURNAL,
    migrate_db,
    migrate_index,
)
from repro.store.schema import (
    SCHEMA_VERSION,
    SchemaVersionError,
    db_schema_version,
    migrate_conn,
)

ROOT = Credentials(uid=0, gid=0)

#: a query touching entries, summary, and the pentries view — if
#: migration perturbed any row, this notices
SPEC = QuerySpec(
    S="SELECT name, totfiles, totsize FROM summary WHERE isroot = 1",
    E="SELECT name, inode, size, mtime FROM pentries",
)


def _pin_v0(index) -> int:
    """Rewind every database in the index to the unversioned epoch
    (what a pre-store build left on disk)."""
    pinned = 0
    for d in index.iter_index_dirs():
        store = DirStore(d)
        for name, _kind in store.artifacts():
            conn = open_rw(store.artifact_path(name))
            try:
                conn.execute("PRAGMA user_version = 0")
                conn.commit()
            finally:
                conn.close()
            pinned += 1
    return pinned


def _versions(index) -> set[int]:
    out = set()
    for d in index.iter_index_dirs():
        store = DirStore(d)
        for name, _kind in store.artifacts():
            conn = open_ro(store.artifact_path(name))
            try:
                out.add(db_schema_version(conn))
            finally:
                conn.close()
    return out


def _run(index) -> list[tuple]:
    result = QueryEngine(index, creds=ROOT, nthreads=2).run(SPEC, "/")
    return sorted(result.rows)


class TestMigrateRoundTrip:
    def test_v0_reads_migrates_and_rereads_identically(self, demo_index):
        baseline = _run(demo_index)
        assert baseline  # the demo tree is not empty

        pinned = _pin_v0(demo_index)
        assert pinned > 0
        assert _versions(demo_index) == {0}

        # read-compat: every query path works against v0 unchanged
        demo_index.cache.clear()
        assert _run(demo_index) == baseline

        result = migrate_index(demo_index)
        assert result.ok
        assert result.dirs_seen == result.dirs_migrated
        assert result.steps_applied >= result.dirs_migrated
        assert _versions(demo_index) == {SCHEMA_VERSION}

        # byte-identical rows after the upgrade
        demo_index.cache.clear()
        assert _run(demo_index) == baseline

    def test_migrate_is_idempotent(self, demo_index):
        first = migrate_index(demo_index)
        assert first.ok and first.dirs_migrated == 0
        assert first.dirs_skipped == first.dirs_seen

    def test_side_dbs_migrate_too(self, tmp_path):
        from repro.core.build import BuildOptions, dir2index
        from repro.fs.tree import VFSTree

        t = VFSTree()
        t.mkdir("/d", mode=0o750, uid=1001, gid=1001)
        t.create_file("/d/mine", mode=0o640, uid=1001, gid=1001)
        t.create_file("/d/bobs", mode=0o600, uid=1002, gid=1002)
        t.setxattr("/d/bobs", "user.bobs", b"b1")  # sharded: other uid
        index = dir2index(
            t, tmp_path / "idx", opts=BuildOptions(nthreads=2)
        ).index
        had_sides = any(
            classify_artifact(n) not in (None, "primary")
            for d in index.iter_index_dirs()
            for n, _k in DirStore(d).artifacts()
        )
        assert had_sides, "build must shard xattrs for this test"
        _pin_v0(index)
        result = migrate_index(index)
        assert result.ok
        assert result.side_dbs_migrated > 0
        assert _versions(index) == {SCHEMA_VERSION}

    def test_rolled_v0_lacking_vrpentries_gets_the_join_view(self, demo_index):
        """The oldest indexes predate ``vrpentries``. Step 0 creates the
        view of what the database *is*: a rolled-up one given the
        single-directory view would answer every rolled-in row with
        its own directory's name."""
        from repro.core.query import Q1_LIST_PATHS
        from repro.core.rollup import rollup
        from repro.store.schema import MIGRATIONS, is_rolled, view_ddl

        rollup(demo_index, nthreads=2)
        paths = sorted(QueryEngine(demo_index, creds=ROOT).run(Q1_LIST_PATHS).rows)
        rolled = 0
        for d in demo_index.iter_index_dirs():
            conn = open_rw(DirStore(d).db_path)
            try:
                conn.execute("DROP VIEW vrpentries")
                conn.execute("PRAGMA user_version = 0")
                MIGRATIONS[0](conn)  # the step alone, not the chain
                (sql,) = conn.execute(
                    "SELECT sql FROM sqlite_master WHERE name = 'vrpentries'"
                ).fetchone()
                assert sql == view_ddl(is_rolled(conn))[-1]
                rolled += is_rolled(conn)
            finally:
                conn.close()
        assert rolled
        demo_index.cache.clear()
        assert sorted(
            QueryEngine(demo_index, creds=ROOT).run(Q1_LIST_PATHS).rows
        ) == paths
        assert migrate_index(demo_index).ok
        assert _versions(demo_index) == {SCHEMA_VERSION}
        demo_index.cache.clear()
        assert sorted(
            QueryEngine(demo_index, creds=ROOT).run(Q1_LIST_PATHS).rows
        ) == paths

    def test_newer_schema_refuses(self, tmp_path):
        store = DirStore.open(tmp_path / "d")
        conn = store.stage_primary()
        try:
            conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
            conn.commit()
        finally:
            conn.close()
        store.publish([])
        with pytest.raises(SchemaVersionError):
            migrate_db(store.db_path)

    def test_migrate_conn_reports_steps(self, tmp_path):
        store = DirStore.open(tmp_path / "d")
        conn = store.stage_primary()
        try:
            conn.execute("PRAGMA user_version = 0")
            conn.commit()
            assert migrate_conn(conn) == SCHEMA_VERSION
            assert db_schema_version(conn) == SCHEMA_VERSION
            assert migrate_conn(conn) == 0  # already current
        finally:
            conn.close()
        store.publish([])
        assert migrate_db(store.db_path) == 0  # published current


class TestMigrateCrashResume:
    def test_kill_at_half_then_resume(self, demo_index):
        baseline = _run(demo_index)
        _pin_v0(demo_index)
        n_dirs = sum(1 for _ in demo_index.iter_index_dirs())
        assert n_dirs >= 4
        half = n_dirs // 2 + 1

        with pytest.raises(BuildCrash):
            migrate_index(
                demo_index, faults=FaultPlan.crash_at(FAULT_SITE, half)
            )

        # the journal survived the crash and some dirs are still v0
        assert (demo_index.root / MIGRATE_JOURNAL).exists()
        assert 0 in _versions(demo_index)

        resumed = migrate_index(demo_index, resume=True)
        assert resumed.ok
        assert resumed.dirs_skipped >= half - 1  # journal-proven dirs
        assert resumed.dirs_migrated >= 1
        assert _versions(demo_index) == {SCHEMA_VERSION}
        # a finished migration finalizes (removes) its journal
        assert not (demo_index.root / MIGRATE_JOURNAL).exists()

        demo_index.cache.clear()
        assert _run(demo_index) == baseline

    def test_per_dir_failure_keeps_sweeping(self, demo_index):
        _pin_v0(demo_index)
        # corrupt one primary database so its migration fails
        victim = demo_index.db_path("/home/bob")
        victim.write_bytes(b"this is not a sqlite database")
        result = migrate_index(demo_index)
        assert not result.ok
        assert [sp for sp, _exc in result.errors] == ["/home/bob"]
        # every healthy directory still migrated
        assert result.dirs_migrated == result.dirs_seen - 1
